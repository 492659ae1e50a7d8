"""Unit + property tests for the Substrait IR: build, validate, serde."""

import ast
import pathlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.arrowsim import BOOL, DATE32, FLOAT64, INT32, INT64, STRING
from repro.errors import SerdeError, SubstraitError, ValidationError
from repro.substrait import (
    AggregateMeasure,
    AggregateRel,
    FetchRel,
    FilterRel,
    FunctionRegistry,
    NamedStruct,
    ProjectRel,
    ReadRel,
    SCAST,
    SFieldRef,
    SFunctionCall,
    SInList,
    SLiteral,
    SortField,
    SortRel,
    SubstraitPlan,
    deserialize_plan,
    serialize_plan,
    signature,
    validate_plan,
)

BASE = NamedStruct(
    names=("id", "x", "tag"),
    types=(INT64, FLOAT64, STRING),
    nullability=(False, True, True),
)


def simple_plan():
    registry = FunctionRegistry()
    gt = registry.anchor_for("gt", [FLOAT64, FLOAT64])
    sum_a = registry.anchor_for("sum", [FLOAT64])
    read = ReadRel("hpc.points", BASE, (0, 1))
    filt = FilterRel(
        read,
        SFunctionCall(gt, (SFieldRef(1, FLOAT64), SLiteral(0.5, FLOAT64)), BOOL),
    )
    agg = AggregateRel(
        filt,
        grouping=(0,),
        measures=(
            AggregateMeasure(sum_a, "sum", (SFieldRef(1, FLOAT64),), FLOAT64),
        ),
    )
    sort = SortRel(agg, (SortField(1, descending=True),))
    fetch = FetchRel(sort, 0, 10)
    return SubstraitPlan(root=fetch, registry=registry, root_names=["id", "total"])


class TestFunctions:
    def test_signature_format(self):
        assert signature("gte", [FLOAT64, FLOAT64]) == "functions_comparison:gte:fp64_fp64"
        assert signature("sum", [INT64]) == "functions_arithmetic:sum:i64"

    def test_unknown_function(self):
        with pytest.raises(SubstraitError):
            signature("median", [INT64])

    def test_registry_assigns_stable_anchors(self):
        registry = FunctionRegistry()
        a1 = registry.anchor_for("add", [INT64, INT64])
        a2 = registry.anchor_for("gt", [INT64, INT64])
        assert a1 != a2
        assert registry.anchor_for("add", [INT64, INT64]) == a1
        assert registry.name_of(a2) == "gt"

    def test_registry_roundtrip(self):
        registry = FunctionRegistry()
        registry.anchor_for("add", [INT64, INT64])
        registry.anchor_for("avg", [FLOAT64])
        clone = FunctionRegistry.from_declarations(registry.declarations())
        assert clone.declarations() == registry.declarations()

    def test_unknown_anchor(self):
        with pytest.raises(SubstraitError):
            FunctionRegistry().name_of(42)


class TestValidation:
    def test_valid_plan(self):
        assert validate_plan(simple_plan()) == [INT64, FLOAT64]

    def test_bad_projection_ordinal(self):
        plan = SubstraitPlan(root=ReadRel("t", BASE, (0, 9)))
        with pytest.raises(ValidationError):
            validate_plan(plan)

    def test_empty_projection_rejected(self):
        plan = SubstraitPlan(root=ReadRel("t", BASE, ()))
        with pytest.raises(ValidationError):
            validate_plan(plan)

    def test_filter_must_be_boolean(self):
        read = ReadRel("t", BASE, (0,))
        plan = SubstraitPlan(root=FilterRel(read, SLiteral(1, INT64)))
        with pytest.raises(ValidationError):
            validate_plan(plan)

    def test_field_ref_out_of_range(self):
        read = ReadRel("t", BASE, (0,))
        plan = SubstraitPlan(root=ProjectRel(read, (SFieldRef(5, INT64),)))
        with pytest.raises(ValidationError):
            validate_plan(plan)

    def test_unknown_anchor_rejected(self):
        read = ReadRel("t", BASE, (0,))
        expr = SFunctionCall(99, (SFieldRef(0, INT64),), BOOL)
        plan = SubstraitPlan(root=FilterRel(read, expr))
        with pytest.raises(ValidationError, match="unknown function anchor 99"):
            validate_plan(plan)

    def test_measure_name_anchor_mismatch(self):
        registry = FunctionRegistry()
        anchor = registry.anchor_for("sum", [INT64])
        read = ReadRel("t", BASE, (0,))
        agg = AggregateRel(
            read, (), (AggregateMeasure(anchor, "max", (SFieldRef(0, INT64),), INT64),)
        )
        with pytest.raises(ValidationError):
            validate_plan(SubstraitPlan(root=agg, registry=registry))

    def test_root_names_width_checked(self):
        plan = SubstraitPlan(root=ReadRel("t", BASE, (0, 1)), root_names=["only_one"])
        with pytest.raises(ValidationError):
            validate_plan(plan)

    @pytest.mark.parametrize("dtype", [INT32, DATE32])
    def test_integer_literal_must_fit_its_type(self, dtype):
        # The wire carries integers as i64; broadcasting 2**40 into an
        # int32 column would overflow inside the engine.
        struct = NamedStruct(("n",), (dtype,), (False,))
        registry = FunctionRegistry()
        gt = registry.anchor_for("gt", [dtype, dtype])
        fits = SFunctionCall(gt, (SFieldRef(0, dtype), SLiteral(2**31 - 1, dtype)), BOOL)
        validate_plan(SubstraitPlan(FilterRel(ReadRel("t", struct, (0,)), fits), registry))
        past = SFunctionCall(gt, (SFieldRef(0, dtype), SLiteral(2**40, dtype)), BOOL)
        plan = SubstraitPlan(FilterRel(ReadRel("t", struct, (0,)), past), registry)
        with pytest.raises(ValidationError, match="does not fit"):
            validate_plan(deserialize_plan(serialize_plan(plan)))

    def test_negative_fetch_rejected(self):
        read = ReadRel("t", BASE, (0,))
        with pytest.raises(SubstraitError):
            FetchRel(read, -1, 5)

    def test_partial_avg_widens_output(self):
        registry = FunctionRegistry()
        anchor = registry.anchor_for("avg", [FLOAT64])
        read = ReadRel("t", BASE, (0, 1))
        agg = AggregateRel(
            read,
            (0,),
            (
                AggregateMeasure(
                    anchor, "avg", (SFieldRef(1, FLOAT64),), FLOAT64, phase="partial"
                ),
            ),
        )
        # Partial avg ships its (sum, count) state pair.
        assert validate_plan(SubstraitPlan(root=agg, registry=registry)) == [
            INT64, FLOAT64, INT64,
        ]


class TestSerde:
    def test_roundtrip_simple(self):
        plan = simple_plan()
        clone = deserialize_plan(serialize_plan(plan))
        assert clone.root == plan.root
        assert clone.root_names == plan.root_names
        assert clone.registry.declarations() == plan.registry.declarations()
        validate_plan(clone)

    def test_roundtrip_with_best_effort_filter(self):
        registry = FunctionRegistry()
        lt = registry.anchor_for("lt", [INT64, INT64])
        read = ReadRel(
            "t", BASE, (0,),
            best_effort_filter=SFunctionCall(
                lt, (SFieldRef(0, INT64), SLiteral(100, INT64)), BOOL
            ),
        )
        plan = SubstraitPlan(root=read, registry=registry)
        clone = deserialize_plan(serialize_plan(plan))
        assert clone.root == plan.root

    def test_roundtrip_in_list_and_cast(self):
        read = ReadRel("t", BASE, (2, 0))
        expr = SInList(SFieldRef(0, STRING), ("a", "b"), STRING, negated=True)
        plan = SubstraitPlan(
            root=ProjectRel(FilterRel(read, expr), (SCAST(SFieldRef(1, INT64), FLOAT64),))
        )
        clone = deserialize_plan(serialize_plan(plan))
        assert clone.root == plan.root

    def test_bad_magic(self):
        with pytest.raises(SerdeError):
            deserialize_plan(b"XXXX\x00\x01\x00\x00")

    def test_trailing_bytes_rejected(self):
        data = serialize_plan(simple_plan()) + b"!"
        with pytest.raises(SerdeError):
            deserialize_plan(data)

    def test_counts(self):
        plan = simple_plan()
        assert plan.relation_count() == 5
        assert plan.expression_node_count() >= 4

    @given(
        st.integers(0, 2),
        st.integers(0, 1000),
        st.booleans(),
        st.sampled_from(["count", "sum", "min", "max", "avg"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, key_ordinal, fetch_count, descending, func):
        registry = FunctionRegistry()
        anchor = registry.anchor_for(func, [] if func == "count" else [FLOAT64])
        args = () if func == "count" else (SFieldRef(1, FLOAT64),)
        out_dtype = INT64 if func == "count" else FLOAT64
        agg = AggregateRel(
            ReadRel("s.t", BASE, (0, 1, 2)),
            (key_ordinal,),
            (AggregateMeasure(anchor, func, args, out_dtype),),
        )
        plan = SubstraitPlan(
            root=FetchRel(SortRel(agg, (SortField(0, descending),)), 0, fetch_count),
            registry=registry,
        )
        validate_plan(plan)
        clone = deserialize_plan(serialize_plan(plan))
        assert clone.root == plan.root


# -- one typed check, at the boundaries ------------------------------------------


def test_validate_plan_runs_only_at_the_boundaries():
    """Plans are checked where they enter storage, the OCS frontend, and by
    strict mode's hook over plans the connector runs locally.  Nothing
    re-checks them in between."""
    root = pathlib.Path(repro.__file__).parent
    callers = Counter()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        text = path.read_text()
        assert "verify_substrait_plan" not in text, relative
        tree = ast.parse(text)
        strict = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.If) and "strict_verify_enabled" in ast.unparse(node.test)
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "validate_plan":
                callers[relative + (" (strict hook)" if id(node) in strict else "")] += 1
    assert callers == {
        "ocs/frontend.py": 1,
        "core/connector.py (strict hook)": 1,
    }
