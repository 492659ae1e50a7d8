"""The typed Substrait check: one walk over a plan, structure and types.

Plan bytes enter from outside at the OCS frontend, which runs
:func:`validate_plan` on every request before anything reaches a storage
node, and strict mode runs it over plans the compute side runs locally.
Every ordinal, anchor and header must be in range, every node must
declare the dtype its inputs give it, filters must be boolean, measures
must split into one phase, and sort/fetch sit only at the root (top-N
is ``FetchRel(SortRel(...))``).
Types come from where they are defined: ``Relation.output_types``,
:class:`~repro.exec.aggregates.AggregateSpec`, the exec rules
``arithmetic_result_type`` / ``scalar_function_dtype`` and
:func:`~repro.substrait.functions.signature`.  The embedded engine runs
a plan that passes to exactly the dtypes returned.  Every failure is a
:class:`~repro.errors.ValidationError`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.arrowsim.dtypes import BOOL, STRING, DataType
from repro.errors import ExecutionError, SubstraitError, ValidationError
from repro.exec.expressions import arithmetic_result_type, scalar_function_dtype
from repro.substrait.convert import _NAME_TO_ARITH, _NAME_TO_CMP
from repro.substrait.expressions import (
    SCAST,
    SBloomProbe,
    SExpression,
    SFieldRef,
    SFunctionCall,
    SInList,
    SLiteral,
)
from repro.substrait.functions import (
    AGGREGATE_FUNCTIONS,
    SCALAR_FUNCTIONS,
    FunctionRegistry,
    signature,
)
from repro.substrait.plan import SubstraitPlan
from repro.substrait.relations import (
    AggregateMeasure,
    AggregateRel,
    FetchRel,
    FilterRel,
    ProjectRel,
    ReadRel,
    Relation,
    SortRel,
)

__all__ = ["validate_plan"]

_ADJACENCY = "top-N requires sort+fetch adjacency at the plan root"


def validate_plan(plan: SubstraitPlan) -> List[DataType]:
    """Check ``plan``; returns the dtypes of its root's output columns."""
    types = _check_rel(plan.root, _Anchors(plan.registry), "fetch")
    if plan.root_names and len(plan.root_names) != len(types):
        raise ValidationError(
            f"root names ({len(plan.root_names)}) disagree with output width "
            f"({len(types)})"
        )
    return types


def _out_of_range(kind: str, ordinal: int, width: int) -> ValidationError:
    return ValidationError(f"{kind} ordinal {ordinal} out of range (width {width})")


class _Anchors:
    """A plan's function anchors; each call signature is checked once.

    One anchor declares one signature, so a second call through it over
    the same argument types has the same result dtype.
    """

    def __init__(self, registry: FunctionRegistry) -> None:
        self.registry = registry
        self.checked: Dict[int, Tuple[Tuple[DataType, ...], str, DataType]] = {}

    def resolve(self, anchor: int) -> Tuple[str, str]:
        """(function name, declared signature) of ``anchor``."""
        try:
            return self.registry.name_of(anchor), self.registry.signature_of(anchor)
        except SubstraitError as exc:
            raise ValidationError(str(exc)) from None

    def check_call(
        self, anchor: int, arg_types: Tuple[DataType, ...]
    ) -> Tuple[str, DataType]:
        """(function name, result dtype) of a scalar call through ``anchor``."""
        seen = self.checked.get(anchor)
        if seen is not None and seen[0] == arg_types:
            return seen[1], seen[2]
        name, declared = self.resolve(anchor)
        _check_signature(f"function anchor {anchor}", name, arg_types, declared)
        dtype = _call_dtype(name, arg_types)
        self.checked[anchor] = (arg_types, name, dtype)
        return name, dtype


def _check_signature(
    what: str, name: str, arg_types: Sequence[DataType], declared: str
) -> None:
    try:
        expected = signature(name, arg_types)
    except SubstraitError as exc:
        raise ValidationError(str(exc)) from None
    if expected != declared:
        raise ValidationError(
            f"{what} declares {declared!r} but arguments recompute to {expected!r}"
        )


def _call_dtype(name: str, args: Sequence[DataType]) -> DataType:
    """Result dtype of scalar function ``name`` over ``args``, as lowered."""
    namespace = SCALAR_FUNCTIONS.get(name)
    if namespace is None:
        raise ValidationError(f"unknown scalar function {name!r}")
    if namespace == "functions_boolean":
        if not args or any(t is not BOOL for t in args) or (name == "not" and len(args) > 1):
            raise ValidationError(f"{name} needs boolean operands, got {list(args)}")
        return BOOL
    arity = 2 if name in _NAME_TO_ARITH or name in _NAME_TO_CMP else 1
    if len(args) != arity:
        raise ValidationError(f"{name} takes {arity} argument(s), got {len(args)}")
    if name in _NAME_TO_CMP and (args[0] is STRING) != (args[1] is STRING):
        raise ValidationError(f"cannot compare {args[0]} with {args[1]}")
    if namespace == "functions_comparison":
        return BOOL
    if name == "negate":
        if not args[0].is_numeric:
            raise ValidationError(f"negate requires a numeric argument, got {args[0]}")
        return args[0]
    try:
        if name in _NAME_TO_ARITH:
            return arithmetic_result_type(_NAME_TO_ARITH[name], args[0], args[1])
        return scalar_function_dtype(name, args[0])
    except ExecutionError as exc:
        raise ValidationError(str(exc)) from None


def _check_expr(expr: SExpression, types: Sequence[DataType], anchors: _Anchors) -> DataType:
    """The dtype ``expr`` evaluates to over ``types``; every node must declare it."""
    if isinstance(expr, SFieldRef):
        if not 0 <= expr.ordinal < len(types):
            raise _out_of_range("field", expr.ordinal, len(types))
        actual = types[expr.ordinal]
        if expr.dtype is not actual:
            raise ValidationError(
                f"field ref ${expr.ordinal} typed {expr.dtype}, input is {actual}"
            )
        return actual
    if isinstance(expr, SFunctionCall):
        arg_types = tuple([_check_expr(a, types, anchors) for a in expr.args])
        name, expected = anchors.check_call(expr.anchor, arg_types)
        if expr.dtype is not expected:
            raise ValidationError(
                f"{name}({', '.join(str(t) for t in arg_types)}) must be "
                f"{expected}, call claims {expr.dtype}"
            )
        return expected
    if isinstance(expr, SLiteral):
        # The wire carries every integer as i64; a narrower column's
        # literal must fit it before the engine broadcasts it.
        if expr.dtype.is_integer and expr.value is not None:
            half = 1 << (8 * expr.dtype.byte_width - 1)
            if not -half <= expr.value < half:
                raise ValidationError(f"literal {expr.value} does not fit {expr.dtype}")
        return expr.dtype
    if isinstance(expr, SCAST):
        _check_expr(expr.operand, types, anchors)
        return expr.dtype
    if isinstance(expr, SInList):
        operand = _check_expr(expr.operand, types, anchors)
        if operand is not expr.option_dtype:
            raise ValidationError(
                f"IN-list options typed {expr.option_dtype}, operand is {operand}"
            )
        return BOOL
    if isinstance(expr, SBloomProbe):
        _check_expr(expr.operand, types, anchors)
        if expr.num_bits < 8 or expr.num_bits & (expr.num_bits - 1):
            raise ValidationError(
                f"bloom num_bits must be a power of two >= 8, got {expr.num_bits}"
            )
        if len(expr.bits) * 8 != expr.num_bits:
            raise ValidationError(
                f"bloom bitset holds {len(expr.bits) * 8} bits, header says "
                f"{expr.num_bits}"
            )
        if expr.hashes < 1:
            raise ValidationError(f"bloom needs >= 1 hash, got {expr.hashes}")
        return BOOL
    raise ValidationError(f"unknown expression node {type(expr).__name__}")


def _check_condition(
    what: str, expr: SExpression, types: Sequence[DataType], anchors: _Anchors
) -> None:
    dtype = _check_expr(expr, types, anchors)
    if dtype is not BOOL:
        raise ValidationError(f"{what} must be boolean, got {dtype}")


def _check_measure(
    measure: AggregateMeasure, types: Sequence[DataType], anchors: _Anchors
) -> None:
    name, declared = anchors.resolve(measure.anchor)
    if name != measure.function:
        raise ValidationError(
            f"measure function {measure.function!r} does not match anchor "
            f"{measure.anchor} ({name!r})"
        )
    if name not in AGGREGATE_FUNCTIONS:
        raise ValidationError(f"unknown aggregate {name!r}")
    if measure.phase not in ("single", "partial"):
        raise ValidationError(f"unknown measure phase {measure.phase!r}")
    if len(measure.args) > 1:
        raise ValidationError("aggregates take at most one argument")
    arg_types = [_check_expr(a, types, anchors) for a in measure.args]
    _check_signature(f"measure anchor {measure.anchor}", name, arg_types, declared)
    try:
        expected = measure.spec().output_dtype
    except ExecutionError as exc:
        raise ValidationError(str(exc)) from None
    if measure.output_dtype is not expected:
        raise ValidationError(
            f"measure {name} must emit {expected}, declares {measure.output_dtype}"
        )


def _check_rel(rel: Relation, anchors: _Anchors, zone: str) -> List[DataType]:
    """Check a relation subtree; returns its output dtypes.

    ``zone`` enforces sort+fetch adjacency: ``"fetch"`` at the plan root
    (fetch or sort allowed), ``"sort"`` directly under that fetch (sort
    allowed), ``"none"`` anywhere else.
    """
    if isinstance(rel, FetchRel):
        if zone != "fetch":
            raise ValidationError(f"fetch relation outside the root zone ({_ADJACENCY})")
        return _check_rel(rel.input, anchors, "sort")
    if isinstance(rel, SortRel):
        if zone == "none":
            raise ValidationError(f"sort relation below other operators ({_ADJACENCY})")
        types = _check_rel(rel.input, anchors, "none")
        if not rel.sort_fields:
            raise ValidationError("sort relation needs at least one sort field")
        for sort_field in rel.sort_fields:
            if not 0 <= sort_field.ordinal < len(types):
                raise _out_of_range("sort", sort_field.ordinal, len(types))
        return types
    if isinstance(rel, ReadRel):
        if not rel.projection:
            raise ValidationError("read relation must project at least one column")
        width = len(rel.base_schema.types)
        for ordinal in rel.projection:
            if not 0 <= ordinal < width:
                raise _out_of_range("read projection", ordinal, width)
        types = rel.output_types()
        if rel.best_effort_filter is not None:
            _check_condition("best-effort filter", rel.best_effort_filter, types, anchors)
        return types
    if isinstance(rel, FilterRel):
        types = _check_rel(rel.input, anchors, "none")
        # A pushed filter usually doubles as its read's best-effort filter:
        # an equal tree was just checked over these same types.
        read = rel.input
        if not (isinstance(read, ReadRel) and read.best_effort_filter == rel.condition):
            _check_condition("filter condition", rel.condition, types, anchors)
        return types
    if isinstance(rel, ProjectRel):
        types = _check_rel(rel.input, anchors, "none")
        if not rel.expressions_:
            raise ValidationError("project relation must emit at least one expression")
        return [_check_expr(e, types, anchors) for e in rel.expressions_]
    if isinstance(rel, AggregateRel):
        types = _check_rel(rel.input, anchors, "none")
        for ordinal in rel.grouping:
            if not 0 <= ordinal < len(types):
                raise _out_of_range("grouping", ordinal, len(types))
        # A mix of partial and single-phase measures cannot be merged by
        # one residual final aggregation (an AVG shipped single-phase next
        # to a partial SUM has no mergeable state).
        phases = {measure.phase for measure in rel.measures}
        if len(phases) > 1:
            raise ValidationError(
                f"aggregate measures mix phases {sorted(phases)}; all "
                f"measures must split consistently"
            )
        out = [types[i] for i in rel.grouping]
        for measure in rel.measures:
            _check_measure(measure, types, anchors)
            out.extend(measure.output_types())
        return out
    raise ValidationError(f"unknown relation node {type(rel).__name__}")
