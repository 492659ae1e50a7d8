"""Unit tests for the OCS system: embedded engine, storage node, frontend."""

import numpy as np
import pytest

from repro.arrowsim import (
    BOOL,
    ColumnArray,
    FLOAT64,
    Field,
    INT64,
    RecordBatch,
    STRING,
    Schema,
)
from repro.arrowsim.ipc import deserialize_batches
from repro.config import DEFAULT_TESTBED
from repro.arrowsim.record_batch import concat_batches
from repro.errors import FormatError, OcsPlanRejectedError
from repro.exec.operators import FilterOperator, run_operators
from repro.formats import ParcelReader, write_table
from repro.objectstore import ObjectStore
from repro.ocs import EmbeddedEngine, OcsFrontend, OcsStorageNode, PushdownRequest
from repro.ocs.embedded_engine import _extract_range_bounds, _positional, lower_expression
from repro.ocs.frontend import decode_response, encode_request, encode_response
from repro.rpc import RpcClient
from repro.sim import DEFAULT_COSTS, Link, SimNode, Simulator
from repro.substrait import (
    AggregateMeasure,
    AggregateRel,
    FetchRel,
    FilterRel,
    FunctionRegistry,
    NamedStruct,
    ProjectRel,
    ReadRel,
    SFieldRef,
    SFunctionCall,
    SLiteral,
    SortField,
    SortRel,
    SubstraitPlan,
    serialize_plan,
)
from repro.trace import Tracer

SCHEMA = Schema(
    [
        Field("id", INT64, nullable=False),
        Field("x", FLOAT64, nullable=False),
        Field("grp", STRING, nullable=False),
    ]
)


@pytest.fixture()
def store():
    s = ObjectStore()
    s.create_bucket("data")
    rng = np.random.default_rng(7)
    for f in range(2):
        n = 200
        batch = RecordBatch(
            SCHEMA,
            [
                ColumnArray(INT64, np.arange(f * n, (f + 1) * n)),
                ColumnArray(FLOAT64, np.sort(rng.random(n))),
                ColumnArray(
                    STRING, np.array([f"g{i % 4}" for i in range(n)], dtype=object)
                ),
            ],
        )
        s.put_object("data", f"t/part-{f}.parcel", write_table([batch], row_group_rows=50))
    return s


@pytest.fixture()
def engine(store):
    return EmbeddedEngine(store, DEFAULT_COSTS)


def base_struct():
    return NamedStruct.from_schema(SCHEMA)


KEYS = ["t/part-0.parcel", "t/part-1.parcel"]


class TestEmbeddedEngine:
    def test_read_only(self, engine):
        plan = SubstraitPlan(root=ReadRel("t", base_struct(), (0, 1)))
        batches, report = engine.execute(plan, "data", KEYS)
        assert sum(b.num_rows for b in batches) == 400
        assert report.rows_scanned == 400
        assert report.stored_bytes_read > 0
        assert report.scan_cycles > 0

    def test_filter(self, engine):
        registry = FunctionRegistry()
        lt = registry.anchor_for("lt", [INT64, INT64])
        read = ReadRel("t", base_struct(), (0,))
        cond = SFunctionCall(lt, (SFieldRef(0, INT64), SLiteral(50, INT64)), BOOL)
        plan = SubstraitPlan(root=FilterRel(read, cond), registry=registry)
        batches, report = engine.execute(plan, "data", KEYS)
        assert sum(b.num_rows for b in batches) == 50
        assert report.rows_returned == 50

    def test_best_effort_filter_prunes_row_groups(self, engine):
        registry = FunctionRegistry()
        lt = registry.anchor_for("lt", [INT64, INT64])
        cond = SFunctionCall(lt, (SFieldRef(0, INT64), SLiteral(40, INT64)), BOOL)
        read = ReadRel("t", base_struct(), (0,), best_effort_filter=cond)
        plan = SubstraitPlan(root=FilterRel(read, cond), registry=registry)
        _, report = engine.execute(plan, "data", KEYS)
        # ids are sorted across row groups: only the first 50-row group of
        # the first file can contain ids < 40.
        assert report.row_groups_pruned == 7
        assert report.row_groups_read == 1

    def test_project(self, engine):
        registry = FunctionRegistry()
        mul = registry.anchor_for("multiply", [FLOAT64, FLOAT64])
        read = ReadRel("t", base_struct(), (1,))
        expr = SFunctionCall(
            mul, (SFieldRef(0, FLOAT64), SLiteral(2.0, FLOAT64)), FLOAT64
        )
        plan = SubstraitPlan(root=ProjectRel(read, (expr,)), registry=registry)
        batches, report = engine.execute(plan, "data", KEYS)
        assert batches[0].schema.names() == ["c0"]
        assert report.compute_cycles > 0

    def test_aggregate_single(self, engine):
        registry = FunctionRegistry()
        s = registry.anchor_for("sum", [INT64])
        read = ReadRel("t", base_struct(), (2, 0))
        agg = AggregateRel(
            read, (0,),
            (AggregateMeasure(s, "sum", (SFieldRef(1, INT64),), INT64),),
        )
        plan = SubstraitPlan(root=agg, registry=registry, root_names=["grp", "total"])
        batches, _ = engine.execute(plan, "data", KEYS)
        out = batches[0].to_pydict()
        assert sorted(out["grp"]) == ["g0", "g1", "g2", "g3"]
        assert sum(out["total"]) == sum(range(400))

    def test_aggregate_partial_avg_state(self, engine):
        registry = FunctionRegistry()
        a = registry.anchor_for("avg", [FLOAT64])
        read = ReadRel("t", base_struct(), (2, 1))
        agg = AggregateRel(
            read, (0,),
            (AggregateMeasure(a, "avg", (SFieldRef(1, FLOAT64),), FLOAT64, phase="partial"),),
        )
        plan = SubstraitPlan(root=agg, registry=registry)
        batches, _ = engine.execute(plan, "data", KEYS)
        assert len(batches[0].schema) == 3  # key + (sum, count)

    def test_topn_fusion(self, engine):
        read = ReadRel("t", base_struct(), (0, 1))
        topn = FetchRel(SortRel(read, (SortField(1, descending=True),)), 0, 5)
        plan = SubstraitPlan(root=topn)
        batches, _ = engine.execute(plan, "data", KEYS)
        xs = batches[0].to_pydict()["c1"]
        assert len(xs) == 5
        assert xs == sorted(xs, reverse=True)

    def test_sort(self, engine):
        read = ReadRel("t", base_struct(), (1,))
        plan = SubstraitPlan(root=SortRel(read, (SortField(0, False),)))
        batches, _ = engine.execute(plan, "data", KEYS)
        xs = batches[0].to_pydict()["c0"]
        assert xs == sorted(xs)

    def test_fetch_offset(self, engine):
        read = ReadRel("t", base_struct(), (0,))
        plan = SubstraitPlan(root=FetchRel(SortRel(read, (SortField(0, False),)), 10, 5))
        batches, _ = engine.execute(plan, "data", KEYS)
        assert batches[0].to_pydict()["c0"] == list(range(10, 15))

    def test_missing_column_rejected(self, engine):
        other = NamedStruct(("nope",), (INT64,), (False,))
        plan = SubstraitPlan(root=ReadRel("t", other, (0,)))
        with pytest.raises(OcsPlanRejectedError):
            engine.execute(plan, "data", KEYS)

    def test_root_names_applied(self, engine):
        plan = SubstraitPlan(
            root=ReadRel("t", base_struct(), (0, 1)), root_names=["a", "b"]
        )
        batches, _ = engine.execute(plan, "data", KEYS)
        assert batches[0].schema.names() == ["a", "b"]

    def test_root_names_width_mismatch_rejected(self, engine):
        plan = SubstraitPlan(
            root=ReadRel("t", base_struct(), (0, 1)), root_names=["only"]
        )
        with pytest.raises(OcsPlanRejectedError, match="plan names 1 columns"):
            engine.execute(plan, "data", KEYS)


class TestFooterMemo:
    """Each stored object's footer is parsed once; a re-PUT parses again."""

    @staticmethod
    def _batch(n, start):
        return RecordBatch(
            SCHEMA,
            [
                ColumnArray(INT64, np.arange(start, start + n)),
                ColumnArray(FLOAT64, np.linspace(0.0, 1.0, n)),
                ColumnArray(STRING, np.array(["g"] * n, dtype=object)),
            ],
        )

    def test_footer_is_parsed_once_per_object(self, engine, store, monkeypatch):
        import repro.formats.reader as reader

        parses = []
        decode = reader.decode_footer
        monkeypatch.setattr(
            reader, "decode_footer", lambda buf: parses.append(1) or decode(buf)
        )
        plan = SubstraitPlan(root=ReadRel("t", base_struct(), (0,)))
        for _ in range(3):
            engine.execute(plan, "data", KEYS)
        assert len(parses) == len(KEYS)

    def test_reput_is_read_with_its_new_footer(self, engine, store):
        plan = SubstraitPlan(root=ReadRel("t", base_struct(), (0,)))
        engine.execute(plan, "data", KEYS)  # memoise both footers
        store.put_object(
            "data", KEYS[0], write_table([self._batch(30, 1000)], row_group_rows=7)
        )
        batches, report = engine.execute(plan, "data", KEYS[:1])
        assert batches[0].to_pydict()["c0"] == list(range(1000, 1030))
        assert report.row_groups_read == 5

    def test_corrupted_reput_still_fails(self, engine, store):
        plan = SubstraitPlan(root=ReadRel("t", base_struct(), (0,)))
        engine.execute(plan, "data", KEYS)
        good = write_table([self._batch(30, 0)])
        # Valid head magic, damaged footer-length word in the tail.
        store.put_object("data", KEYS[0], good[:-8] + b"\xff\xff\xff\x7f" + good[-4:])
        with pytest.raises(FormatError):
            engine.execute(plan, "data", KEYS[:1])
        store.put_object("data", KEYS[0], b"NOPE" + good[4:])
        with pytest.raises(FormatError):
            engine.execute(plan, "data", KEYS[:1])


def _decode_all_then_filter(store, plan, bucket, keys):
    """The reference: decode every requested column of every row, then run
    the plan's filters bottom-up; also the innermost filter's pruning
    bounds, predicate and the column count it reads (at least one)."""
    filters = []
    rel = plan.root
    while isinstance(rel, FilterRel):
        filters.append(rel)
        rel = rel.input
    assert isinstance(rel, ReadRel), type(rel).__name__
    columns, types = rel.output_names(), rel.output_types()
    batches = [
        _positional(ParcelReader(store.bucket(bucket).get(key).data).read_table(columns))
        for key in keys
    ]
    predicates = [
        lower_expression(f.condition, types, plan.registry) for f in reversed(filters)
    ]
    for predicate in predicates:
        batches = run_operators(batches, [FilterOperator(predicate)])
    bounds = {}
    if rel.best_effort_filter is not None:
        lowered = lower_expression(rel.best_effort_filter, types, plan.registry)
        for name, bound in _extract_range_bounds(lowered).items():
            bounds[columns[int(name[1:])]] = bound
    return concat_batches(batches), rel, bounds, predicates[0]


def _late_materialised_values(store, read, bounds, predicate, bucket, keys):
    """rows x predicate columns + survivors x other columns, over the row
    groups min/max pruning keeps."""
    columns = read.output_names()
    reads = len(predicate.column_refs()) or 1
    values = 0
    for key in keys:
        reader = ParcelReader(store.bucket(bucket).get(key).data)
        for rg in range(reader.num_row_groups):
            if not all(
                reader.row_group_stats(rg, name).range_may_overlap(low, high)
                for name, (low, high) in bounds.items()
            ):
                continue
            batch = _positional(reader.read_row_group(rg, columns))
            kept = int(FilterOperator(predicate).mask(batch).sum())
            values += batch.num_rows * reads + kept * (len(columns) - reads)
    return values


class TestLateMaterialisation:
    """Read -> Filter decodes the columns the condition does not read only
    at the rows it keeps, and charges decode per value materialised."""

    @pytest.fixture(scope="class")
    def captured(self):
        import dataclasses

        from repro.bench.env import Environment, RunConfig
        from repro.core import PushdownPolicy
        from repro.workloads import (
            DEEPWATER_QUERY, LAGHOS_QUERY, TPCH_Q3, TPCH_Q6, customer_spec,
            deepwater_spec, laghos_spec, lineitem_spec, orders_spec,
        )

        plans = []
        original = EmbeddedEngine.execute

        def spy(engine, plan, bucket, keys):
            plans.append((engine.store, plan, bucket, tuple(keys)))
            return original(engine, plan, bucket, keys)

        env = Environment()
        for spec in (
            laghos_spec(2, 3_000, 1, row_group_rows=512),
            deepwater_spec(2, 3_000, 1, row_group_rows=512),
            lineitem_spec(2, 3_000, 1, row_group_rows=512),
            orders_spec(2, 1_500, 1, row_group_rows=512),
            customer_spec(1, 500, 1, row_group_rows=512),
        ):
            env.add_dataset(spec)
        filters = RunConfig(label="filter", mode="ocs", policy=PushdownPolicy.filter_only())
        dynamic = dataclasses.replace(
            filters, policy=dataclasses.replace(filters.policy, dynamic_filters=True)
        )
        out = {}
        for name, sql, schema, config in (
            ("laghos", LAGHOS_QUERY, "hpc", filters),
            ("deepwater", DEEPWATER_QUERY, "hpc", filters),
            ("q6", TPCH_Q6, "tpch", filters),
            ("q3-dynamic", TPCH_Q3, "tpch", dynamic),
        ):
            EmbeddedEngine.execute = spy
            try:
                env.run(sql, config, schema)
            finally:
                EmbeddedEngine.execute = original
            out[name] = list(plans)
            plans.clear()
        return out

    @pytest.mark.parametrize("query", ["laghos", "deepwater", "q6", "q3-dynamic"])
    def test_batches_and_decode_charge(self, captured, query):
        assert captured[query]
        bloom = False
        for store, plan, bucket, keys in captured[query]:
            batches, report = EmbeddedEngine(store, DEFAULT_COSTS).execute(plan, bucket, keys)
            expected, read, bounds, inner = _decode_all_then_filter(store, plan, bucket, keys)
            (got,) = batches if batches else (None,)
            assert got is not None and got.num_rows == expected.num_rows
            assert all(a.equals(b) for a, b in zip(got.columns, expected.columns))
            values = _late_materialised_values(store, read, bounds, inner, bucket, keys)
            assert report.scan_cycles == pytest.approx(
                report.stored_bytes_read * DEFAULT_COSTS.ocs_scan_cycles_per_stored_byte
                + values * DEFAULT_COSTS.ocs_decode_cycles_per_value,
                rel=1e-12,
            )
            # Fewer values than decoding every requested column in full.
            assert values < report.rows_scanned * len(read.output_names())
            bloom = bloom or report.dynamic_rows_pruned > 0
        assert bloom == (query == "q3-dynamic")

    def test_condition_reading_no_column(self, engine):
        # A constant condition is evaluated beside the first column.
        read = ReadRel("t", base_struct(), (0, 1, 2))
        plan = SubstraitPlan(root=FilterRel(read, SLiteral(True, BOOL)))
        batches, report = engine.execute(plan, "data", KEYS[:1])
        assert batches[0].num_rows == report.rows_scanned == 200
        assert report.scan_cycles == pytest.approx(
            report.stored_bytes_read * DEFAULT_COSTS.ocs_scan_cycles_per_stored_byte
            + 200 * 3 * DEFAULT_COSTS.ocs_decode_cycles_per_value
        )


def _false_type_plans():
    """Well-formed plans whose declared types are false.

    Each one, run anyway, returns wrong values or fails untyped: an INT64
    ``add`` truncates ``x + 0.5`` to zeros, a STRING one stringifies it, a
    FLOAT64 ref to ``grp`` compares strings with floats, ``sum(grp)`` adds
    strings, and a sort under a filter is read as a top-N.
    """
    def read(*projection):
        return ReadRel("t", base_struct(), projection)

    def plan(root, registry):
        return SubstraitPlan(root=root, registry=registry)

    def add_declared(dtype):
        registry = FunctionRegistry()
        add = registry.anchor_for("add", [FLOAT64, FLOAT64])
        call = SFunctionCall(add, (SFieldRef(0, FLOAT64), SLiteral(0.5, FLOAT64)), dtype)
        return plan(ProjectRel(read(1), (call,)), registry)

    def measure(function, arg_dtype, ordinal, output):
        registry = FunctionRegistry()
        arg_types = [] if arg_dtype is None else [arg_dtype]
        args = () if arg_dtype is None else (SFieldRef(0, arg_dtype),)
        anchor = registry.anchor_for(function, arg_types)
        agg = AggregateRel(
            read(ordinal), (), (AggregateMeasure(anchor, function, args, output),)
        )
        return plan(agg, registry)

    def gt_filter(ordinal, ref_dtype=FLOAT64, anchor_types=(FLOAT64, FLOAT64), sort=False):
        registry = FunctionRegistry()
        gt = registry.anchor_for("gt", list(anchor_types))
        cond = SFunctionCall(gt, (SFieldRef(0, ref_dtype), SLiteral(0.5, FLOAT64)), BOOL)
        if sort:
            source = SortRel(read(ordinal), (SortField(0, descending=True),))
            return plan(FetchRel(FilterRel(source, cond), 0, 5), registry)
        return plan(FilterRel(read(ordinal), cond), registry)

    return {
        "add-declared-int64": add_declared(INT64),
        "add-declared-string": add_declared(STRING),
        "float-ref-over-string": gt_filter(2),
        "sum-over-string": measure("sum", STRING, 2, INT64),
        "sort-under-filter": gt_filter(1, sort=True),
        "count-declared-string": measure("count", None, 0, STRING),
        "min-fp64-declared-int64": measure("min", FLOAT64, 1, INT64),
        "anchor-mismatch": gt_filter(1, anchor_types=(INT64, INT64)),
    }


FALSE_TYPE_PLANS = _false_type_plans()


class TestFrontendAndStorage:
    @pytest.fixture()
    def cluster(self, store):
        sim = Simulator()
        testbed = DEFAULT_TESTBED
        compute = SimNode(sim, testbed.compute)
        frontend_node = SimNode(sim, testbed.frontend)
        storage_sim = SimNode(sim, testbed.storage)
        link_cf = Link(sim, 1.25e9, 1e-4, name="cf")
        link_fs = Link(sim, 1.25e9, 1e-4, name="fs")
        tracer = Tracer(clock=lambda: sim.now)
        storage = OcsStorageNode(sim, storage_sim, store, DEFAULT_COSTS, tracer=tracer)
        frontend = OcsFrontend(
            sim, frontend_node, [storage], [link_fs], DEFAULT_COSTS, tracer=tracer
        )
        client = RpcClient(sim, compute, link_cf, frontend.service, DEFAULT_COSTS, tracer)
        return sim, client, frontend, storage, link_cf

    def test_roundtrip_through_rpc(self, cluster):
        sim, client, frontend, storage, link_cf = cluster
        plan = SubstraitPlan(root=ReadRel("t", base_struct(), (0,)))
        request = encode_request(
            PushdownRequest(serialize_plan(plan), "data", tuple(KEYS), 0)
        )
        response = sim.run(until=client.call(OcsFrontend.METHOD, request))
        arrow, report = decode_response(response)
        batches = deserialize_batches(arrow)
        assert sum(b.num_rows for b in batches) == 400
        assert report.rows_scanned == 400
        served = [s.name for s in frontend.tracer.spans()]
        assert served.count("ocs-frontend.server:ocs.execute") == 1
        assert storage.plans_executed == 1
        assert sim.now > 0
        # Results crossed the compute<->frontend link.
        assert link_cf.ledger.total_bytes(dst="compute") > len(arrow)

    def test_invalid_plan_becomes_rpc_error(self, cluster):
        sim, client, *_ = cluster
        plan = SubstraitPlan(root=ReadRel("t", base_struct(), (0, 9)))
        request = encode_request(
            PushdownRequest(serialize_plan(plan), "data", tuple(KEYS), 0)
        )
        from repro.errors import RpcStatusError

        with pytest.raises(RpcStatusError):
            sim.run(until=client.call(OcsFrontend.METHOD, request))

    def test_bad_node_index_rejected(self, cluster):
        sim, client, *_ = cluster
        plan = SubstraitPlan(root=ReadRel("t", base_struct(), (0,)))
        request = encode_request(
            PushdownRequest(serialize_plan(plan), "data", tuple(KEYS), 5)
        )
        from repro.errors import RpcStatusError

        with pytest.raises(RpcStatusError):
            sim.run(until=client.call(OcsFrontend.METHOD, request))

    @pytest.mark.parametrize(
        "payload",
        [
            b"OCRQ\xff",  # truncated request frame -> OcsError
            # Whole request, forged plan (1000 nested filters) -> SerdeError.
            encode_request(
                PushdownRequest(b"SBP1\x00\x01\x00\x00" + b"\x02" * 1000, "data", tuple(KEYS), 0)
            ),
        ],
        ids=["truncated-request", "forged-plan-depth"],
    )
    def test_malformed_frame_surfaces_as_internal_status(self, cluster, payload):
        sim, client, *_ = cluster
        from repro.errors import RpcStatusError, StatusCode

        with pytest.raises(RpcStatusError) as caught:
            sim.run(until=client.call(OcsFrontend.METHOD, payload))
        assert caught.value.code == StatusCode.INTERNAL

    @pytest.mark.parametrize("case", sorted(FALSE_TYPE_PLANS))
    def test_plan_with_false_types_never_reaches_storage(self, cluster, case):
        sim, client, frontend, storage, _ = cluster
        from repro.errors import RpcStatusError, StatusCode, ValidationError

        request = encode_request(
            PushdownRequest(serialize_plan(FALSE_TYPE_PLANS[case]), "data", tuple(KEYS), 0)
        )
        with pytest.raises(RpcStatusError) as caught:
            sim.run(until=client.call(OcsFrontend.METHOD, request))
        assert caught.value.code == StatusCode.INTERNAL
        assert isinstance(caught.value.__cause__, ValidationError)
        assert storage.plans_executed == 0
        assert storage.node.disk_bytes_read == 0
        assert storage.node.cpu_seconds_charged == 0
        assert frontend.storage_links[0].ledger.total_bytes(label="plan-dispatch") == 0

    def test_storage_charges_disk_and_cpu(self, cluster):
        sim, client, frontend, storage, _ = cluster
        plan = SubstraitPlan(root=ReadRel("t", base_struct(), (0, 1, 2)))
        request = encode_request(
            PushdownRequest(serialize_plan(plan), "data", tuple(KEYS), 0)
        )
        sim.run(until=client.call(OcsFrontend.METHOD, request))
        assert storage.node.disk_bytes_read > 0
        assert storage.node.cpu_seconds_charged > 0


class TestFrameBounds:
    """Fuzz-style decoding tests: every truncation of a valid frame must
    raise a typed OcsError, never IndexError/struct noise or a silently
    misparsed request."""

    def _request_frame(self) -> bytes:
        return encode_request(
            PushdownRequest(b"\x01\x02plan-bytes" * 3, "bucket", ("k/0", "k/1"), 1)
        )

    def _response_frame(self) -> bytes:
        from repro.ocs.embedded_engine import OcsCostReport

        report = OcsCostReport(
            stored_bytes_read=1234,
            uncompressed_bytes=5678,
            rows_scanned=100,
            rows_returned=7,
            row_groups_pruned=3,
            row_groups_read=1,
            compute_cycles=99.0,
        )
        return encode_response(b"arrow-ipc-payload" * 4, report)

    def test_request_roundtrip(self):
        from repro.ocs.frontend import decode_request

        frame = self._request_frame()
        decoded = decode_request(frame)
        assert decoded.bucket == "bucket"
        assert decoded.keys == ("k/0", "k/1")
        assert decoded.node_index == 1

    def test_every_request_truncation_raises_typed_error(self):
        from repro.errors import OcsError
        from repro.ocs.frontend import decode_request

        frame = self._request_frame()
        for cut in range(len(frame)):
            with pytest.raises(OcsError):
                decode_request(frame[:cut])

    def test_every_response_truncation_raises_typed_error(self):
        from repro.errors import OcsError

        frame = self._response_frame()
        for cut in range(len(frame)):
            with pytest.raises(OcsError):
                decode_response(frame[:cut])

    def test_bad_magic_rejected(self):
        from repro.errors import OcsError
        from repro.ocs.frontend import decode_request

        frame = bytearray(self._request_frame())
        frame[0] ^= 0xFF
        with pytest.raises(OcsError):
            decode_request(bytes(frame))
        resp = bytearray(self._response_frame())
        resp[3] ^= 0xFF
        with pytest.raises(OcsError):
            decode_response(bytes(resp))

    def test_oversized_length_prefix_rejected(self):
        # A length claiming more bytes than the frame holds must not
        # silently slice short.
        from repro.compress.codec import encode_varint
        from repro.errors import OcsError
        from repro.ocs.frontend import decode_request

        frame = b"OCRQ" + encode_varint(10_000) + b"tiny"
        with pytest.raises(OcsError):
            decode_request(frame)

    def test_malformed_utf8_rejected(self):
        from repro.compress.codec import encode_varint
        from repro.errors import OcsError
        from repro.ocs.frontend import decode_request

        # plan of length 0, then a "bucket" whose bytes are invalid UTF-8.
        frame = (
            b"OCRQ" + encode_varint(0) + encode_varint(2) + b"\xff\xfe"
            + encode_varint(0) + encode_varint(0)
        )
        with pytest.raises(OcsError):
            decode_request(frame)
