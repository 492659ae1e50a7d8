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
from repro.errors import OcsPlanRejectedError
from repro.formats import write_table
from repro.objectstore import ObjectStore
from repro.ocs import EmbeddedEngine, OcsFrontend, OcsStorageNode, PushdownRequest
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
        with pytest.raises(Exception):
            engine.execute(plan, "data", KEYS)


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
        assert frontend.requests_served == 1
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
