"""Distributed exchange, hash joins, and dynamic-filter pushdown.

Unit layers (partitioning, Bloom/dynamic filters, the join operator, the
shuffle fabric under faults) plus the end-to-end properties: all
pushdown modes return identical results (which SQLite referees in
tests/test_sqlite_referee.py), the dynamic filter moves strictly less
data than static pushdown, multi-stage replays are digest-identical, and
the service layer accepts join submissions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.determinism import check_determinism
from repro.analysis.verifier import (
    verify_exchange_boundary,
    verify_logical_plan,
)
from repro.arrowsim.array import ColumnArray
from repro.arrowsim.dtypes import FLOAT64, INT64, STRING
from repro.arrowsim.record_batch import RecordBatch, concat_batches
from repro.arrowsim.schema import Field, Schema
from repro.bench.env import Environment, RunConfig
from repro.config import FaultSpec, NodeSpec, ServiceSpec
from repro.core import PushdownPolicy
from repro.engine.costing import choose_join_distribution
from repro.errors import (
    AnalysisError,
    ExchangeFaultError,
    ExchangePartitionError,
    JoinError,
    PlanError,
    VerificationError,
)
from repro.engine import Cluster, Coordinator, Session
from repro.engine.scheduler import SchedulerSpec
from repro.exchange import (
    BloomFilter,
    ExchangeFabric,
    build_dynamic_filter,
    hash_partition,
    partition_indices,
)
from repro.exec.operators import HashJoinOperator, run_operators
from repro.plan.nodes import JoinNode, TableScanNode
from repro.rpc import RpcClient
from repro.rpc.retry import RetryPolicy
from repro.service import JobStatus, QueryService
from repro.sim import DEFAULT_COSTS, Link, SimNode, Simulator
from repro.sim.faults import FaultInjector
from repro.sql import analyze, parse
from repro.sql.ast_nodes import TableName
from repro.trace import Tracer, counter_totals
from repro.workloads import (
    TPCH_Q3,
    TPCH_Q3_FULL,
    TPCH_Q4,
    TPCH_Q12,
    TPCH_Q18,
    DatasetSpec,
    generate_lineitem,
    generate_orders,
)

STATIC = RunConfig(
    label="static", mode="ocs", policy=PushdownPolicy.filter_only()
)
DYNAMIC = RunConfig(
    label="dynamic",
    mode="ocs",
    policy=PushdownPolicy(enabled=frozenset({"filter"}), dynamic_filters=True),
)


# --------------------------------------------------------------------------
# Partitioning
# --------------------------------------------------------------------------


class TestHashPartition:
    def _batch(self, n=1000, seed=0):
        rng = np.random.default_rng(seed)
        schema = Schema([Field("k", INT64), Field("v", FLOAT64)])
        return RecordBatch.from_pydict(
            schema,
            {"k": rng.integers(0, 200, n), "v": rng.random(n)},
        )

    def test_partitions_preserve_rows_and_agree_with_indices(self):
        batch = self._batch()
        parts = hash_partition(batch, ["k"], 4)
        assert len(parts) == 4
        assert sum(p.num_rows for p in parts) == batch.num_rows
        expected = partition_indices(batch, ["k"], 4)
        for index, part in enumerate(parts):
            keys = np.asarray(part.column("k").values)
            source = np.asarray(batch.column("k").values)
            # Every key in partition i hashes to i.
            for key in np.unique(keys):
                rows = np.flatnonzero(source == key)
                assert (expected[rows] == index).all()

    def test_same_key_lands_in_same_partition_across_batches(self):
        a, b = self._batch(seed=1), self._batch(seed=2)
        pa = partition_indices(a, ["k"], 8)
        pb = partition_indices(b, ["k"], 8)
        mapping = {}
        for batch, assignment in ((a, pa), (b, pb)):
            for key, part in zip(batch.column("k").values, assignment):
                assert mapping.setdefault(int(key), int(part)) == int(part)

    def test_row_order_within_partition_is_input_order(self):
        batch = self._batch()
        assignment = partition_indices(batch, ["k"], 4)
        parts = hash_partition(batch, ["k"], 4)
        for index, part in enumerate(parts):
            rows = np.flatnonzero(assignment == index)
            np.testing.assert_array_equal(
                np.asarray(part.column("v").values),
                np.asarray(batch.column("v").values)[rows],
            )


# --------------------------------------------------------------------------
# Bloom / dynamic filters
# --------------------------------------------------------------------------


class TestDynamicFilter:
    def test_bloom_has_no_false_negatives(self):
        rng = np.random.default_rng(3)
        members = rng.integers(0, 1_000_000, 5_000)
        schema = Schema([Field("k", INT64)])
        batch = RecordBatch.from_pydict(schema, {"k": members})
        bloom = BloomFilter.build(batch.column("k"))
        assert bool(bloom.contains(batch.column("k")).all())
        # Disjoint values mostly miss (10 bits/key => ~1% fp target).
        others = RecordBatch.from_pydict(
            schema, {"k": rng.integers(2_000_000, 3_000_000, 5_000)}
        )
        assert float(np.mean(bloom.contains(others.column("k")))) < 0.05

    def test_expression_keeps_all_joinable_rows(self):
        schema = Schema([Field("k", INT64)])
        build = RecordBatch.from_pydict(schema, {"k": np.arange(100, 200)})
        dyn = build_dynamic_filter([build], "k")
        assert dyn.build_rows == 100
        assert dyn.distinct_keys == 100
        expr = dyn.to_expression("k", INT64)
        probe = RecordBatch.from_pydict(schema, {"k": np.arange(0, 400)})
        mask = np.asarray(expr.evaluate(probe).values, dtype=bool)
        keys = np.arange(0, 400)
        joinable = (keys >= 100) & (keys < 200)
        # No false negatives; everything outside [min, max] is cut.
        assert mask[joinable].all()
        assert not mask[keys < 100].any()
        assert not mask[keys >= 200].any()

    def test_empty_build_batches_reject_everything(self):
        schema = Schema([Field("k", INT64)])
        empty = RecordBatch.from_pydict(schema, {"k": np.array([], dtype=np.int64)})
        dyn = build_dynamic_filter([empty], "k")
        expr = dyn.to_expression("k", INT64)
        probe = RecordBatch.from_pydict(schema, {"k": np.arange(10)})
        assert not np.asarray(expr.evaluate(probe).values, dtype=bool).any()

    def test_no_batches_at_all_is_an_error(self):
        with pytest.raises(JoinError):
            build_dynamic_filter([], "k")


def _scatter_bloom_bits(column: ColumnArray) -> bytes:
    """The Bloom bits as six ``bitwise_or.at`` scatters set them."""
    from repro.exchange.hashing import hash_column

    hashed = np.unique(hash_column(column)[column.is_valid()])
    target = max(1024, 10 * max(1, len(hashed)))
    num_bits = 1 << int(target - 1).bit_length()
    array = np.zeros(num_bits // 8, dtype=np.uint8)
    for position in BloomFilter._positions(hashed, num_bits):
        np.bitwise_or.at(array, position >> 3, np.uint8(1) << (position & np.uint64(7)))
    return array.tobytes()


_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), float("inf")]),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestBloomBuild:
    """The packed-bitmap build sets exactly the scatter build's bits."""

    @settings(max_examples=60, deadline=None)
    @given(
        column=st.one_of(
            st.lists(st.integers(-(2**63), 2**63 - 1), max_size=300).map(
                lambda v: (INT64, v)
            ),
            st.lists(_FLOATS, max_size=300).map(lambda v: (FLOAT64, v)),
            st.lists(st.text(max_size=6), max_size=200).map(lambda v: (STRING, v)),
        ),
        nulls=st.lists(st.booleans(), max_size=300),
    )
    def test_bits_equal_the_scatter_construction(self, column, nulls):
        dtype, values = column
        validity = np.array(
            [not (nulls[i] if i < len(nulls) else False) for i in range(len(values))],
            dtype=bool,
        )
        array = ColumnArray(dtype, np.array(values, dtype=dtype.numpy_dtype or object),
                            validity if len(values) else None)
        bloom = BloomFilter.build(array)
        assert bloom.bits == _scatter_bloom_bits(array)
        assert bloom.num_bits == len(bloom.bits) * 8


# --------------------------------------------------------------------------
# Hash-join operator vs a python oracle
# --------------------------------------------------------------------------

LEFT_SCHEMA = Schema([Field("k", INT64), Field("lv", FLOAT64)])
RIGHT_SCHEMA = Schema([Field("k", INT64), Field("rv", STRING)])


def _oracle_join(left, right, kind):
    """Nested-loop reference join, probe (left) order preserved."""
    out = []
    for lk, lv in zip(left["k"], left["lv"]):
        matches = [
            rv for rk, rv in zip(right["k"], right["rv"]) if rk == lk
        ]
        if matches:
            out.extend((lk, lv, rv) for rv in matches)
        elif kind == "left":
            out.append((lk, lv, None))
    return out


class TestHashJoinOperator:
    @pytest.mark.parametrize("kind", ["inner", "left"])
    def test_matches_oracle(self, kind):
        rng = np.random.default_rng(7)
        left = {
            "k": rng.integers(0, 30, 200).tolist(),
            "lv": rng.random(200).round(6).tolist(),
        }
        right = {
            "k": rng.integers(10, 40, 60).tolist(),
            "rv": [f"r{i}" for i in range(60)],
        }
        op = HashJoinOperator(
            kind=kind,
            left_keys=["k"],
            right_keys=["k"],
            right_schema=RIGHT_SCHEMA,
            right_renames={"k": "right$k"},
        )
        op.add_build(RecordBatch.from_pydict(RIGHT_SCHEMA, right))
        op.finish_build()
        probe = RecordBatch.from_pydict(LEFT_SCHEMA, left)
        out = run_operators([probe], [op])
        got = concat_batches(out).to_pydict()
        expected = _oracle_join(left, right, kind)
        assert list(zip(got["k"], got["lv"], got["rv"])) == expected
        # The right key column survives under its renamed label.
        assert "right$k" in got

    def test_empty_build_inner_join_is_empty(self):
        op = HashJoinOperator(
            kind="inner", left_keys=["k"], right_keys=["k"],
            right_schema=RIGHT_SCHEMA, right_renames={"k": "right$k"},
        )
        op.finish_build()
        probe = RecordBatch.from_pydict(
            LEFT_SCHEMA, {"k": [1, 2], "lv": [0.5, 1.5]}
        )
        out = run_operators([probe], [op])
        assert sum(b.num_rows for b in out) == 0


# --------------------------------------------------------------------------
# Cost-based distribution choice
# --------------------------------------------------------------------------


class TestDistributionChoice:
    def test_small_build_broadcasts(self):
        assert choose_join_distribution(
            build_rows=1_000, probe_rows=1_000_000, workers=4
        ) == "broadcast"

    def test_large_build_partitions(self):
        assert choose_join_distribution(
            build_rows=1_000_000, probe_rows=1_000_000, workers=4
        ) == "partitioned"

    def test_single_worker_always_broadcasts(self):
        assert choose_join_distribution(
            build_rows=10**9, probe_rows=1, workers=1
        ) == "broadcast"

    def test_crossover_scales_with_workers(self):
        # Replication cost is build_rows * workers: a build side cheap to
        # replicate 2 ways can be too expensive to replicate 16 ways.
        build, probe = 100_000, 500_000
        assert choose_join_distribution(build, probe, workers=2) == "broadcast"
        assert choose_join_distribution(build, probe, workers=16) == "partitioned"


# --------------------------------------------------------------------------
# SQL + plan verification
# --------------------------------------------------------------------------


class TestJoinAnalysis:
    def test_join_chain_analyzes_bottom_up(self):
        stmt = parse(
            "SELECT a FROM t JOIN u ON t.a = u.b JOIN v ON t.a = v.c"
        )
        query = analyze(
            stmt,
            Schema([Field("a", INT64)]),
            join_schemas=[
                Schema([Field("b", INT64)]),
                Schema([Field("c", INT64)]),
            ],
        )
        assert len(query.joins) == 2
        assert query.joins[0].left_keys == ("a",)
        assert query.joins[0].right_keys == ("b",)
        assert query.joins[1].right_keys == ("c",)
        # Join 1's left side is the accumulated scope of t ⋈ u.
        assert query.joins[1].left_schema.names() == ["a", "b"]
        # The single-join compat accessor only answers for 2-table plans.
        assert query.join is None

    def test_join_chain_schema_count_must_match(self):
        stmt = parse(
            "SELECT a FROM t JOIN u ON t.a = u.b JOIN v ON t.a = v.c"
        )
        with pytest.raises(AnalysisError, match="each of the 2 JOIN"):
            analyze(stmt, Schema([Field("a", INT64)]), Schema([Field("b", INT64)]))

    def test_join_without_right_schema_rejected(self):
        stmt = parse("SELECT a FROM t JOIN u ON t.a = u.b")
        with pytest.raises(AnalysisError, match="joined table's schema"):
            analyze(stmt, Schema([Field("a", INT64)]))

    def test_ambiguous_bare_column_rejected(self):
        stmt = parse("SELECT k FROM t JOIN u ON t.k = u.k")
        with pytest.raises(AnalysisError):
            analyze(stmt, Schema([Field("k", INT64)]), Schema([Field("k", INT64)]))


def _scan(name, schema):
    return TableScanNode(
        table=TableName(table=name), table_schema=schema, columns=schema.names()
    )


class TestJoinVerifier:
    def test_key_dtype_mismatch_rejected(self):
        join = JoinNode(
            left=_scan("l", Schema([Field("k", INT64), Field("a", FLOAT64)])),
            right=_scan("r", Schema([Field("k", STRING)])),
            kind="inner",
            left_keys=["k"],
            right_keys=["k"],
            right_renames={"k": "r$k"},
        )
        with pytest.raises(VerificationError, match="dtype mismatch"):
            verify_logical_plan(join)

    def test_valid_join_passes_and_types_output(self):
        join = JoinNode(
            left=_scan("l", Schema([Field("k", INT64), Field("a", FLOAT64)])),
            right=_scan("r", Schema([Field("k", INT64), Field("b", STRING)])),
            kind="left",
            left_keys=["k"],
            right_keys=["k"],
            right_renames={"k": "r$k", "b": "b"},
        )
        schema = verify_logical_plan(join)
        assert schema.names() == ["k", "a", "r$k", "b"]
        # LEFT join forces the build columns nullable.
        assert schema.field("b").nullable

    def test_exchange_boundary_scan_must_stay_synthetic(self):
        schema = Schema([Field("k", INT64)])
        clean = _scan("$join", schema)
        verify_exchange_boundary(clean)  # no handle: fine

        class FakeHandle:
            pass

        tainted = _scan("$join", schema)
        tainted.connector_handle = FakeHandle()
        with pytest.raises(VerificationError, match="exchange-boundary"):
            verify_exchange_boundary(tainted)


# --------------------------------------------------------------------------
# Shuffle fabric under faults (unit level)
# --------------------------------------------------------------------------


def _fabric(drop=0.0, seed=0):
    sim = Simulator()
    spec = NodeSpec(
        name="w", cores=4, clock_ghz=1.0, memory_gb=8,
        disk_bandwidth_bps=1e9, ipc_efficiency=1.0,
    )
    node = SimNode(sim, spec)
    faults = (
        FaultInjector(FaultSpec(link_drop_probability=drop, seed=seed))
        if drop
        else None
    )
    link = Link(sim, bandwidth_bps=1e9, latency_s=0.0001, faults=faults)
    tracer = Tracer(clock=lambda: sim.now)
    fabric = ExchangeFabric(sim, node, DEFAULT_COSTS, tracer)
    client = RpcClient(sim, node, link, fabric.service, DEFAULT_COSTS, tracer)
    return sim, fabric, client


def _page(seq):
    schema = Schema([Field("k", INT64)])
    return RecordBatch.from_pydict(schema, {"k": np.arange(seq * 10, seq * 10 + 10)})


class TestExchangeFabric:
    def test_drain_orders_by_sender_seq_and_counts(self):
        sim, fabric, client = _fabric()
        ex = fabric.create(2)

        def sender():
            # Out-of-order arrival: seq 1 before seq 0.
            yield from fabric.put(client, ex, 0, 0, 1, [_page(1)], RetryPolicy())
            yield from fabric.put(client, ex, 0, 0, 0, [_page(0)], RetryPolicy())
            return None

        sim.run(until=sim.process(sender()))
        result = fabric.drain(ex, 0)
        assert result.pages == 2
        assert result.rows == 20
        keys = [k for b in result.batches for k in b.column("k").values]
        assert keys == list(range(20))  # (sender, seq) order, not arrival
        assert fabric.drain(ex, 0).pages == 0  # drained

    def test_unknown_partition_rejected(self):
        _, fabric, _ = _fabric()
        ex = fabric.create(2)
        with pytest.raises(ExchangePartitionError):
            fabric.drain(ex, 5)

    def test_puts_retry_through_link_faults(self):
        sim, fabric, client = _fabric(drop=0.4, seed=11)
        ex = fabric.create(1)
        policy = RetryPolicy(max_attempts=8)
        span = fabric.tracer.start("exchange")

        def sender():
            for seq in range(8):
                yield from fabric.put(
                    client, ex, 0, 0, seq, [_page(seq)], policy, parent=span
                )
            return None

        sim.run(until=sim.process(sender()))
        trace = fabric.tracer.trace(span)
        retried = [
            s for s in trace.find("rpc:exchange.put") if s.attributes["attempt"] > 1
        ]
        # The drops really happened, each counted on the exchange span.
        assert counter_totals(trace).value("exchange_retries") == len(retried) > 0
        assert fabric.drain(ex, 0).rows == 80  # and every page landed

    def test_exhausted_retries_surface_as_exchange_fault(self):
        sim, fabric, client = _fabric(drop=0.95, seed=2)
        ex = fabric.create(1)
        policy = RetryPolicy(max_attempts=2, initial_backoff_s=0.001)

        def sender():
            for seq in range(20):
                yield from fabric.put(client, ex, 0, 0, seq, [_page(seq)], policy)
            return None

        with pytest.raises(ExchangeFaultError):
            sim.run(until=sim.process(sender()))

    def test_put_after_drain_is_a_counted_zombie_not_residue(self):
        """A put landing after the consumer drained must not leave residue.

        Regression: a deadline-abandoned server handler that finished
        *after* ``drain()`` used to insert its page into the emptied
        buffer, so a re-drain double-counted the rows and page metrics
        inflated.  The partition is now tombstoned at drain time and the
        late put is acked as a duplicate.
        """
        sim, fabric, client = _fabric()
        ex = fabric.create(1)

        def sender(seq):
            yield from fabric.put(client, ex, 0, 0, seq, [_page(seq)], RetryPolicy())
            return None

        sim.run(until=sim.process(sender(0)))
        assert fabric.drain(ex, 0).pages == 1

        # The zombie: a put completing after the partition was consumed.
        sim.run(until=sim.process(sender(1)))
        assert fabric.duplicate_pages == 1
        assert fabric.pages_received == 1  # the zombie never counted
        late = fabric.drain(ex, 0)
        assert late.pages == 0 and late.rows == 0


# --------------------------------------------------------------------------
# End to end on the standing environment
# --------------------------------------------------------------------------


def _reads(plan, table):
    rel = plan.root
    while rel.inputs():
        rel = rel.inputs()[0]
    return rel.table == table


class TestDynamicFilterHandshake:
    """The probe scan starts with the query and waits on the build's filter."""

    def test_publication_is_once_and_drops_the_build_pages(self):
        from types import SimpleNamespace

        from repro.exchange.filters import DynamicFilterHandshake

        schema = Schema([Field("k", INT64)])
        pages = [RecordBatch.from_pydict(schema, {"k": np.arange(i, i + 5)}) for i in (0, 10)]
        target = SimpleNamespace(dynamic_filter=None)
        handshake = DynamicFilterHandshake(
            build_key="k", probe_key="k",
            probe_dtype=INT64, target=target, early_splits=2,
        )
        assert handshake.offer(0, [pages[0]]) is None
        assert handshake.offer(0, [pages[1]]) is None  # a split's first landing counts
        dyn = handshake.offer(1, [pages[1]])
        assert dyn.build_rows == 10 and handshake._pages == {}
        published = target.dynamic_filter
        # A restarted build stage reuses the published filter.
        assert handshake.publish(pages) is None
        assert target.dynamic_filter is published
        assert handshake.fail(JoinError("late")) is False
        assert list(handshake.wait(sim=None)) == []

    def test_a_failed_build_fails_the_waiting_probe(self, small_env, monkeypatch):
        from repro.errors import OcsError, RpcStatusError
        from repro.ocs.embedded_engine import EmbeddedEngine

        execute = EmbeddedEngine.execute

        def crash_on_lineitem(self, plan, bucket, keys):
            if _reads(plan, "tpch.lineitem"):
                raise OcsError("build storage node fell over")
            return execute(self, plan, bucket, keys)

        monkeypatch.setattr(EmbeddedEngine, "execute", crash_on_lineitem)
        cluster = Cluster(small_env.store, small_env.testbed, small_env.costs)
        connector = small_env.build_connector(cluster, DYNAMIC)
        coordinator = Coordinator(cluster, {"repro": connector})
        with pytest.raises(RpcStatusError) as info:
            coordinator.execute(TPCH_Q3, Session(catalog="repro", schema="tpch"))
        assert info.value.code == "INTERNAL"
        # Nothing is left to run: no probe split waits for a filter that
        # will never come, and every span it opened is closed.
        cluster.sim.run()
        trace = cluster.tracer.trace()
        trace.validate()
        waits = [s for s in trace.spans if s.name == "dynamic-filter.wait"]
        assert waits and all(s.end is not None for s in waits)

    def test_a_transient_build_fault_retries_to_the_static_result(self, small_env):
        faulted = RunConfig(
            label="faulted", mode="ocs", policy=DYNAMIC.policy,
            faults=FaultSpec(transient_storage_failures={0: 1, 1: 1}),
            retry=RetryPolicy(max_attempts=3),
        )
        result = small_env.run(TPCH_Q3, faulted, schema="tpch")
        static = small_env.run(TPCH_Q3, STATIC, schema="tpch")
        assert result.metrics.value("pushdown_retries") > 0
        assert result.metrics.value("ocs_dynamic_rows_pruned") > 0
        assert result.to_pydict() == static.to_pydict()
        result.trace.validate()

    def test_speculation_launches_no_backup_for_the_waiting_probe(self, small_env):
        speculative = RunConfig(
            label="speculative", mode="ocs", policy=DYNAMIC.policy,
            scheduler=SchedulerSpec(speculation=True),
        )
        result = small_env.run(TPCH_Q3, speculative, schema="tpch")
        plain = small_env.run(TPCH_Q3, DYNAMIC, schema="tpch")
        assert result.metrics.value("speculative_backups") == 0
        assert result.execution_seconds == plain.execution_seconds
        assert result.to_pydict() == plain.to_pydict()

    @pytest.mark.parametrize(
        "sql",
        [TPCH_Q3, TPCH_Q3_FULL, TPCH_Q4, TPCH_Q12, TPCH_Q18],
        ids=["q3", "q3_full", "q4", "q12", "q18"],
    )
    def test_spliced_probe_plan_is_the_full_plan_to_the_byte(
        self, small_env, monkeypatch, sql
    ):
        import repro.core.connector as ocs_connector
        from repro.core.translator import build_pushdown_plan
        from repro.substrait.serde import serialize_plan

        spliced = []
        original = ocs_connector.spliced_plan

        def checked(handle):
            plan, plan_bytes = original(handle)
            full = build_pushdown_plan(handle.descriptor, handle.pushed)
            spliced.append(plan_bytes == serialize_plan(full))
            return plan, plan_bytes

        monkeypatch.setattr(ocs_connector, "spliced_plan", checked)
        result = small_env.run(sql, DYNAMIC, schema="tpch")
        assert spliced and all(spliced)
        # The base plan is generated once per split, the splice charged on
        # its own span after the wait.
        names = [s.name for s in result.trace.spans]
        assert names.count("substrait.splice") == len(spliced)

    def test_probe_scan_starts_with_the_query_and_publish_counts(self, small_env):
        result = small_env.run(TPCH_Q3, DYNAMIC, schema="tpch")
        spans = {s.name: s for s in result.trace.spans}
        probe = spans["stage:scan:0:orders"]
        build = spans["stage:scan:1:lineitem"]
        assert probe.start == build.start
        publish = spans["dynamic-filter.publish"]
        assert publish.start == publish.end
        assert publish.counters["dynamic_filter_build_rows"] > 0
        # Published when the build's pages landed, before its stage ended.
        assert publish.end < build.end
        assert "dynamic-filter:0" not in {s.stage_id for s in result.stage_graph}

    def test_the_plans_built_for_the_splits_go_when_the_query_ends(
        self, small_env, monkeypatch
    ):
        import repro.core.connector as ocs_connector

        # A finished query's record keeps its branches' handles.
        handles = []
        original = ocs_connector.spliced_plan
        monkeypatch.setattr(
            ocs_connector, "spliced_plan", lambda h: handles.append(h) or original(h)
        )
        small_env.run(TPCH_Q3, DYNAMIC, schema="tpch")
        assert handles
        assert all(h.built is None and h.spliced is None for h in handles)

    def test_a_partly_cached_build_publishes_from_its_cache_union(self, small_env):
        from dataclasses import replace

        from repro.config import CacheSpec

        # Split tier only, one split per file; this budget is no other
        # test's, so the environment's manager for it starts empty.
        spec = CacheSpec(result_budget_bytes=0, split_budget_bytes=61 * 2**20)
        config = replace(DYNAMIC, cache=spec, split_granularity="file")
        static = small_env.run(TPCH_Q3, replace(STATIC, split_granularity="file"), "tpch")
        small_env.run(TPCH_Q3, config, schema="tpch")  # fills the build's splits
        manager = small_env.cache_manager(spec)
        manager.splits.invalidate(sorted(manager.splits._entries, key=repr)[0])

        result = small_env.run(TPCH_Q3, config, schema="tpch")
        graph = result.stage_graph
        union = graph.stage("cache-union:1:lineitem")
        assert (union.attributes["cached_splits"], union.attributes["residual_splits"]) == (1, 1)
        probe = graph.stage("scan:0:orders").attributes
        assert probe["dynamic_filter_from"] == "cache-union:1:lineitem"
        assert "scan:1:lineitem" not in graph
        # The union publishes: the filter is final only once both halves are in.
        spans = result.trace.spans
        publish = next(s for s in spans if s.name == "dynamic-filter.publish")
        assert result.trace.get(publish.parent_id).name == "stage:cache-union:1:lineitem"
        assert result.metrics.value("ocs_dynamic_rows_pruned") > 0
        assert result.to_pydict() == static.to_pydict()


class TestJoinEndToEnd:
    @pytest.fixture(scope="class")
    def q3_results(self, small_env):
        configs = [RunConfig.none(), STATIC, DYNAMIC]
        return {c.label: small_env.run(TPCH_Q3, c, schema="tpch") for c in configs}

    def test_all_modes_agree(self, q3_results):
        first, *rest = q3_results.values()
        for other in rest:
            assert other.to_pydict() == first.to_pydict()

    def test_dynamic_filter_moves_strictly_less_data(self, q3_results):
        static = q3_results["static"]
        dynamic = q3_results["dynamic"]
        assert dynamic.data_moved_bytes < static.data_moved_bytes
        assert dynamic.metrics.value("exchange_bytes") < static.metrics.value(
            "exchange_bytes"
        )

    def test_row_elimination_is_accounted(self, q3_results, small_env):
        dynamic = q3_results["dynamic"]
        pruned = dynamic.metrics.value("ocs_dynamic_rows_pruned")
        assert pruned > 0
        # Fewer probe rows reach the join; the pruned counter is at least
        # that gap (it also counts rows the static filter would have cut —
        # the dynamic conjunct is evaluated alongside it at storage).
        static_probe = q3_results["static"].metrics.value("rows_into_hashjoin")
        dynamic_probe = dynamic.metrics.value("rows_into_hashjoin")
        assert dynamic_probe < static_probe
        assert pruned >= static_probe - dynamic_probe
        # The shared monitor saw the elimination too.
        assert small_env.monitor.dynamic_rows_pruned() >= pruned

    def test_plan_reports_partitioned_distribution(self, q3_results):
        assert "distribution=partitioned" in q3_results["static"].plan_after

    def test_exchange_stage_appears_in_timings(self, q3_results):
        for result in q3_results.values():
            assert result.stage_seconds.get("exchange", 0.0) > 0.0

    def test_q12_modes_agree(self, small_env):
        results = [
            small_env.run(TPCH_Q12, c, schema="tpch")
            for c in (RunConfig.none(), STATIC, DYNAMIC)
        ]
        first, *rest = results
        assert first.rows > 0
        for other in rest:
            assert other.to_pydict() == first.to_pydict()

    def test_multi_stage_replays_are_digest_identical(self, small_env):
        report = check_determinism(small_env, TPCH_Q3, DYNAMIC, "tpch")
        assert report.ok, report.summary() if hasattr(report, "summary") else report

    def test_shuffle_survives_link_faults(self, small_env):
        healthy = small_env.run(TPCH_Q12, DYNAMIC, schema="tpch")
        faulty_config = RunConfig(
            label="dynamic-faulty",
            mode="ocs",
            policy=PushdownPolicy(
                enabled=frozenset({"filter"}), dynamic_filters=True
            ),
            faults=FaultSpec(link_drop_probability=0.05, seed=23),
            retry=RetryPolicy(max_attempts=8),
        )
        faulty = small_env.run(TPCH_Q12, faulty_config, schema="tpch")
        assert faulty.to_pydict() == healthy.to_pydict()


class TestBroadcastJoin:
    @pytest.fixture(scope="class")
    def dim_env(self):
        """lineitem with a tiny orders dimension -> broadcast build side."""
        env = Environment()
        env.add_dataset(
            DatasetSpec(
                schema_name="tpch",
                table_name="lineitem",
                bucket="data",
                file_count=1,
                generator=lambda i: generate_lineitem(20_000, seed=17),
                row_group_rows=8192,
            )
        )
        env.add_dataset(
            DatasetSpec(
                schema_name="tpch",
                table_name="orders",
                bucket="data",
                file_count=1,
                generator=lambda i: generate_orders(500, seed=19),
                row_group_rows=8192,
            )
        )
        return env

    SQL = (
        "SELECT COUNT(*) AS n FROM lineitem "
        "JOIN orders ON lineitem.orderkey = orders.orderkey"
    )

    def test_small_build_side_broadcasts_and_matches_oracle(self, dim_env):
        result = dim_env.run(self.SQL, STATIC, schema="tpch")
        assert "distribution=broadcast" in result.plan_after
        lineitem = generate_lineitem(20_000, seed=17).to_pydict()
        expected = int(np.sum(np.asarray(lineitem["orderkey"]) <= 500))
        assert result.to_pydict()["n"] == [expected]

    @pytest.mark.parametrize(
        "config", [STATIC, DYNAMIC], ids=["static", "dynamic"]
    )
    def test_left_join_preserves_probe_rows(self, dim_env, config):
        # Under DYNAMIC this also guards against the build side's min/max +
        # Bloom filter being pushed into the probe scan: a left outer join
        # preserves unmatched probe rows, so no dynamic filter may prune
        # them at storage.
        sql = (
            "SELECT COUNT(*) AS n FROM lineitem "
            "LEFT OUTER JOIN orders ON lineitem.orderkey = orders.orderkey"
        )
        result = dim_env.run(sql, config, schema="tpch")
        assert result.to_pydict()["n"] == [20_000]


class TestServiceJoinSubmission:
    def test_join_query_through_the_service(self, small_env):
        service = QueryService(small_env, ServiceSpec())
        handle = service.submit(TPCH_Q12, schema="tpch", config=DYNAMIC)
        result = handle.result()
        assert handle.status() == str(JobStatus.SUCCEEDED)
        assert result.rows > 0
        assert result.metrics.value("exchange_bytes") > 0


class TestJoinExplain:
    def test_explain_renders_stage_graph_and_branches(self, small_env):
        text = small_env.explain(TPCH_Q3, STATIC, schema="tpch")
        assert "Stage graph:" in text
        # One scan stage per branch, exchanges on both sides (the build
        # is too large to broadcast), one join level, and the tail.
        assert "scan:0:orders" in text
        assert "scan:1:lineitem" in text
        assert "exchange:build:0" in text
        assert "exchange:probe:0" in text
        assert "join:0" in text and "distribution=partitioned" in text
        assert "[aggregate] <- join:0" in text
        assert "[merge    ] <- aggregate" in text
        # Per-branch pushdown still surfaces per scan stage.
        assert "Pushed to storage (scan:1:lineitem): filter" in text

    def test_cross_catalog_join_rejected(self, small_env):
        with pytest.raises(PlanError, match="cross-catalog"):
            small_env.explain(
                "SELECT orders.orderkey FROM orders "
                "JOIN other.tpch.lineitem ON orders.orderkey = lineitem.orderkey",
                STATIC,
                schema="tpch",
            )
