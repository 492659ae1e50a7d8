"""Stage-DAG scheduler: graph typing, N-way joins, speculation, restart.

Covers the scheduler API's contracts end to end: the verifier rejects
malformed graphs (cycles, schema-mismatched edges, orphan stages)
before anything runs; a two-join TPC-H Q3 runs through the stage DAG
(SQLite referees its rows); speculative split re-execution beats a
degraded node without ever changing result digests; and a stage hit by
exchange faults restarts and still matches the fault-free oracle.
"""

import dataclasses

import pytest

from conftest import LINEITEM_ROWS
from repro.analysis.determinism import canonical_result_digest, check_determinism
from repro.analysis.verifier import verify_stage_graph
from repro.arrowsim.dtypes import FLOAT64, INT64
from repro.arrowsim.schema import Field, Schema
from repro.bench.env import Environment, RunConfig
from repro.config import DEFAULT_TESTBED, FaultSpec
from repro.core import PushdownPolicy
from repro.engine import DagScheduler, SchedulerSpec, Stage, StageGraph
from repro.errors import (
    ConfigError,
    ExchangeFaultError,
    PlanError,
    VerificationError,
)
from repro.rpc.retry import RetryPolicy
from repro.trace import Tracer
from repro.workloads import (
    TPCH_Q3_FULL,
    TPCH_Q12,
    DatasetSpec,
    generate_lineitem,
    generate_orders,
)

STATIC = RunConfig(
    label="static", mode="ocs", policy=PushdownPolicy.filter_only()
)


def _noop(ctx, inputs):
    return None
    yield  # makes the body a generator; never reached


def _stage(stage_id, kind="scan", **kwargs):
    return Stage(stage_id=stage_id, kind=kind, run=_noop, **kwargs)


# --------------------------------------------------------------------------
# Graph construction + verifier rejections
# --------------------------------------------------------------------------


class TestStageValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(PlanError, match="unknown stage kind"):
            _stage("s", kind="teleport")

    def test_schema_for_non_input_edge_rejected(self):
        with pytest.raises(PlanError, match="non-input stages"):
            _stage(
                "s",
                inputs=("a",),
                input_schemas={"b": Schema([Field("x", INT64)])},
            )

    def test_duplicate_stage_id_rejected(self):
        graph = StageGraph([_stage("s")])
        with pytest.raises(PlanError, match="duplicate stage id"):
            graph.add(_stage("s"))


class TestVerifyStageGraph:
    def test_valid_linear_graph_passes(self):
        schema = Schema([Field("k", INT64)])
        graph = StageGraph(
            [
                _stage("scan", output_schema=schema),
                _stage(
                    "merge",
                    kind="merge",
                    inputs=("scan",),
                    input_schemas={"scan": schema},
                ),
            ]
        )
        verify_stage_graph(graph)

    def test_empty_graph_rejected(self):
        with pytest.raises(VerificationError, match="empty"):
            verify_stage_graph(StageGraph())

    def test_unknown_producer_rejected(self):
        graph = StageGraph([_stage("merge", kind="merge", inputs=("ghost",))])
        with pytest.raises(VerificationError, match="unknown stage 'ghost'"):
            verify_stage_graph(graph)

    def test_cycle_rejected(self):
        graph = StageGraph(
            [
                _stage("a", inputs=("b",)),
                _stage("b", kind="merge", inputs=("a",)),
            ]
        )
        with pytest.raises(PlanError, match="cycle"):
            verify_stage_graph(graph)

    def test_orphan_stage_rejected(self):
        # "orphan" consumes nothing and feeds nothing: a second sink.
        graph = StageGraph(
            [
                _stage("scan"),
                _stage("merge", kind="merge", inputs=("scan",)),
                _stage("orphan"),
            ]
        )
        with pytest.raises(VerificationError, match="2 sinks"):
            verify_stage_graph(graph)

    def test_schema_mismatched_edge_rejected(self):
        graph = StageGraph(
            [
                _stage("scan", output_schema=Schema([Field("a", INT64)])),
                _stage(
                    "merge",
                    kind="merge",
                    inputs=("scan",),
                    input_schemas={"scan": Schema([Field("b", INT64)])},
                ),
            ]
        )
        with pytest.raises(VerificationError, match="schema mismatch"):
            verify_stage_graph(graph)

    def test_dtype_mismatch_is_a_schema_mismatch(self):
        graph = StageGraph(
            [
                _stage("scan", output_schema=Schema([Field("a", INT64)])),
                _stage(
                    "merge",
                    kind="merge",
                    inputs=("scan",),
                    input_schemas={"scan": Schema([Field("a", FLOAT64)])},
                ),
            ]
        )
        with pytest.raises(VerificationError, match="schema mismatch"):
            verify_stage_graph(graph)

    def test_untyped_edges_allowed(self):
        graph = StageGraph(
            [
                _stage("scan", output_schema=Schema([Field("a", INT64)])),
                _stage("merge", kind="merge", inputs=("scan",)),
            ]
        )
        verify_stage_graph(graph)  # consumer declares no expectation

    @staticmethod
    def _filtered(publisher, join_kind):
        return StageGraph(
            [
                _stage(
                    "probe",
                    attributes={
                        "dynamic_filter_from": publisher, "join_kind": join_kind,
                    },
                ),
                _stage("build"),
                _stage("join", kind="join", inputs=("build", "probe")),
            ]
        )

    def test_dynamic_filter_from_a_known_stage_for_a_selective_join(self):
        verify_stage_graph(self._filtered("build", "inner"))
        verify_stage_graph(self._filtered("build", "semi"))

    def test_dynamic_filter_from_an_unknown_stage_rejected(self):
        with pytest.raises(VerificationError, match="from unknown stage 'ghost'"):
            verify_stage_graph(self._filtered("ghost", "inner"))

    @pytest.mark.parametrize("join_kind", ["anti", "left"])
    def test_dynamic_filter_for_a_preserving_join_rejected(self, join_kind):
        with pytest.raises(VerificationError, match="may prune the probe side"):
            verify_stage_graph(self._filtered("build", join_kind))

    def test_annotate_adds_attributes_in_place(self):
        graph = StageGraph([_stage("scan", attributes={"table": "t"}), _stage("b")])
        graph.annotate("scan", splits=2)
        assert graph.stage("scan").attributes == {"table": "t", "splits": 2}
        assert [s.stage_id for s in graph] == ["scan", "b"]


class TestSchedulerSpecValidation:
    def test_defaults_valid(self):
        SchedulerSpec()

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"speculation_multiplier": 0.5}, "speculation_multiplier"),
            ({"speculation_quorum": 0.0}, "speculation_quorum"),
            ({"speculation_quorum": 1.5}, "speculation_quorum"),
            ({"max_stage_restarts": -1}, "max_stage_restarts"),
            ({"restartable": ("not-an-exception",)}, "restartable"),
        ],
    )
    def test_bad_knobs_rejected(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            SchedulerSpec(**kwargs)


# --------------------------------------------------------------------------
# Scheduler unit: dataflow order + restart accounting
# --------------------------------------------------------------------------


class TestDagSchedulerUnit:
    def _run(self, graph, spec=None):
        from repro.sim import Simulator

        sim = Simulator()
        scheduler = DagScheduler(
            sim, graph, spec, tracer=Tracer(clock=lambda: sim.now)
        )
        return sim.run(until=sim.process(scheduler.run()))

    def test_stages_run_in_dependency_order_and_values_flow(self):
        order = []

        def body(name, expect):
            def run(ctx, inputs):
                assert inputs == expect, (name, inputs)
                order.append(name)
                return name
                yield

            return run

        graph = StageGraph(
            [
                Stage(stage_id="a", kind="scan", run=body("a", {})),
                Stage(stage_id="b", kind="scan", run=body("b", {})),
                Stage(
                    stage_id="c",
                    kind="merge",
                    run=body("c", {"a": "a", "b": "b"}),
                    inputs=("a", "b"),
                ),
            ]
        )
        results = self._run(graph)
        assert order == ["a", "b", "c"]
        assert results == {"a": "a", "b": "b", "c": "c"}

    def test_restartable_fault_restarts_only_that_stage(self):
        attempts = {"flaky": 0, "scan": 0}

        def scan(ctx, inputs):
            attempts["scan"] += 1
            return "rows"
            yield

        def flaky(ctx, inputs):
            attempts["flaky"] += 1
            if ctx.attempt < 2:
                raise ExchangeFaultError("synthetic loss")
            return inputs["scan"].upper()
            yield

        graph = StageGraph(
            [
                Stage(stage_id="scan", kind="scan", run=scan),
                Stage(
                    stage_id="flaky", kind="merge", run=flaky, inputs=("scan",)
                ),
            ]
        )
        results = self._run(graph, SchedulerSpec(max_stage_restarts=2))
        assert results["flaky"] == "ROWS"
        assert attempts == {"scan": 1, "flaky": 3}  # inputs not re-run

    def test_restart_budget_exhaustion_propagates(self):
        def always_fails(ctx, inputs):
            raise ExchangeFaultError("synthetic loss")
            yield

        graph = StageGraph(
            [Stage(stage_id="only", kind="merge", run=always_fails)]
        )
        with pytest.raises(ExchangeFaultError):
            self._run(graph, SchedulerSpec(max_stage_restarts=1))

    def test_non_restartable_fault_fails_fast(self):
        def bad(ctx, inputs):
            raise ValueError("logic bug, not infrastructure")
            yield

        graph = StageGraph([Stage(stage_id="only", kind="merge", run=bad)])
        with pytest.raises(ValueError):
            self._run(graph, SchedulerSpec(max_stage_restarts=5))


# --------------------------------------------------------------------------
# Two-join TPC-H Q3 through the stage DAG (its rows are refereed by SQLite
# in every mode: tests/test_sqlite_referee.py)
# --------------------------------------------------------------------------


class TestTwoJoinEndToEnd:
    @pytest.fixture(scope="class")
    def q3_full(self, small_env):
        return small_env.run(TPCH_Q3_FULL, STATIC, schema="tpch")

    def test_result_carries_the_stage_graph(self, q3_full):
        graph = q3_full.stage_graph
        assert graph is not None
        kinds = {s.stage_id: s.kind for s in graph}
        # Three scan branches, two join levels, exchanges for both.
        assert kinds["scan:0:orders"] == "scan"
        assert kinds["scan:1:lineitem"] == "scan"
        assert kinds["scan:2:customer"] == "scan"
        assert kinds["join:0"] == "join"
        assert kinds["join:1"] == "join"
        assert "exchange:build:0" in kinds
        assert "exchange:build:1" in kinds
        # Second join consumes the first join's output.
        assert "join:0" in graph.stage("exchange:probe:1").inputs or (
            "join:0" in graph.stage("join:1").inputs
        )
        # Exactly one sink: the merge stage producing the result.
        (sink,) = graph.sinks()
        assert sink.kind == "merge"
        verify_stage_graph(graph)

    def test_explain_analyze_renders_per_stage_timings(self, small_env):
        text = small_env.explain(
            TPCH_Q3_FULL, STATIC, schema="tpch", analyze=True
        )
        assert "Stage graph (per-stage wall time):" in text
        assert "join:1" in text
        assert "ms" in text

    def test_replays_are_digest_identical(self, small_env):
        report = check_determinism(small_env, TPCH_Q3_FULL, STATIC, "tpch")
        assert report.ok, report


# --------------------------------------------------------------------------
# Speculative split re-execution (degraded storage node)
# --------------------------------------------------------------------------


def _single_table_env(files=8):
    """Four storage nodes so only the degraded node's splits straggle."""
    testbed = dataclasses.replace(DEFAULT_TESTBED, storage_node_count=4)
    env = Environment(testbed=testbed)
    env.add_dataset(
        DatasetSpec(
            schema_name="tpch",
            table_name="lineitem",
            bucket="data",
            file_count=files,
            generator=lambda i: generate_lineitem(
                LINEITEM_ROWS, seed=17, start_row=i * LINEITEM_ROWS
            ),
            row_group_rows=8192,
        )
    )
    return env


SPEC_SQL = (
    "SELECT returnflag, SUM(extendedprice) AS s, COUNT(*) AS n "
    "FROM lineitem WHERE discount > 0.02 "
    "GROUP BY returnflag ORDER BY returnflag"
)


def _degraded_config(label, speculation):
    """Per-file splits; node 0's pushdown engine runs 25x slow."""
    return RunConfig(
        label=label,
        mode="ocs",
        policy=PushdownPolicy.filter_only(),
        split_granularity="file",
        faults=FaultSpec(storage_latency_multipliers={0: 25.0}, seed=5),
        scheduler=SchedulerSpec(
            speculation=speculation, speculation_quorum=0.25
        ),
    )


class TestSpeculativeExecution:
    @pytest.fixture(scope="class")
    def runs(self):
        env = _single_table_env()
        return {
            "off": env.run(SPEC_SQL, _degraded_config("off", False), "tpch"),
            "on": env.run(SPEC_SQL, _degraded_config("on", True), "tpch"),
            "replay": env.run(SPEC_SQL, _degraded_config("on", True), "tpch"),
        }

    def test_backups_launch_and_win(self, runs):
        on = runs["on"]
        assert on.metrics.value("speculative_backups") > 0
        assert on.metrics.value("speculative_wins") > 0
        # The healthy run never speculates.
        assert runs["off"].metrics.value("speculative_backups") == 0

    def test_speculation_beats_the_straggler(self, runs):
        assert runs["on"].execution_seconds < runs["off"].execution_seconds

    def test_speculation_never_changes_digests(self, runs):
        assert canonical_result_digest(runs["on"].batch) == (
            canonical_result_digest(runs["off"].batch)
        )

    def test_seeded_replays_are_byte_identical(self, runs):
        on, replay = runs["on"], runs["replay"]
        assert canonical_result_digest(on.batch) == (
            canonical_result_digest(replay.batch)
        )
        assert on.execution_seconds == replay.execution_seconds
        assert on.metrics.snapshot() == replay.metrics.snapshot()

    def test_healthy_cluster_spawns_no_backups(self):
        env = _single_table_env()
        config = RunConfig(
            label="healthy",
            mode="ocs",
            policy=PushdownPolicy.filter_only(),
            split_granularity="file",
            scheduler=SchedulerSpec(
                speculation=True, speculation_quorum=0.25
            ),
        )
        result = env.run(SPEC_SQL, config, "tpch")
        # Splits queue on the scan drivers, but queue wait is not
        # straggling: service-time detection launches nothing.
        assert result.metrics.value("speculative_backups") == 0


# --------------------------------------------------------------------------
# Stage-level restart under exchange faults
# --------------------------------------------------------------------------


def _join_env():
    env = Environment()
    for table, gen, kwarg in (
        ("lineitem", generate_lineitem, "start_row"),
        ("orders", generate_orders, "start_key"),
    ):
        seed = 17 if table == "lineitem" else 19
        env.add_dataset(
            DatasetSpec(
                schema_name="tpch",
                table_name=table,
                bucket="data",
                file_count=2,
                generator=lambda i, g=gen, s=seed, k=kwarg: g(
                    20_000, seed=s, **{k: i * 20_000}
                ),
                row_group_rows=8192,
            )
        )
    return env


class TestStageRestart:
    # Weak per-page retry (2 attempts) so the fault injector's drops
    # escalate to ExchangeFaultError; the scheduler then restarts the
    # exchange stage with fresh exchange ids.  Seed chosen so the run
    # restarts and converges within the budget.
    FAULTS = FaultSpec(link_drop_probability=0.3, seed=2)
    RETRY = RetryPolicy(max_attempts=2, initial_backoff_s=0.001)

    @pytest.fixture(scope="class")
    def env(self):
        return _join_env()

    @pytest.fixture(scope="class")
    def healthy(self, env):
        return env.run(
            TPCH_Q12,
            RunConfig(
                label="healthy", mode="ocs", policy=PushdownPolicy.filter_only()
            ),
            "tpch",
        )

    def test_restarted_run_matches_the_no_fault_oracle(self, env, healthy):
        config = RunConfig(
            label="faulty",
            mode="ocs",
            policy=PushdownPolicy.filter_only(),
            faults=self.FAULTS,
            retry=self.RETRY,
            scheduler=SchedulerSpec(max_stage_restarts=6),
        )
        result = env.run(TPCH_Q12, config, "tpch")
        assert result.metrics.value("stage_restarts") > 0
        assert result.to_pydict() == healthy.to_pydict()

    def test_zero_budget_fails_on_the_same_fault(self, env):
        config = RunConfig(
            label="no-budget",
            mode="ocs",
            policy=PushdownPolicy.filter_only(),
            faults=self.FAULTS,
            retry=self.RETRY,
            scheduler=SchedulerSpec(max_stage_restarts=0),
        )
        with pytest.raises(ExchangeFaultError):
            env.run(TPCH_Q12, config, "tpch")


class TestSpeculationTieBreak:
    """A primary/backup tie at one instant settles for the primary under
    *either* kernel tie-break policy.

    Regression: the wake that collected completions used to see a
    policy-dependent completion set — under FIFO the primary's
    same-instant completion had already dispatched (primary wins), under
    LIFO the wake dispatched first (backup wins, ``speculative_wins``
    diverged).  ``run_splits`` now defers the verdict past a kernel
    barrier, after which any completed primary wins the tie.

    Timings are binary-exact on purpose: split 0 finishes at 0.25, so
    the straggler threshold freezes at 1.5 * 0.25 = 0.375; the backup
    launched at 0.375 runs 0.625s and completes at exactly 1.0 —
    the very instant split 1's primary finishes.
    """

    PRIMARY_SECONDS = {0: 0.25, 1: 1.0}
    BACKUP_SECONDS = 0.625

    def _run(self, tie_break):
        from repro.engine.dag import StageContext
        from repro.engine.scheduler import run_splits
        from repro.sim.kernel import Simulator
        from repro.trace import Tracer, counter_totals

        sim = Simulator(tie_break=tie_break)
        tracer = Tracer(clock=lambda: sim.now)
        span = tracer.start("stage:scan")
        ctx = StageContext(sim=sim, span=span)

        def body(seconds, tag):
            yield sim.timeout(seconds)
            return tag

        def launch_primary(i):
            return sim.process(
                body(self.PRIMARY_SECONDS[i], f"primary-{i}"), name=f"primary-{i}"
            )

        def launch_backup(i):
            return sim.process(
                body(self.BACKUP_SECONDS, f"backup-{i}"), name=f"backup-{i}"
            )

        spec = SchedulerSpec(
            speculation=True,
            speculation_quorum=0.5,
            speculation_multiplier=1.5,
        )

        def driver():
            outs = yield from run_splits(
                ctx, spec, [0, 1], launch_primary, launch_backup
            )
            return outs

        proc = sim.process(driver(), name="driver")
        sim.run()
        return proc.value, counter_totals(tracer.trace(span)).snapshot(), sim.now

    def test_tie_settles_for_primary_under_both_policies(self):
        fifo_outs, fifo_metrics, fifo_now = self._run("fifo")
        lifo_outs, lifo_metrics, lifo_now = self._run("lifo")
        # The backup genuinely launched and genuinely tied.
        assert fifo_metrics["speculative_backups"] == 1.0
        assert fifo_now == lifo_now == 1.0
        # Primary wins the tie under both policies; no speculative win.
        assert fifo_outs == ["primary-0", "primary-1"]
        assert lifo_outs == fifo_outs
        assert fifo_metrics.get("speculative_wins", 0.0) == 0.0
        assert lifo_metrics == fifo_metrics

    def test_backup_still_wins_a_genuine_straggle(self):
        # Sanity: deferring the verdict must not rob real backup wins.
        self.PRIMARY_SECONDS = {0: 0.25, 1: 10.0}
        try:
            outs, metrics, _ = self._run("fifo")
            assert outs == ["primary-0", "backup-1"]
            assert metrics["speculative_wins"] == 1.0
        finally:
            del self.PRIMARY_SECONDS  # restore the class attribute
