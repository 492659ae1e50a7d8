"""Distributed tracing: span production, propagation, exporters, invariants.

The load-bearing properties:

* tracing is always on and bounded: ``QueryResult.trace`` is always set,
  a tracer retains at most ``MAX_TRACES`` traces (never one whose root
  is open), and retention never changes simulated timings;
* the span tree is structurally valid (single root, closed, acyclic) and
  the root covers the query wall-clock exactly;
* every RPC **attempt** gets a span — retries and downgrades are visible;
* per-stage totals derived from stage-tagged spans *are* the
  coordinator's ``stage_seconds`` (the only Table 3 ledger).
"""

import ast
import json
import pathlib

import numpy as np
import pytest

import repro
from repro.arrowsim import RecordBatch
from repro.bench import Environment, RunConfig
from repro.bench.table3 import check_trace, run_table3
from repro.config import FaultSpec
from repro.errors import StatusCode, TraceError
from repro.rpc import RetryPolicy
from repro.trace import (
    Span,
    SpanContext,
    Trace,
    Tracer,
    chrome_trace_events,
    export_chrome_trace,
    render_tree,
    stage_totals,
    union_seconds,
)
from repro.trace import tracer as tracer_module
from repro.workloads import DatasetSpec

QUERY = "SELECT grp, count(*) AS n, avg(v) AS m FROM t GROUP BY grp"


def _file(index: int) -> RecordBatch:
    rng = np.random.default_rng(100 + index)
    return RecordBatch.from_arrays(
        {"grp": rng.integers(0, 4, 2000), "v": rng.random(2000)}
    )


@pytest.fixture()
def env():
    e = Environment()
    e.add_dataset(
        DatasetSpec(
            schema_name="s", table_name="t", bucket="b",
            file_count=2, generator=_file, row_group_rows=512,
        )
    )
    return e


def _run(env, config):
    return env.run(QUERY, config, schema="s")


# -- tracer unit behaviour -----------------------------------------------------


class TestTracer:
    def test_parent_by_span_and_by_context(self):
        clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        tracer = Tracer(clock=lambda: next(clock))
        root = tracer.start("root")
        child = tracer.start("child", parent=root)
        grandchild = tracer.start("grand", parent=child.context)
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert root.trace_id == child.trace_id == grandchild.trace_id

    def test_span_ids_are_sequential_and_end_is_idempotent(self):
        t = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(t)))
        spans = [tracer.start(f"s{i}") for i in range(3)]
        assert [s.span_id for s in spans] == [1, 2, 3]
        tracer.end(spans[0])
        first_end = spans[0].end
        tracer.end(spans[0])
        assert spans[0].end == first_end

    def test_context_manager_records_error_code(self):
        tracer = Tracer(clock=lambda: 0.0)
        with pytest.raises(RuntimeError):
            with tracer.span("x"):
                raise RuntimeError("boom")
        (span,) = tracer.spans()
        assert span.status is StatusCode.INTERNAL
        assert span.end is not None

    def test_trace_filters_by_root_trace_id(self):
        tracer = Tracer(clock=lambda: 0.0)
        a = tracer.start("a")
        tracer.start("a.child", parent=a)
        b = tracer.start("b")
        tracer.end(a)
        tracer.end(b)
        assert len(tracer.trace(root=a)) == 2
        assert len(tracer.trace(root=b)) == 1
        assert len(tracer.trace()) == 3


class TestRingRetention:
    @pytest.fixture()
    def ring(self, monkeypatch):
        monkeypatch.setattr(tracer_module, "MAX_TRACES", 3)
        return Tracer(clock=lambda: 0.0)

    @staticmethod
    def _closed_trace(tracer):
        root = tracer.start("q")
        tracer.end(tracer.start("q.child", parent=root))
        tracer.end(root)
        return root

    def test_spans_are_in_span_id_order_across_traces(self):
        tracer = Tracer(clock=lambda: 0.0)
        a = tracer.start("a")
        b = tracer.start("b")
        tracer.start("a.child", parent=a)
        tracer.start("b.child", parent=b)
        assert [s.span_id for s in tracer.spans()] == [1, 2, 3, 4]
        assert [s.name for s in tracer.spans()] == ["a", "b", "a.child", "b.child"]

    def test_ring_keeps_the_last_n_closed_traces(self, ring):
        roots = [self._closed_trace(ring) for _ in range(5)]
        kept = {s.trace_id for s in ring.spans()}
        assert kept == {r.trace_id for r in roots[-3:]}
        assert len(ring.spans()) == 3 * 2
        assert len(ring.trace(root=roots[0])) == 0

    def test_open_root_is_never_evicted(self, ring):
        held = ring.start("held")
        ring.start("held.child", parent=held)
        for _ in range(5):
            self._closed_trace(ring)
        ring.start("late.child", parent=held)
        assert len(ring.trace(root=held)) == 3
        assert len({s.trace_id for s in ring.spans()}) == 3
        ring.end(held)
        assert len(ring.trace(root=held)) == 3

    def test_open_roots_may_exceed_the_ring_until_they_close(self, ring):
        roots = [ring.start(f"q{i}") for i in range(5)]
        assert len({s.trace_id for s in ring.spans()}) == 5
        for root in roots:
            ring.end(root)
        assert {s.trace_id for s in ring.spans()} == {r.trace_id for r in roots[-3:]}

    def test_handed_out_trace_survives_eviction(self, ring):
        root = self._closed_trace(ring)
        trace = ring.trace(root=root)
        for _ in range(5):
            self._closed_trace(ring)
        assert len(ring.trace(root=root)) == 0
        assert [s.name for s in trace] == ["q", "q.child"]
        trace.validate()


class TestTraceStructure:
    def _span(self, sid, parent, start, end, **attrs):
        return Span(
            name=f"s{sid}", context=SpanContext(trace_id=1, span_id=sid),
            parent_id=parent, start=start, end=end, attributes=attrs,
        )

    def test_validate_rejects_unclosed_and_unknown_parent(self):
        with pytest.raises(TraceError):
            Trace([self._span(1, None, 0.0, None)]).validate()
        with pytest.raises(TraceError):
            Trace([self._span(1, 99, 0.0, 1.0)]).validate()

    def test_validate_rejects_cycle(self):
        a = self._span(1, 2, 0.0, 1.0)
        b = self._span(2, 1, 0.0, 1.0)
        with pytest.raises(TraceError):
            Trace([a, b]).validate()

    def test_union_seconds_merges_overlap(self):
        assert union_seconds([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
        assert union_seconds([]) == 0.0


# -- end-to-end span trees -----------------------------------------------------


class TestQueryTraces:
    def test_trace_on_by_default(self, env):
        result = _run(env, RunConfig.filter_only())
        result.trace.validate()
        assert stage_totals(result.trace) == result.stage_seconds

    def test_tracing_never_changes_simulated_timings(self, env, monkeypatch):
        kept = _run(env, RunConfig.filter_only())
        # A ring that evicts every closed trace at once: the tracer's
        # bookkeeping never reaches the simulator.
        monkeypatch.setattr(tracer_module, "MAX_TRACES", 0)
        evicting = _run(env, RunConfig.filter_only())
        # Bit-identical, not approximately equal.
        assert evicting.execution_seconds == kept.execution_seconds
        assert evicting.data_moved_bytes == kept.data_moved_bytes
        assert evicting.stage_seconds == kept.stage_seconds

    @pytest.mark.parametrize(
        "config",
        [
            RunConfig(label="raw", mode="hive-raw"),
            RunConfig(label="ocs", mode="ocs"),
        ],
        ids=["hive-raw", "ocs"],
    )
    def test_span_tree_structure_and_stage_totals(self, env, config):
        result = _run(env, config)
        trace = result.trace
        trace.validate()
        root = trace.root()
        assert root.name == "query"
        assert root.duration == pytest.approx(result.execution_seconds, abs=1e-15)
        # Every split produced a span parented under the root's trace.
        assert len(trace.find("split-0")) == 1
        # The spans are the Table 3 stage breakdown.
        assert stage_totals(trace, elapsed=result.execution_seconds) == (
            result.stage_seconds
        )

    def test_ocs_trace_crosses_all_layers(self, env):
        result = _run(env, RunConfig(label="ocs", mode="ocs"))
        trace = result.trace
        # client -> rpc -> frontend server -> storage scan, all linked.
        pushdown = trace.first("pushdown")
        rpc = trace.first("rpc:ocs.execute")
        server = trace.first("ocs-frontend.server:ocs.execute")
        scan = trace.first("ocs.scan[0]")
        assert rpc.parent_id == pushdown.span_id
        assert server.parent_id == rpc.span_id
        assert scan.attributes["rows_scanned"] > 0
        # The server span nests inside the client attempt in time too.
        assert rpc.start <= server.start <= server.end <= rpc.end
        assert trace.first("substrait.generate").counters["substrait_plan_bytes"] > 0

    def test_retries_are_one_span_per_attempt(self, env):
        config = RunConfig(
            label="ocs", mode="ocs",
            faults=FaultSpec(transient_storage_failures={0: 2}),
            retry=RetryPolicy(max_attempts=5, initial_backoff_s=0.01),
        )
        result = _run(env, config)
        attempts = result.trace.find("rpc:ocs.execute")
        assert len(attempts) == 3
        assert [s.attributes["attempt"] for s in attempts] == [1, 2, 3]
        assert [s.status for s in attempts] == [
            StatusCode.UNAVAILABLE, StatusCode.UNAVAILABLE, StatusCode.OK,
        ]
        assert attempts[0].attributes["code"] == "UNAVAILABLE"

    def test_downgrade_gets_fallback_span(self, env):
        config = RunConfig(
            label="ocs", mode="ocs",
            faults=FaultSpec(permanent_storage_failures=frozenset({0})),
            retry=RetryPolicy(max_attempts=2, initial_backoff_s=0.01),
        )
        result = _run(env, config)
        trace = result.trace
        trace.validate()
        fallback = trace.first("fallback.raw_get")
        assert fallback.attributes["downgraded"] is True
        assert fallback.counters["fallback_bytes_fetched"] > 0
        # The failed attempts still show, parented under the pushdown span.
        attempts = trace.find("rpc:ocs.execute")
        assert len(attempts) == 2
        assert all(s.status is StatusCode.UNAVAILABLE for s in attempts)

    def test_traces_are_deterministic(self, env):
        config = RunConfig(label="ocs", mode="ocs")
        a, b = _run(env, config).trace, _run(env, config).trace
        assert [(s.name, s.span_id, s.parent_id, s.start, s.end) for s in a] == [
            (s.name, s.span_id, s.parent_id, s.start, s.end) for s in b
        ]


# -- exporters -----------------------------------------------------------------


class TestExporters:
    @pytest.fixture()
    def trace(self, env):
        return _run(env, RunConfig(label="ocs", mode="ocs")).trace

    def test_chrome_export_is_wellformed(self, trace):
        doc = json.loads(export_chrome_trace(trace))
        events = doc["traceEvents"]
        assert len(events) == len(trace.spans)
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert isinstance(event["args"], dict)
        names = {e["name"] for e in events}
        assert {"query", "pushdown", "ocs.scan[0]"} <= names

    def test_chrome_events_preserve_stage(self, trace):
        by_name = {e["name"]: e for e in chrome_trace_events(trace)}
        assert by_name["pushdown"]["args"]["stage"] == "pushdown_and_transfer"
        assert by_name["pushdown"]["cat"] == "pushdown_and_transfer"

    def test_render_tree_shows_hierarchy_and_durations(self, trace):
        text = render_tree(trace)
        lines = text.splitlines()
        assert lines[0].startswith("query")
        assert any("└─" in line or "├─" in line for line in lines)
        assert any("ocs.scan[0]" in line for line in lines)
        assert any("stage=substrait_generation" in line for line in lines)

    def test_counters_render_after_attributes(self, env, trace):
        pushdown = trace.first("pushdown")
        rows = pushdown.counters["ocs_rows_scanned"]
        assert rows > 0 and "rows_scanned" not in pushdown.attributes
        text = env.explain(
            QUERY, RunConfig(label="ocs", mode="ocs"), schema="s", analyze=True
        )
        (line,) = [line for line in text.splitlines() if "─ pushdown  " in line]
        assert f"ocs_rows_scanned={rows}" in line
        assert line.index("node=") < line.index("ocs_row_groups_read=")
        assert line.index("ocs_row_groups_read=") < line.index("ocs_rows_scanned=")
        by_name = {e["name"]: e for e in chrome_trace_events(trace)}
        assert by_name["pushdown"]["args"]["ocs_rows_scanned"] == rows

    def test_explain_analyze_renders_tree_and_stages(self, env):
        text = env.explain(
            QUERY, RunConfig(label="ocs", mode="ocs"), schema="s", analyze=True
        )
        assert "EXPLAIN ANALYZE" in text
        assert "query" in text and "pushdown" in text
        assert "Stage breakdown (derived from spans):" in text
        for stage in (
            "logical_plan_analysis", "substrait_generation",
            "pushdown_and_transfer", "presto_execution", "others",
        ):
            assert stage in text

    def test_plain_explain_does_not_execute(self, env):
        text = env.explain(
            QUERY, RunConfig(label="ocs", mode="ocs"), schema="s", analyze=False
        )
        assert "Stage breakdown" not in text


# -- the Table 3 cross-check ---------------------------------------------------


class TestTable3Trace:
    def test_table3_trace_rederives_stage_totals(self):
        result = run_table3(rows=4096, trace=True)
        check_trace(result)
        assert stage_totals(result.trace) == result.stage_seconds

    def test_table3_without_trace_flag_has_no_trace(self):
        result = run_table3(rows=4096)
        assert result.trace is None
        with pytest.raises(TraceError):
            check_trace(result)


# -- one always-on tracer: no switch, no second ledger ------------------------------


def test_no_tracing_switch_and_no_second_stage_ledger_under_src():
    # The same walk keeps the one compute path single (no exec-backend
    # switch, no backend classes, no tree-vs-fused parity harness) and
    # the spans the only counter ledger: no registry, no ``metrics``
    # argument threaded through the layers, no fabric-wide retry tally.
    # It also keeps one RPC path: ``retrying_call`` is the only caller of
    # ``RpcClient.call``, so no storage or exchange call skips the retry
    # policy.
    root = pathlib.Path(repro.__file__).parent
    banned = {
        "NOOP_TRACER", "NOOP_SPAN", "StageTimer", "StageAccountant",
        "exec_backend", "ExecBackend", "TreeWalkBackend", "FusedBackend",
        "get_backend", "EXEC_BACKENDS", "MetricsRegistry",
    }
    switches = {"tracing", "exec_backend"}
    ledger_args = switches | {"metrics"}
    gone = ("repro.analysis.parity", "repro.exec.backend", "repro.sim.metrics")
    assert not (root / "analysis" / "parity.py").exists()
    assert not (root / "exec" / "backend.py").exists()
    assert not (root / "sim" / "metrics.py").exists()
    #: attribute name -> the classes that define it (field or ``self.x =``).
    owners = {}
    rpc_callers = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{relative}:{getattr(node, 'lineno', '?')}"
            # Names, attributes, definitions and imported aliases.
            for field in ("id", "attr", "name"):
                assert getattr(node, field, None) not in banned, where
            if isinstance(node, ast.keyword):
                assert node.arg not in ledger_args, f"{where}: {node.arg}= keyword"
            if isinstance(node, ast.arg):
                assert node.arg not in ledger_args, f"{where}: {node.arg} parameter"
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                assert node.target.id not in switches, f"{where}: {node.target.id} field"
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [getattr(node, "module", None) or ""]
                modules += [f"{modules[0]}.{alias.name}" for alias in node.names]
                assert not any(m.endswith(gone) for m in modules), where
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert not any(name in node.value for name in gone), where
            if isinstance(node, ast.Attribute) and node.attr == "call":
                rpc_callers.append(where)
            if isinstance(node, ast.Attribute) and node.attr == "enabled":
                owner = ast.unparse(node.value)
                assert not owner.endswith("tracer"), f"{where}: {owner}.enabled"
            if isinstance(node, ast.ClassDef):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.AnnAssign) and isinstance(inner.target, ast.Name):
                        owners.setdefault(inner.target.id, set()).add(node.name)
                    elif (
                        isinstance(inner, ast.Attribute)
                        and isinstance(inner.ctx, ast.Store)
                        and ast.unparse(inner.value) == "self"
                    ):
                        owners.setdefault(inner.attr, set()).add(node.name)
    # The one per-query counter view, summed from the query's trace.
    assert owners.get("metrics") == {"QueryResult"}
    assert "ExchangeFabric" not in owners.get("retries", set())
    assert [where.split(":")[0] for where in rpc_callers] == ["rpc/retry.py"], rpc_callers
