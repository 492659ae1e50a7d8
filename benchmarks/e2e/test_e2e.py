"""Self-tests of the benchmark, at shrunken sizes.

    python -m pytest benchmarks/e2e -q

Not part of the tier-1 ``testpaths``: these check the measuring instrument,
not the program.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import harness
import run
import spans
import workloads
from harness import run_workload
from metrics import END_TO_END, PER_LAYER
from workloads import TINY, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SIMULATED = ("sim_pass_s", "sim_latency_p50_s", "sim_latency_p95_s", "moved_bytes")


def tiny(name, trace, seed=0):
    return run_workload(name, seed, 0.2, trace, sizes=TINY, min_passes=2, setups=2)


@pytest.fixture(scope="module")
def end_to_end():
    return {name: tiny(name, trace=False) for name in WORKLOADS}


@pytest.fixture(scope="module")
def per_layer():
    return {name: tiny(name, trace=True) for name in WORKLOADS}


# -- the contract ----------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert sorted(spec) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(PER_LAYER)


def test_names_units_and_limits():
    names = [w for w in WORKLOADS] + [m[0] for m in END_TO_END] + [m[0] for m in PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    for metric in (*END_TO_END, *PER_LAYER):
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", metric[1])
        assert metric[2] in ("higher", "lower")
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS.values())
    bounds = {name: bound for name, _, _, bound in END_TO_END}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_workload_reports_every_end_to_end_metric(end_to_end):
    for name, outcome in end_to_end.items():
        assert outcome.correct and outcome.failed == 0 and outcome.attempted >= 1
        assert list(outcome.metrics) == [m[0] for m in END_TO_END], name
        for metric, unit, _, _ in END_TO_END:
            value, reported_unit = outcome.metrics[metric]
            assert reported_unit == unit
            assert value > 0, (name, metric)
        line = json.loads(outcome.json_line())
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]


def test_every_workload_reports_every_layer_metric(per_layer):
    for name, outcome in per_layer.items():
        assert outcome.correct, (name, outcome.notes)
        assert list(outcome.metrics) == [m[0] for m in PER_LAYER], name
        assert outcome.metrics["bench.trace_overhead_ratio"][0] > 0
        assert outcome.metrics["bench.fail_ratio"][0] == 0


# -- two clocks --------------------------------------------------------------------


def test_simulated_metrics_repeat_exactly(end_to_end):
    for name, first in end_to_end.items():
        again = tiny(name, trace=False)
        for metric in SIMULATED:
            assert again.metrics[metric] == first.metrics[metric], (name, metric)


def test_traced_and_untraced_passes_agree():
    workload = WORKLOADS["join_exchange"]
    state = workload.setup(0, TINY)
    workload.reference(state)
    plain = workload.run_pass(state)
    with spans.SpanRecorder() as recorder:
        traced = workload.run_pass(state, recorder)
    assert recorder.spans
    assert harness._sim_signature(traced) == harness._sim_signature(plain)
    assert traced.counters == plain.counters


def test_seed_changes_the_inputs(end_to_end):
    other = tiny("scan_pushdown", trace=False, seed=1)
    assert other.metrics["moved_bytes"] != end_to_end["scan_pushdown"].metrics["moved_bytes"]


# -- spans ---------------------------------------------------------------------------


def test_span_wrappers_restore_every_original():
    recorder = spans.SpanRecorder()
    before = recorder.resolved()
    recorder.install()
    during = recorder.resolved()
    recorder.uninstall()
    after = recorder.resolved()
    assert len(before) == len(spans.BOUNDARIES)
    for (target, original), (_, wrapped), (_, restored) in zip(before, during, after):
        assert wrapped is not original, target
        assert restored is original, target
    # No module global anywhere still points at a wrapper.
    wrappers = {id(wrapped) for _, wrapped in during}
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            assert not [k for k, v in vars(module).items() if id(v) in wrappers]


def test_self_times_partition_each_op():
    workload = WORKLOADS["scan_pushdown"]
    state = workload.setup(0, TINY)
    workload.reference(state)
    workload.run_pass(state)
    with spans.SpanRecorder() as recorder:
        traced = workload.run_pass(state, recorder)
    own = spans.self_times(recorder.spans)
    assert all(seconds >= -1e-9 for seconds in own)
    for index, op in enumerate(traced.ops):
        inside = sum(s for span, s in zip(recorder.spans, own) if span.op_id == index)
        roots = sum(
            span.seconds for span in recorder.spans
            if span.op_id == index and span.parent < 0
        )
        assert inside == pytest.approx(roots)
        # What the op spends outside any span is the client facade and the
        # harness's own timing: a small, bounded share.
        assert roots <= op.wall_s
        assert op.wall_s - roots < 0.25 * op.wall_s + 2e-3, op.name


def test_layer_contrast(per_layer):
    def value(workload, metric):
        return per_layer[workload].metrics[metric][0]

    layer_names = [m[0] for m in PER_LAYER]
    for workload in per_layer:
        if workload != "join_exchange":
            assert value(workload, "rewrite.rules_fired") == 0
            assert all(value(workload, m) == 0 for m in layer_names
                       if m.startswith("exchange."))
        if workload != "service_mix":
            assert all(value(workload, m) == 0 for m in layer_names
                       if m.startswith(("cache.", "service.")))
    assert value("join_exchange", "rewrite.rules_fired") > 0
    assert value("join_exchange", "exchange.bytes") > 0
    assert value("join_exchange", "exchange.dynamic_rows_pruned") > 0
    assert value("scan_baseline", "ocs.execute_ms") == 0
    assert value("scan_baseline", "hive.raw_bytes_fetched") > 0
    assert value("scan_pushdown", "ocs.execute_ms") > 0
    assert value("scan_pushdown", "hive.fetch_calls") == 0
    assert value("codec_ingest", "compress.decompress_ms.zstd") > 0
    assert value("codec_ingest", "formats.stored_bytes_per_raw_byte.gzip") > 0
    assert value("service_mix", "cache.evictions") > 0
    assert value("service_mix", "cache.stale_drops") > 0
    assert value("service_mix", "trace.spans") > 0


# -- the oracle -----------------------------------------------------------------------


def test_injected_wrong_result_is_a_failed_op(monkeypatch):
    real = workloads.run_reference

    def sabotaged(state, queries):
        real(state, queries)
        sql, schema = workloads.SCAN_QUERIES["q1"]
        wrong = state.client.execute(sql, workloads.NONE, schema=schema)
        state.oracle.expect("q6", wrong.batch)

    monkeypatch.setattr(workloads, "run_reference", sabotaged)
    outcome = tiny("scan_pushdown", trace=True)
    assert not outcome.correct
    assert outcome.failed > 0
    assert outcome.metrics["bench.fail_ratio"][0] > 0
    assert any("FAILED q6/" in note for note in outcome.notes)


def test_stale_service_result_is_a_mismatch():
    workload = WORKLOADS["service_mix"]
    state = workload.setup(0, TINY)
    workload.reference(state)
    template = next(i for i, t in enumerate(state.templates) if t.versioned)
    # The two lineitem versions answer differently, so a result served from
    # before the ingest cannot pass the post-ingest check.
    before = state.client.execute(state.templates[template].sql, workloads.NONE,
                                  schema="tpch")
    assert state.oracle.check((template, "a"), before.batch)
    assert not state.oracle.check((template, "b"), before.batch)


def test_canonical_form_ignores_row_order_and_summation_noise():
    from oracle import canonicalise
    from repro.arrowsim import RecordBatch

    import numpy as np

    a = RecordBatch.from_arrays({"k": np.array([1, 2]), "v": np.array([0.1 + 0.2, 7.0])})
    b = RecordBatch.from_arrays({"k": np.array([2, 1]), "v": np.array([7.0, 0.3])})
    c = RecordBatch.from_arrays({"k": np.array([2, 1]), "v": np.array([7.0, 0.31])})
    assert canonicalise(a).matches(canonicalise(b))
    assert canonicalise(a).digest == canonicalise(b).digest
    assert not canonicalise(a).matches(canonicalise(c))


# -- hygiene ---------------------------------------------------------------------------


def test_only_the_stable_surface_is_imported():
    forbidden = re.compile(
        r"repro\.bench\.(figure5|figure6|join|cache|dag|rewrite|service|kernels|snapshot)\b"
    )
    imports = re.compile(r"^\s*(from|import)\s+(repro[\w.]*)", re.MULTILINE)
    for filename in os.listdir(HERE):
        if not filename.endswith(".py") or filename.startswith("test_"):
            continue
        with open(os.path.join(HERE, filename), encoding="utf-8") as handle:
            source = handle.read()
        for _, module in imports.findall(source):
            assert not forbidden.match(module), (filename, module)
            # Of the harness package only Environment/RunConfig's home is stable.
            assert not module.startswith("repro.bench") or module == "repro.bench.env"
    for boundary in spans.BOUNDARIES:
        assert not forbidden.match(boundary.target.split(":")[0])


def test_children_run_single_threaded_with_fixed_hashing():
    env = run.child_environment()
    assert env["PYTHONHASHSEED"] == "0"
    assert {env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS")} == {"1"}


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "scan_pushdown",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
