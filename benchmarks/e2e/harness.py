"""One workload, one process: set-up, reference, passes, traced pass, metrics.

Run shape (every workload)::

    set-up x3 (timed, median -> setup_s)
    reference (untimed, no pushdown, caching off) + one warm-up pass
    timed passes until --seconds have been measured, at least MIN_PASSES
    [--trace 1 only] one traced set-up and one traced pass (spans.py)

Two clocks, always labelled.  *Host* metrics (``setup_s``, ``wall_pass_s``,
``peak_rss_mb``) are Python + numpy actually running, taken over repeats.
*Simulated* metrics (``sim_*``, ``moved_bytes``) are the cost model's answer:
they are read from one pass and must be identical on every pass of a seed,
traced or not — a difference makes the run incorrect.

``run.py`` starts this file in a child process with the noise-hygiene
environment; it also works standalone (``python benchmarks/e2e/harness.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from metrics import CODECS, END_TO_END, HOST_METRICS, PER_LAYER, STAGES

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

#: Counters the program already exposes -> the layer metric they feed.
COUNTER_METRICS = {
    "pushdown_operators": "core.pushdown_operators",
    "substrait_plan_bytes": "substrait.plan_bytes",
    "pushdown_retries": "rpc.retries",
    "exchange_retries": "rpc.retries",
    "ocs_rows_scanned": "ocs.rows_scanned",
    "ocs_rows_returned": "ocs.rows_returned",
    "ocs_row_groups_read": "ocs.row_groups_read",
    "ocs_row_groups_pruned": "ocs.row_groups_pruned",
    "ocs_stored_bytes_read": "ocs.stored_bytes_read",
    "raw_bytes_fetched": "hive.raw_bytes_fetched",
    "rows_into_filter": "exec.rows_into_filter",
    "rows_into_aggregate": "exec.rows_into_aggregate",
    "rows_into_hashjoin": "exec.rows_into_hashjoin",
    "exchange_bytes": "exchange.bytes",
    "exchange_pages": "exchange.pages",
    "ocs_dynamic_rows_pruned": "exchange.dynamic_rows_pruned",
    "splits": "engine.splits",
    "cache.result_hits": "cache.result_hits",
    "cache.split_hits": "cache.split_hits",
    "cache.page_hits": "cache.page_hits",
    "cache.evictions": "cache.evictions",
    "cache.stale_drops": "cache.stale_drops",
    "service.completed": "service.completed",
    "service.rejected": "service.rejected",
}

#: Write-path span buckets of the traced set-up -> the ``setup.*`` metric.
SETUP_BUCKETS = {
    "workloads.generate_ms": "setup.generate_ms",
    "formats.write_ms": "setup.write_ms",
    "metastore.stats_ms": "setup.stats_ms",
    **{f"compress.compress_ms.{c}": "setup.compress_ms" for c in CODECS},
}

MIN_PASSES = 7
#: Set-up repeats: at least SETUPS, and a cheap set-up is repeated (at most
#: SETUP_MAX times) until SETUP_MIN_SECONDS were measured, so that a
#: millisecond-scale median is not one noisy sample.
SETUPS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX = 15
#: Untraced passes a ``--trace 1`` run takes before the traced one.
TRACE_BASELINE_PASSES = 3
#: A pass whose wall clock exceeds its CPU time by more than this was
#: descheduled or swapped; it is reported, never dropped.
DISTURBED_WALL_OVER_CPU = 1.15


@dataclass
class Outcome:
    """What one run reports."""

    workload: str
    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    correct: bool
    notes: List[str] = field(default_factory=list)

    def json_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        })


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation, so it repeats exactly)."""
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def _sim_signature(result) -> tuple:
    return (result.sim_pass_s, tuple(result.sim_latencies), result.moved_bytes)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes=None,
    trace_out: Optional[str] = None,
    min_passes: int = MIN_PASSES,
    setups: int = SETUPS,
) -> Outcome:
    """Run one workload in this process and assemble its metrics."""
    from repro.analysis import strict_sanitize_enabled, strict_verify_enabled

    from spans import SpanRecorder
    from workloads import FULL, WORKLOADS

    if strict_verify_enabled() or strict_sanitize_enabled():
        raise RuntimeError("benchmarks run with strict_verify/strict_sanitize off")
    workload = WORKLOADS[name]
    sizes = FULL if sizes is None else sizes
    notes: List[str] = []

    if trace:
        # Traced once, so the write path's layers can be read off the spans.
        setup_recorder = SpanRecorder()
        setup_recorder.op_id = 0
        with setup_recorder:
            state = workload.setup(seed, sizes)
        setup_seconds: List[float] = []
    else:
        state, setup_seconds = _repeat_setup(workload, seed, sizes, setups)

    workload.reference(state)
    warm_up = workload.run_pass(state)
    wanted, budget = (TRACE_BASELINE_PASSES, 0.0) if trace else (min_passes, seconds)
    passes = []
    measured = 0.0
    while len(passes) < wanted or measured < budget:
        gc.collect()
        result = workload.run_pass(state)
        passes.append(result)
        measured += result.wall_s
    checked = [warm_up, *passes]

    metrics: Dict[str, Tuple[float, str]] = {}
    if trace:
        gc.collect()
        recorder = SpanRecorder()
        with recorder:
            traced = workload.run_pass(state, recorder)
        checked.append(traced)
        if trace_out:
            recorder.write(trace_out)
        values = layer_metrics(
            recorder.spans, setup_recorder.spans, traced, passes,
            workload.extras(state),
        )
        for metric, unit, _ in PER_LAYER:
            metrics[metric] = (float(values.get(metric, 0.0)), unit)
    else:
        latencies = passes[0].sim_latencies
        values = {
            "setup_s": statistics.median(setup_seconds),
            "wall_pass_s": undisturbed_pass_seconds(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_pass_s": passes[0].sim_pass_s,
            "sim_latency_p50_s": percentile(latencies, 50),
            "sim_latency_p95_s": percentile(latencies, 95),
            "moved_bytes": float(passes[0].moved_bytes),
        }
        for metric, unit, _, _ in END_TO_END:
            metrics[metric] = (values[metric], unit)
        notes.append(f"setups {len(setup_seconds)}  passes {len(passes)}  "
                     f"ops/pass {len(passes[0].ops)}  "
                     f"sim latency samples {len(latencies)}  median pass "
                     f"{statistics.median(p.wall_s for p in passes):.6f} s")

    signature = _sim_signature(warm_up)
    deterministic = all(_sim_signature(p) == signature for p in checked)
    if not deterministic:
        notes.append("SIMULATED METRICS DIFFER BETWEEN PASSES OF ONE SEED")
    disturbed = [i for i, p in enumerate(passes) if _wall_over_cpu(p) > DISTURBED_WALL_OVER_CPU]
    if disturbed:
        notes.append(f"disturbed passes (wall/cpu > {DISTURBED_WALL_OVER_CPU}): {disturbed}")
    ops = [op for result in checked for op in result.ops]
    for op in ops:
        if op.failed:
            notes.append(f"FAILED {op.name}: {op.failed}/{op.attempted}")
    failed = sum(op.failed for op in ops)
    return Outcome(
        workload=name,
        metrics=metrics,
        attempted=sum(op.attempted for op in ops),
        failed=failed,
        correct=deterministic and failed == 0,
        notes=notes,
    )


def _repeat_setup(workload, seed: int, sizes, setups: int):
    """Set up several times; returns the last state and every duration."""
    durations: List[float] = []
    state = None
    while len(durations) < setups or (
        sum(durations) < SETUP_MIN_SECONDS and len(durations) < SETUP_MAX
    ):
        state = None  # let the previous set-up's memory go first
        gc.collect()
        started = perf_counter()
        state = workload.setup(seed, sizes)
        durations.append(perf_counter() - started)
    return state, durations


def undisturbed_pass_seconds(passes) -> float:
    """Host seconds of one pass with every op at its fastest observed.

    This box's noise is one-sided and lasts seconds: an identical pure-CPU
    loop runs up to 45% slower for stretches longer than a pass, in CPU time
    as much as in wall time, so the median pass inherits it (README,
    "Steadiness").  An op is short enough to fall inside a quiet stretch on
    some pass; the sum of per-op minima over the passes is the steadiest
    estimate of what the code costs.  The median pass is printed beside it.
    """
    return sum(min(ops, key=lambda op: op.wall_s).wall_s
               for ops in zip(*(p.ops for p in passes)))


def _wall_over_cpu(result) -> float:
    return result.wall_s / result.cpu_s if result.cpu_s > 0 else float("inf")


def layer_metrics(spans, setup_spans, traced, passes, extras) -> Dict[str, float]:
    """Per-layer numbers of one traced pass (plus the traced set-up)."""
    from spans import OCS_TARGET, self_times

    out: Dict[str, float] = dict(extras)

    def add(metric: str, amount: float) -> None:
        out[metric] = out.get(metric, 0.0) + amount

    # W: self time per bucket.  ``repro.exec`` kernels running beneath the
    # embedded engine are storage-tier work and go to ``ocs.kernel_ms``.
    own = self_times(spans)
    at_storage: List[bool] = []
    for span, seconds in zip(spans, own):
        storage = span.name == OCS_TARGET or (span.parent >= 0 and at_storage[span.parent])
        at_storage.append(storage)
        bucket = "ocs.kernel_ms" if storage and span.layer == "exec" else span.bucket
        add(bucket, seconds * 1e3)
        if span.parent < 0:
            add("engine.execute_ms", span.seconds * 1e3)
        for counter, amount in (span.counters or {}).items():
            add(counter, amount)
    for span, seconds in zip(setup_spans, self_times(setup_spans)):
        if span.bucket in SETUP_BUCKETS:
            add(SETUP_BUCKETS[span.bucket], seconds * 1e3)
        add("setup.put_bytes", (span.counters or {}).get("objectstore.put_bytes", 0))

    # C: counters the program already exposes.
    for counter, metric in COUNTER_METRICS.items():
        add(metric, traced.counters.get(counter, 0.0))
    for stage in STAGES:
        out[f"engine.sim_stage_s.{stage}"] = traced.stage_s.get(stage, 0.0)
    out["core.sim_analysis_s"] = traced.stage_s.get("logical_plan_analysis", 0.0)
    out["core.sim_substrait_s"] = traced.stage_s.get("substrait_generation", 0.0)
    if traced.storage_busy:
        out["ocs.sim_storage_busy"] = statistics.fmean(traced.storage_busy)

    # D: derived.
    def ratio(metric: str, numerator: float, denominator: float) -> None:
        out[metric] = numerator / denominator if denominator else 0.0

    ratio("ocs.useful_row_ratio", out["ocs.rows_returned"], out["ocs.rows_scanned"])
    ratio("exchange.dynamic_useful_ratio",
          out["exchange.dynamic_rows_pruned"], out["ocs.rows_scanned"])
    ratio("core.pushdown_speedup_sim", traced.reference_sim_s, traced.pushed_sim_s)
    if traced.reference_moved:
        out["core.movement_reduction"] = 1.0 - traced.pushed_moved / traced.reference_moved
    ratio("cache.hit_ratio", out["cache.result_hits"],
          traced.counters.get("cache.result_lookups", 0.0))
    ratio("sim.wall_us_per_event", out.get("sim.self_ms", 0.0) * 1e3,
          out.get("sim.events", 0.0))

    # The harness's own numbers come from the untraced passes.
    out["bench.trace_overhead_ratio"] = traced.wall_s / statistics.median(
        p.wall_s for p in passes
    )
    out["bench.wall_over_cpu"] = statistics.median(_wall_over_cpu(p) for p in passes)
    out["bench.passes"] = len(passes)
    out["bench.disturbed_passes"] = sum(
        _wall_over_cpu(p) > DISTURBED_WALL_OVER_CPU for p in passes
    )
    ops = [op for p in passes for op in p.ops]
    out["engine.op_wall_ms_p95"] = percentile(
        [op.wall_s / op.attempted * 1e3 for op in ops], 95
    )
    ops += traced.ops
    ratio("bench.fail_ratio", sum(op.failed for op in ops),
          sum(op.attempted for op in ops))
    return out


def report(outcome: Outcome, stream=None) -> None:
    """Every metric by name with its unit, then the one-line JSON result."""
    stream = sys.stdout if stream is None else stream
    print(f"workload {outcome.workload}", file=stream)
    for name, (value, unit) in outcome.metrics.items():
        clock = "host" if name in HOST_METRICS else (
            "sim" if name.startswith("sim_") or name == "moved_bytes" else "")
        print(f"  {name:<44} {value:>18.6f} {unit:<6} {clock}", file=stream)
    for note in outcome.notes:
        print(f"  # {note}", file=stream)
    print(f"  # attempted {outcome.attempted}  failed {outcome.failed}  "
          f"correct {outcome.correct}", file=stream)
    print(outcome.json_line(), file=stream)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None,
                        help="with --trace 1, write the traced pass's spans here")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"no program to benchmark: {SOURCE}/repro is missing", file=sys.stderr)
        return 2
    # The checkout's source wins over any installed copy of the package.
    sys.path.insert(0, SOURCE)
    outcome = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        trace_out=args.trace_out,
    )
    report(outcome)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
