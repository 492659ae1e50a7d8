"""Trace analysis: stage breakdown and counter totals, derived from span trees.

Spans tagged with a ``stage`` attribute are the only stage ledger.  The
paper's breakdown attributes wall time with *union-window* semantics:
windows of the same stage opened by concurrent splits are unioned, so an
interval of wall clock is charged once, not once per split.
:func:`stage_totals` is that union over the tagged spans, and is what
``QueryResult.stage_seconds`` reports.

Spans are also the only counter ledger: each count sits on the span of
the work it measures (:meth:`~repro.trace.span.Span.add`), and
:func:`counter_totals` sums them into ``QueryResult.metrics``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.sim import santrack
from repro.trace.span import Span, Trace

__all__ = [
    "stage_windows",
    "union_seconds",
    "stage_totals",
    "CounterTotals",
    "counter_totals",
    "ServiceQueryBreakdown",
    "service_breakdown",
]


def stage_windows(trace: Trace) -> Dict[str, List[Tuple[float, float]]]:
    """Per-stage list of (start, end) windows from stage-tagged spans."""
    windows: Dict[str, List[Tuple[float, float]]] = {}
    for span in trace.spans:
        stage = span.stage
        if stage is None or span.end is None:
            continue
        windows.setdefault(stage, []).append((span.start, span.end))
    return windows


def union_seconds(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals`` (overlap counted once).

    Each merged run is summed as ``run_end - run_start``, in start order:
    one subtraction per run, so the total is exact to the bit however
    many windows a run merged.
    """
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        total += run_end - run_start
    return total


def stage_totals(trace: Trace, elapsed: Optional[float] = None) -> Dict[str, float]:
    """Per-stage simulated seconds: ``QueryResult.stage_seconds``.

    ``elapsed`` is the query wall time (defaults to the root span's
    duration).  Window union keeps concurrent work *within* one stage
    from double charging, but stages that overlap *each other* (one
    split transferring while another runs operators) can push the raw
    sum past the elapsed time; the totals are then scaled down so the
    breakdown partitions the wall clock.  Serial runs are untouched.
    Stages are keyed in name order.
    """
    if elapsed is None:
        elapsed = trace.root().duration
    totals = {
        stage: union_seconds(windows)
        for stage, windows in sorted(stage_windows(trace).items())
    }
    total = sum(totals.values())
    if total > elapsed > 0:
        scale = elapsed / total
        totals = {stage: seconds * scale for stage, seconds in totals.items()}
    return totals


class CounterTotals(Mapping[str, float]):
    """One query's counters summed over its spans (read-only, name order)."""

    def __init__(self, totals: Dict[str, float]) -> None:
        self._totals = dict(sorted(totals.items()))

    def __getitem__(self, name: str) -> float:
        return self._totals[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._totals)

    def __len__(self) -> int:
        return len(self._totals)

    def value(self, name: str) -> float:
        """The total of ``name`` (0.0 when nothing counted it)."""
        return self._totals.get(name, 0.0)

    def snapshot(self) -> Dict[str, float]:
        """Every total, keyed in name order (zero-valued keys included)."""
        return dict(self._totals)


def counter_totals(trace: Trace) -> CounterTotals:
    """Per-counter sums over every span of ``trace``: ``QueryResult.metrics``.

    Every amount is an integer, so the sum is exact in any span order.
    Each read is recorded for SimTSan.
    """
    sanitizer = santrack.active()
    totals: Dict[str, float] = {}
    for span in trace.spans:
        for name, amount in (span.counters or {}).items():
            if sanitizer is not None:
                sanitizer.record_read(("counter", id(span), name), "counter_totals")
            totals[name] = totals.get(name, 0.0) + amount
    return CounterTotals(totals)


# --------------------------------------------------------------------------
# Service traces: many per-query trees in one tracer
# --------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class ServiceQueryBreakdown:
    """Span-derived timing of one query under the multi-tenant service.

    Re-derives, from the span tree alone, the numbers the SLO reporter
    computes from job records: total latency, time spent queued behind
    admission, and execution time on the cluster.  ``queue_s +
    execution_s <= latency_s``; the gap (if any) is service bookkeeping
    at the admission instant, which is zero-width in simulated time.
    """

    trace_id: int
    tenant: str
    query_id: str
    label: str
    status: Optional[str]
    latency_s: float
    queue_s: float
    execution_s: float


def service_breakdown(spans: List[Span]) -> List[ServiceQueryBreakdown]:
    """Per-query breakdowns from a service tracer's flat span list.

    The service opens one ``service.query`` root per submission (each
    with its own trace id), a ``queue`` child covering admission-to-
    dispatch, and the coordinator's ``query`` child covering execution.
    Returns one row per root, in root start order (arrival order).
    """
    by_trace: Dict[int, List[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    rows: List[ServiceQueryBreakdown] = []
    for members in by_trace.values():
        root = next(
            (s for s in members if s.name == "service.query" and s.parent_id is None),
            None,
        )
        if root is None or root.end is None:
            continue
        queue = sum(
            s.duration for s in members
            if s.name == "queue" and s.parent_id == root.span_id
        )
        execution = sum(
            s.duration for s in members
            if s.name == "query" and s.parent_id == root.span_id
        )
        status = root.attributes.get("status")
        rows.append(
            ServiceQueryBreakdown(
                trace_id=root.trace_id,
                tenant=str(root.attributes.get("tenant", "")),
                query_id=str(root.attributes.get("query_id", "")),
                label=str(root.attributes.get("label", "")),
                status=str(status) if status is not None else None,
                latency_s=root.duration,
                queue_s=queue,
                execution_s=execution,
            )
        )
    rows.sort(key=lambda r: (r.query_id, r.trace_id))
    return rows
