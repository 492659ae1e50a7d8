"""repro.trace — spans-based distributed tracing in simulated time.

The observability layer the paper's EventListener monitoring hints at
(Section 4), threaded through the whole query path: the coordinator
opens a root span per query; parse/analyze/plan/optimize, per-split
scheduling and page sources, every RPC *attempt* (tagged with its status
code), the OCS frontend's plan decode, the storage node's embedded scan,
and the degraded raw-GET fallback each get child spans.  Context crosses
the RPC boundary as a :class:`SpanContext` riding the frame.

Three exporters: the in-memory collector (``tracer.trace()`` /
``QueryResult.trace``), a Chrome ``chrome://tracing`` JSON file, and a
text tree renderer surfaced as ``EXPLAIN ANALYZE``.

Tracing is always on and is the only stage and counter ledger: Table
3's ``stage_seconds`` are derived from stage-tagged spans, and
``QueryResult.metrics`` sums the counts each span recorded
(:func:`counter_totals`).  Each tracer keeps
the last :data:`~repro.trace.tracer.MAX_TRACES` traces (ring retention)
and never touches the simulation.  See ``docs/OBSERVABILITY.md`` for the
span taxonomy.
"""

from repro.trace.analysis import (
    CounterTotals,
    ServiceQueryBreakdown,
    counter_totals,
    service_breakdown,
    stage_totals,
    stage_windows,
    union_seconds,
)
from repro.trace.export import (
    chrome_trace_events,
    export_chrome_trace,
    render_tree,
    write_chrome_trace,
)
from repro.trace.span import STAGE_KEY, Span, SpanContext, Trace
from repro.trace.tracer import MAX_TRACES, Tracer

__all__ = [
    "CounterTotals",
    "MAX_TRACES",
    "STAGE_KEY",
    "ServiceQueryBreakdown",
    "Span",
    "SpanContext",
    "Trace",
    "Tracer",
    "chrome_trace_events",
    "counter_totals",
    "export_chrome_trace",
    "render_tree",
    "service_breakdown",
    "stage_totals",
    "stage_windows",
    "union_seconds",
    "write_chrome_trace",
]
