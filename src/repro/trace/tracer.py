"""The tracer: span production bound to a (simulated) clock.

One :class:`Tracer` lives on each :class:`~repro.engine.cluster.Cluster`
and is shared by every component on it — coordinator, RPC channel, OCS
frontend, storage nodes — so spans from all layers land in one in-memory
collector with consistent identifiers.

Tracing is **always on**, and the spans are the only stage ledger: the
Table 3 breakdown (``QueryResult.stage_seconds``) is derived from them.
Memory stays bounded by ring retention — the collector keeps the last
:data:`MAX_TRACES` traces, evicting the oldest *closed* ones first and
never a trace whose root span is still open.  A :class:`Trace` already
handed out (``QueryResult.trace``) is a copy and survives eviction.  The
tracer never touches the simulation — it schedules no events and
charges no cycles — so it cannot perturb simulated timings.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import islice
from typing import Callable, ClassVar, Dict, Iterator, List, Optional

from repro.errors import StatusCode
from repro.trace.span import STAGE_KEY, Span, SpanContext, Trace

__all__ = ["MAX_TRACES", "Tracer"]

#: Ring retention: how many traces one tracer holds before it evicts the
#: oldest closed ones.  A constant, not a knob — a query's own trace is
#: captured on its :class:`~repro.engine.coordinator.QueryResult`.
MAX_TRACES = 64


class Tracer:
    """Produces spans stamped with the bound clock; retains recent traces."""

    #: Tracing cannot be switched off; instrumentation that reads this
    #: flag always sees ``True``.
    enabled: ClassVar[bool] = True

    def __init__(self, clock: Callable[[], float]) -> None:
        #: Returns the current *simulated* time (``lambda: sim.now``).
        self.clock = clock
        #: The one store: spans bucketed by ``trace_id`` in recording
        #: order.  Trace ids are allocated in order, so dict order is
        #: trace-id order — the eviction order.
        self._by_trace: Dict[int, List[Span]] = {}
        self._next_span_id = 1
        self._next_trace_id = 1

    # -- span production ------------------------------------------------------

    def start(
        self,
        name: str,
        parent: "Span | SpanContext | None" = None,
        stage: Optional[str] = None,
        attributes: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Open a span at the current simulated instant.

        ``parent`` may be a :class:`Span`, a :class:`SpanContext` (as
        received across an RPC boundary), or ``None`` for a root span —
        root spans get a fresh ``trace_id``.  ``stage`` tags the span's
        window for the Table 3 stage ledger.
        """
        if isinstance(parent, Span):
            parent = parent.context
        if parent is None:
            trace_id = self._next_trace_id
            self._next_trace_id += 1
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(
            name=name,
            context=SpanContext(trace_id=trace_id, span_id=self._next_span_id),
            parent_id=parent_id,
            start=self.clock(),
            attributes=dict(attributes) if attributes else {},
        )
        self._next_span_id += 1
        if stage is not None:
            span.attributes[STAGE_KEY] = stage
        bucket = self._by_trace.get(trace_id)
        if bucket is None:
            self._by_trace[trace_id] = [span]
            self._evict()
        else:
            bucket.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span`` at the current instant; idempotent."""
        if span.end is not None:
            return
        span.end = self.clock()
        if span.parent_id is None:
            self._evict()

    @contextmanager
    def span(
        self,
        name: str,
        parent: "Span | SpanContext | None" = None,
        stage: Optional[str] = None,
        attributes: Optional[Dict[str, object]] = None,
    ) -> Iterator[Span]:
        """Context-managed span; failures mark the span before closing it."""
        span = self.start(name, parent=parent, stage=stage, attributes=attributes)
        try:
            yield span
        except BaseException as exc:
            code = getattr(exc, "code", None)
            span.record_error(code if isinstance(code, StatusCode) else StatusCode.INTERNAL)
            raise
        finally:
            self.end(span)

    def _evict(self) -> None:
        """Drop the oldest closed traces until at most MAX_TRACES remain.

        A trace is held while the first span it recorded (its root) is
        open, so an in-flight query never loses spans.
        """
        excess = len(self._by_trace) - MAX_TRACES
        if excess <= 0:
            return
        closed = (
            trace_id for trace_id, spans in self._by_trace.items()
            if spans[0].end is not None
        )
        for trace_id in list(islice(closed, excess)):
            del self._by_trace[trace_id]

    # -- collection -----------------------------------------------------------

    def spans(self) -> List[Span]:
        """Every retained span, in recording (``span_id``) order."""
        return sorted(
            (span for spans in self._by_trace.values() for span in spans),
            key=lambda span: span.span_id,
        )

    def trace(self, root: Optional[Span] = None) -> Trace:
        """The retained spans as a :class:`Trace`.

        With ``root`` given, only that query's spans (same ``trace_id``)
        are included — a long-lived cluster may serve several queries.
        """
        if root is None:
            return Trace(self.spans())
        return Trace(self._by_trace.get(root.trace_id, []))
