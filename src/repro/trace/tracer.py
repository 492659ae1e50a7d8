"""The tracer: span production bound to a (simulated) clock.

One :class:`Tracer` lives on each :class:`~repro.engine.cluster.Cluster`
and is shared by every component on it — coordinator, RPC channel, OCS
frontend, storage nodes — so spans from all layers land in one in-memory
collector with consistent identifiers.

Tracing is **zero-cost when off**: a disabled tracer (the default, and
the :data:`NOOP_TRACER` singleton injected where no tracer is wired)
hands out one shared no-op span and records nothing.  Crucially the
tracer never touches the simulation — it schedules no events and charges
no cycles — so enabling it cannot perturb simulated timings: a traced
healthy run is bit-identical in time to an untraced one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import StatusCode
from repro.trace.span import STAGE_KEY, Span, SpanContext, Trace

__all__ = ["Tracer", "NOOP_TRACER", "NOOP_SPAN"]


class _NoopSpan(Span):
    """Shared inert span handed out by disabled tracers."""

    def set(self, key: str, value: object) -> "Span":
        return self

    def record_error(self, code: "StatusCode | str") -> "Span":
        return self


#: The span returned by a disabled tracer; attribute writes are dropped.
NOOP_SPAN = _NoopSpan(
    name="noop", context=SpanContext(trace_id=0, span_id=0), parent_id=None, start=0.0
)


class Tracer:
    """Produces spans stamped with the bound clock; collects finished ones."""

    def __init__(self, clock: Callable[[], float], enabled: bool = True) -> None:
        #: Returns the current *simulated* time (``lambda: sim.now``).
        self.clock = clock
        self.enabled = enabled
        self._spans: List[Span] = []
        #: The same spans bucketed by ``trace_id`` as they are recorded,
        #: so assembling one query's trace never rescans the others.
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
        window for Table 3 stage re-derivation.
        """
        if not self.enabled:
            return NOOP_SPAN
        if isinstance(parent, Span):
            parent = parent.context
        if parent is NOOP_SPAN.context:
            parent = None
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
        self._spans.append(span)
        self._by_trace.setdefault(trace_id, []).append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span`` at the current instant; idempotent, noop-safe."""
        if span is NOOP_SPAN or span.end is not None:
            return
        span.end = self.clock()

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

    # -- collection -----------------------------------------------------------

    @property
    def recording(self) -> bool:
        return self.enabled

    def spans(self) -> List[Span]:
        return list(self._spans)

    def trace(self, root: Optional[Span] = None) -> Trace:
        """The collected spans as a :class:`Trace`.

        With ``root`` given, only that query's spans (same ``trace_id``)
        are included — a long-lived cluster may serve several queries.
        """
        if root is None:
            return Trace(self._spans)
        return Trace(self._by_trace.get(root.trace_id, []))

    def clear(self) -> None:
        self._spans.clear()
        self._by_trace.clear()


#: Default tracer wired into components when tracing is off: records
#: nothing, costs (almost) nothing.
NOOP_TRACER = Tracer(clock=lambda: 0.0, enabled=False)
