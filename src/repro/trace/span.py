"""Spans and traces: the data model of the distributed tracing subsystem.

A :class:`Span` is one named, timed operation in *simulated* time with a
parent link, free-form attributes (rows, bytes, attempt number, node
index, ...) and the counts of the work it did (:meth:`Span.add`).  A
:class:`Trace` is the queryable collection of spans that one query run
produced — the structure behind ``QueryResult.trace``, ``QueryResult.metrics``,
``EXPLAIN ANALYZE``, and the exporters in :mod:`repro.trace.export`.

Span identifiers are small sequential integers assigned by the tracer,
so a run with a fixed seed produces a bit-identical trace — the property
the determinism tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.errors import StatusCode, TraceError
from repro.sim import santrack

__all__ = ["SpanContext", "Span", "Trace", "STAGE_KEY"]

#: Reserved attribute key linking a span to a Table 3 stage bucket.
STAGE_KEY = "stage"


@dataclass(frozen=True)
class SpanContext:
    """What crosses a process/service boundary: just the identifiers.

    In a real deployment this is the W3C ``traceparent`` header riding
    gRPC metadata; here it is passed alongside the simulated RPC frame
    (metadata is already budgeted by the channel's fixed per-frame
    overhead, so propagation adds no simulated bytes or time).
    """

    trace_id: int
    span_id: int


@dataclass
class Span:
    """One timed operation; ``end`` is ``None`` while still open."""

    name: str
    context: SpanContext
    parent_id: Optional[int]
    start: float
    end: Optional[float] = None
    attributes: Dict[str, object] = field(default_factory=dict)
    status: StatusCode = StatusCode.OK
    #: Counts of the work this span did, apart from ``attributes`` so
    #: renderers and digests never see them; ``None`` until :meth:`add`.
    counters: Optional[Dict[str, float]] = None

    @property
    def span_id(self) -> int:
        return self.context.span_id

    @property
    def trace_id(self) -> int:
        return self.context.trace_id

    @property
    def duration(self) -> float:
        """Simulated seconds from start to end (0.0 while open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def stage(self) -> Optional[str]:
        """The Table 3 stage this span's window is attributed to, if any."""
        stage = self.attributes.get(STAGE_KEY)
        return str(stage) if stage is not None else None

    def set(self, key: str, value: object) -> "Span":
        self.attributes[key] = value
        return self

    def add(self, name: str, amount: float) -> "Span":
        """Count ``amount`` of ``name`` against this span's work.

        ``add(name, 0)`` still creates the key; counts never decrease.
        Recorded for SimTSan as a commutative update.
        """
        sanitizer = santrack.active()
        if sanitizer is not None:
            sanitizer.record_update(("counter", id(self), name), "span.add")
        if amount < 0:
            raise ValueError(f"counter {name!r} cannot decrease (got {amount})")
        counters = self.counters
        if counters is None:
            counters = self.counters = {}
        counters[name] = counters.get(name, 0) + amount
        return self

    def record_error(self, code: "StatusCode | str") -> "Span":
        """Mark the span failed and tag it with the status code."""
        self.status = (
            code if isinstance(code, StatusCode) else StatusCode.INTERNAL
        )
        self.attributes["code"] = str(code)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "open" if self.end is None else f"{self.duration * 1e3:.3f}ms"
        return f"<Span {self.name!r} id={self.span_id} {state}>"


class Trace:
    """All spans of one query run, indexed for tree traversal."""

    def __init__(self, spans: List[Span]) -> None:
        self.spans = list(spans)
        self._by_id: Dict[int, Span] = {s.span_id: s for s in self.spans}
        self._children: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            self._children.setdefault(span.parent_id, []).append(span)
        for siblings in self._children.values():
            siblings.sort(key=lambda s: (s.start, s.span_id))

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def roots(self) -> List[Span]:
        """Spans with no parent (normally exactly one per query)."""
        return [
            s for s in self.spans
            if s.parent_id is None or s.parent_id not in self._by_id
        ]

    def root(self) -> Span:
        roots = self.roots()
        if len(roots) != 1:
            raise TraceError(f"expected exactly one root span, found {len(roots)}")
        return roots[0]

    def get(self, span_id: int) -> Optional[Span]:
        return self._by_id.get(span_id)

    def children(self, span: "Span | int") -> List[Span]:
        span_id = span.span_id if isinstance(span, Span) else span
        return list(self._children.get(span_id, []))

    def find(self, name: str) -> List[Span]:
        """All spans with exactly this name, in start order."""
        found = [s for s in self.spans if s.name == name]
        found.sort(key=lambda s: (s.start, s.span_id))
        return found

    def first(self, name: str) -> Span:
        found = self.find(name)
        if not found:
            raise TraceError(f"no span named {name!r} in trace")
        return found[0]

    def validate(self) -> None:
        """Structural checks: closed spans, known parents, acyclic parentage."""
        for span in self.spans:
            if span.end is None:
                raise TraceError(f"span {span.name!r} (id={span.span_id}) never ended")
            if span.end < span.start:
                raise TraceError(f"span {span.name!r} ends before it starts")
            if span.parent_id is not None and span.parent_id not in self._by_id:
                raise TraceError(
                    f"span {span.name!r} references unknown parent {span.parent_id}"
                )
        for span in self.spans:
            seen = {span.span_id}
            node = span
            while node.parent_id is not None:
                if node.parent_id in seen:
                    raise TraceError(f"parentage cycle through span id {node.parent_id}")
                seen.add(node.parent_id)
                node = self._by_id[node.parent_id]
