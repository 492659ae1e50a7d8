"""Trace exporters: text tree, Chrome ``chrome://tracing`` JSON.

Three consumers, three formats:

* :func:`render_tree` — the human-readable span tree behind
  ``EXPLAIN ANALYZE``;
* :func:`chrome_trace_events` / :func:`write_chrome_trace` — the Trace
  Event Format consumed by ``chrome://tracing`` and Perfetto;
* the in-memory collector is the tracer itself (``tracer.trace()``),
  which tests and ``QueryResult.trace`` read directly.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.errors import StatusCode
from repro.trace.span import STAGE_KEY, Span, Trace

__all__ = ["render_tree", "chrome_trace_events", "export_chrome_trace", "write_chrome_trace"]

#: Attributes surfaced inline in the text tree (order matters); every
#: counter follows them, in name order.
_TREE_ATTRS = (
    "attempt", "code", "rows_scanned", "rows_returned", "bytes",
    "plan_bytes", "splits", "node", "downgraded",
)


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    return f"{seconds * 1e6:.1f} us"


def _span_label(span: Span) -> str:
    parts = [f"{span.name}  {_format_duration(span.duration)}"]
    if span.stage is not None:
        parts.append(f"stage={span.stage}")
    for key in _TREE_ATTRS:
        if key in span.attributes:
            parts.append(f"{key}={span.attributes[key]}")
    for name, amount in sorted((span.counters or {}).items()):
        parts.append(f"{name}={amount}")
    if span.status is not StatusCode.OK:
        parts.append(f"status={span.status}")
    return "  ".join(parts)


def render_tree(trace: Trace, root: Optional[Span] = None) -> str:
    """Indented span tree (one line per span, children under parents)."""
    lines: List[str] = []

    def walk(span: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(_span_label(span))
            child_prefix = ""
        else:
            branch = "└─ " if is_last else "├─ "
            lines.append(prefix + branch + _span_label(span))
            child_prefix = prefix + ("   " if is_last else "│  ")
        children = trace.children(span)
        for i, child in enumerate(children):
            walk(child, child_prefix, i == len(children) - 1, False)

    roots = [root] if root is not None else trace.roots()
    for top in roots:
        walk(top, "", True, True)
    return "\n".join(lines)


def chrome_trace_events(trace: Trace) -> List[Dict[str, object]]:
    """Spans as Chrome Trace Event Format complete ("X") events.

    Timestamps are simulated microseconds; the ``tid`` groups spans by
    their root split/query lineage via the parent chain's top-level span.
    ``args`` holds the span's attributes, then its counters in name order.
    """
    events: List[Dict[str, object]] = []
    for span in trace.spans:
        args: Dict[str, object] = {
            k: v for k, v in span.attributes.items() if k != STAGE_KEY
        }
        args.update(sorted((span.counters or {}).items()))
        if span.stage is not None:
            args["stage"] = span.stage
        if span.status is not StatusCode.OK:
            args["status"] = str(span.status)
        events.append(
            {
                "name": span.name,
                "cat": span.stage or "span",
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": span.trace_id,
                "tid": _top_ancestor_id(trace, span),
                "args": args,
            }
        )
    return events


def _top_ancestor_id(trace: Trace, span: Span) -> int:
    node = span
    while node.parent_id is not None:
        parent = trace.get(node.parent_id)
        if parent is None:
            break
        node = parent
    return node.span_id


def export_chrome_trace(trace: Trace) -> str:
    """The full Chrome trace JSON document as a string."""
    return json.dumps(
        {"traceEvents": chrome_trace_events(trace), "displayTimeUnit": "ms"},
        indent=1,
    )


def write_chrome_trace(trace: Trace, path: str) -> None:
    """Write the Chrome trace JSON to ``path`` (open in chrome://tracing)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(export_chrome_trace(trace))
