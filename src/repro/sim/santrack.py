"""Process-wide handle to the active race sanitizer (SimTSan).

Instrumented shared surfaces (span counters in ``trace/span.py``,
``core/monitor.py``, ``exchange/shuffle.py``, ``service/admission.py``,
the DAG scheduler) live below :mod:`repro.analysis` in the import
graph, so they cannot import the sanitizer directly without a cycle.
This tiny module — no imports, no simulation state — holds the one
mutable slot they poll:

    sanitizer = santrack.active()
    if sanitizer is not None:
        sanitizer.record_update(key, "span.add")

When no sanitizer is installed (every benchmark, by default) the poll
is a single function call returning ``None``; nothing is recorded and
no events are scheduled, so sanitized-off runs stay byte-identical in
event digests and simulated time.  :mod:`repro.analysis.sanitizer`
installs/uninstalls the handle around sanitized runs.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["active", "install"]

_ACTIVE: Optional[Any] = None


def install(sanitizer: Optional[Any]) -> Optional[Any]:
    """Swap the active sanitizer; returns the previous one (for restore)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = sanitizer
    return previous


def active() -> Optional[Any]:
    """The currently installed sanitizer, or None (the zero-cost path)."""
    return _ACTIVE
