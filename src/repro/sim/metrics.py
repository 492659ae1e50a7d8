"""Per-query metrics: counters.

:class:`Counter` tracks scalar totals (rows scanned, bytes moved,
splits).  The Table 3 stage breakdown is not a counter: it is derived
from the query's stage-tagged spans (:func:`repro.trace.stage_totals`).

Counters are shared mutable state across every concurrent process in a
query, so they are instrumented for SimTSan
(:mod:`repro.analysis.sanitizer`): mutators record commutative
``update`` accesses, readers record ``read`` accesses.  When no
sanitizer is installed the instrumentation is one ``None`` check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.sim import santrack

__all__ = ["Counter", "MetricsRegistry"]


@dataclass
class Counter:
    """A monotonically increasing scalar metric."""

    name: str
    value: float = 0.0

    def add(self, amount: float) -> None:
        sanitizer = santrack.active()
        if sanitizer is not None:
            sanitizer.record_update(("counter", id(self), self.name), "metrics.counter.add")
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount


class MetricsRegistry:
    """Namespace of counters, one per query run."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    def add(self, name: str, amount: float) -> None:
        self.counter(name).add(amount)

    def value(self, name: str) -> float:
        counter = self._counters.get(name)
        if counter is None:
            return 0.0
        sanitizer = santrack.active()
        if sanitizer is not None:
            sanitizer.record_read(("counter", id(counter), name), "metrics.registry.value")
        return counter.value

    def snapshot(self) -> Dict[str, float]:
        sanitizer = santrack.active()
        if sanitizer is not None:
            for name, counter in self._counters.items():
                sanitizer.record_read(("counter", id(counter), name), "metrics.registry.snapshot")
        return {name: c.value for name, c in sorted(self._counters.items())}
