"""Per-query metrics: counters and stage timers.

The paper's Table 3 breaks a query's wall time into stages (logical plan
analysis, Substrait IR generation, pushdown & result transfer, post-scan
Presto execution, others).  :class:`StageTimer` accumulates simulated
seconds into named stages so the Table 3 bench can print the same rows;
:class:`Counter` tracks scalar totals (rows scanned, bytes moved, splits).

Counters and stage timers are shared mutable state across every
concurrent process in a query, so they are instrumented for SimTSan
(:mod:`repro.analysis.sanitizer`): mutators record commutative
``update`` accesses, readers record ``read`` accesses.  When no
sanitizer is installed the instrumentation is one ``None`` check.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from repro.sim import santrack

__all__ = ["Counter", "StageTimer", "StageAccountant", "MetricsRegistry"]


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


class StageTimer:
    """Accumulates simulated seconds per named execution stage.

    Two charging styles coexist:

    * :meth:`charge` — add a known duration (serial code paths).
    * :meth:`begin` / :meth:`end` — mark window edges.  Windows of the
      same stage opened by concurrent processes are *unioned*: a depth
      counter tracks how many are open, and wall time is charged only
      while depth > 0.  Without this, N concurrent splits would each
      charge the same wall-clock interval and the per-stage sum could
      exceed the query's elapsed time (Table 3 would not partition).
    """

    def __init__(self) -> None:
        self._stages: Dict[str, float] = {}
        self._depth: Dict[str, int] = {}
        self._opened_at: Dict[str, float] = {}

    def _track(self, kind: str, site: str) -> None:
        """SimTSan hook: window edges and charges commute at one instant
        (union depth and additive totals reach the same final state in
        any order), so mutators are ``update``; readers are ``read``."""
        sanitizer = santrack.active()
        if sanitizer is not None:
            if kind == "u":
                sanitizer.record_update(("stage-timer", id(self)), site, depth=1)
            else:
                sanitizer.record_read(("stage-timer", id(self)), site, depth=1)

    def charge(self, stage: str, seconds: float) -> None:
        self._track("u", "metrics.stages.charge")
        if seconds < 0:
            raise ValueError(f"negative stage time for {stage!r}: {seconds}")
        self._stages[stage] = self._stages.get(stage, 0.0) + seconds

    def begin(self, stage: str, now: float) -> None:
        """Open one window of ``stage`` at simulated time ``now``."""
        self._track("u", "metrics.stages.begin")
        depth = self._depth.get(stage, 0)
        if depth == 0:
            self._opened_at[stage] = now
        self._depth[stage] = depth + 1

    def end(self, stage: str, now: float) -> None:
        """Close one window of ``stage``; charges when the last closes.

        An unmatched ``end`` is tolerated as a no-op so error-path
        unwinding can close windows unconditionally.
        """
        self._track("u", "metrics.stages.end")
        depth = self._depth.get(stage, 0)
        if depth == 0:
            return
        self._depth[stage] = depth - 1
        if depth == 1:
            self._stages[stage] = self._stages.get(stage, 0.0) + max(
                0.0, now - self._opened_at.pop(stage)
            )

    def open_depth(self, stage: str) -> int:
        self._track("r", "metrics.stages.open_depth")
        return self._depth.get(stage, 0)

    def seconds(self, stage: str) -> float:
        self._track("r", "metrics.stages.seconds")
        return self._stages.get(stage, 0.0)

    def total(self) -> float:
        self._track("r", "metrics.stages.total")
        return sum(self._stages.values())

    def shares(self) -> Dict[str, float]:
        """Fraction of total time per stage (empty dict when untouched)."""
        total = self.total()
        if total <= 0:
            return {}
        return {stage: seconds / total for stage, seconds in self._stages.items()}

    def items(self) -> Iterator[Tuple[str, float]]:
        self._track("r", "metrics.stages.items")
        return iter(sorted(self._stages.items()))


class StageAccountant:
    """Clock-bound facade over a :class:`StageTimer`.

    Owns the two patterns every stage-attribution site needs — reading
    the simulator clock at window edges with try/finally unwinding, and
    the "scale stage totals down so they partition the elapsed wall
    time" normalization:

    * :meth:`window` — a context manager opening one union window of a
      stage (concurrent windows of the same stage are unioned by the
      underlying timer, so N concurrent splits charge wall time once);
      :func:`repro.engine.stages.stage` pairs it with the matching span;
    * :meth:`begin` / :meth:`end` — window edges for sites that
      pause/resume windows across component boundaries (e.g. the OCS
      page source separating IR generation from the transfer window
      that surrounds it);
    * :meth:`partitioned` — the Table-3 normalization: a copy of the
      per-stage totals scaled so their sum never exceeds ``elapsed``.

    The accountant is stateless beyond its two references, so any
    number of them may wrap the same timer (coordinator + connector).
    ``clock`` is anything with a ``now`` attribute (the simulator).
    """

    def __init__(self, clock, timer: StageTimer) -> None:
        self.clock = clock
        self.timer = timer

    def begin(self, stage: str) -> None:
        self.timer.begin(stage, self.clock.now)

    def end(self, stage: str) -> None:
        self.timer.end(stage, self.clock.now)

    @contextmanager
    def window(self, stage: str):
        """Open one union window of ``stage`` for the body's duration."""
        self.begin(stage)
        try:
            yield self
        finally:
            self.end(stage)

    def partitioned(self, elapsed: float) -> Dict[str, float]:
        """Per-stage totals scaled so they partition ``elapsed``.

        Window union keeps concurrent work *within* one stage from
        double charging, but stages that overlap *each other* (one
        split transferring while another runs operators) can still push
        the per-stage sum past the elapsed wall time.  The returned
        copy is scaled down so the sum never exceeds ``elapsed``;
        serial runs (sum <= elapsed) are returned untouched.
        """
        stage_seconds = dict(self.timer.items())
        total = sum(stage_seconds.values())
        if total > elapsed > 0:
            scale = elapsed / total
            stage_seconds = {k: v * scale for k, v in stage_seconds.items()}
        return stage_seconds


class MetricsRegistry:
    """Namespace of counters plus a stage timer, one per query run."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self.stages = StageTimer()

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
