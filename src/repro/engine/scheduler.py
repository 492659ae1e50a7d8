"""The DAG scheduler: runs a :class:`~repro.engine.dag.StageGraph`.

Three responsibilities, all stage-generic:

* **Dataflow scheduling** — launch every stage whose inputs have
  completed, as a DES process, and wake on the first completion
  (``AnyOf``); independent branches (the N scan stages of a join chain)
  overlap without the lowering having to say so.
* **Stage-level restart** — a stage failing with a *restartable* error
  (by default the exchange fabric's :class:`~repro.errors.
  ExchangeFaultError`) is re-run from its inputs, up to
  ``max_stage_restarts`` times, instead of failing the whole query.
  Stage bodies make this safe by construction: they instantiate all
  mutable state (operators, exchange ids) inside the generator, so a
  restart starts clean and abandoned in-flight work from the failed
  attempt cannot leak into the retry.
* **Speculative split re-execution** — :func:`run_splits` watches a
  stage's split fan-out for stragglers (a degraded storage node serving
  pushdown slowly) and, once a split's *service* time exceeds a
  threshold derived from the completed splits' service durations,
  launches a *backup* attempt for it.  Time spent queued for a scan
  driver never counts, wherever in the split the wait falls: each
  split's :class:`ServiceClock` is paused while it queues.  Backups run
  on spare capacity, bypassing the driver queue, so only genuinely slow
  service may trigger them.
  First result wins; the loser is interrupted.  Backups must be
  digest-identical to primaries (the OCS connector's backup is the raw
  GET + embedded-engine fallback, which produces byte-identical
  batches), so speculation changes latency, never results.

Determinism: all scheduling decisions depend only on simulated time and
insertion order — completions are collected by scanning the launch-order
list, the speculation threshold is frozen the first time the quorum is
reached, and a primary/backup tie at one instant is settled *after* a
kernel barrier (so the verdict — primary wins — cannot ride on the
event tie-break policy) — so two seeded runs replay identically under
either tie-break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.engine.dag import Stage, StageContext, StageGraph
from repro.errors import ConfigError, ExchangeFaultError
from repro.sim import santrack
from repro.sim.kernel import AnyOf, Event, Process, Simulator
from repro.trace import Tracer

__all__ = ["SchedulerSpec", "DagScheduler", "ServiceClock", "run_splits"]


@dataclass(frozen=True, kw_only=True)
class SchedulerSpec:
    """Scheduling policy: restart and speculation knobs.

    Speculation is off by default: a healthy cluster then runs exactly
    one attempt per split, keeping timings and span trees identical to
    a scheduler without the feature.
    """

    #: Launch backup attempts for straggling splits.
    speculation: bool = False
    #: A split becomes a straggler when it runs longer than
    #: ``multiplier`` x the median duration of already-finished splits.
    speculation_multiplier: float = 1.5
    #: Fraction of a stage's splits that must finish before the
    #: straggler deadline is computed (no speculation before a quorum).
    speculation_quorum: float = 0.5
    #: How many times one stage may restart after a restartable fault.
    max_stage_restarts: int = 2
    #: Error types that trigger a stage restart instead of query failure.
    restartable: Tuple[Type[BaseException], ...] = (ExchangeFaultError,)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.speculation_multiplier < 1.0:
            raise ConfigError(
                f"speculation_multiplier must be >= 1, got {self.speculation_multiplier}"
            )
        if not 0.0 < self.speculation_quorum <= 1.0:
            raise ConfigError(
                f"speculation_quorum must be in (0, 1], got {self.speculation_quorum}"
            )
        if self.max_stage_restarts < 0:
            raise ConfigError(
                f"max_stage_restarts must be >= 0, got {self.max_stage_restarts}"
            )
        for exc in self.restartable:
            if not (isinstance(exc, type) and issubclass(exc, BaseException)):
                raise ConfigError(f"restartable entry {exc!r} is not an exception type")


class DagScheduler:
    """Runs one stage graph to completion on the simulated cluster."""

    def __init__(
        self,
        sim: Simulator,
        graph: StageGraph,
        spec: Optional[SchedulerSpec] = None,
        *,
        tracer: Tracer,
        parent: Optional[Any] = None,
        query_id: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.graph = graph
        self.spec = spec if spec is not None else SchedulerSpec()
        self.tracer = tracer
        self.parent = parent
        self.query_id = query_id

    def run(self) -> Generator[Event, Any, Dict[str, Any]]:
        """DES generator: run every stage; returns {stage_id: output}.

        A stage launches the instant its last input completes.  The
        graph is validated to be acyclic with satisfied inputs before
        anything runs (cheap Kahn pass), so a malformed graph fails
        fast instead of deadlocking the simulator.
        """
        self.graph.topological()  # raises on cycles / missing inputs
        results: Dict[str, Any] = {}
        waiting: Dict[str, Stage] = {s.stage_id: s for s in self.graph}
        running: Dict[str, Process] = {}
        launch_order: List[str] = []

        def launch_ready() -> None:
            sanitizer = santrack.active()
            ready = [
                stage
                for stage in waiting.values()
                if all(dep in results for dep in stage.inputs)
            ]
            for stage in ready:
                del waiting[stage.stage_id]
                if sanitizer is not None:
                    for dep in stage.inputs:
                        sanitizer.record_read(
                            ("dag-results", id(self), dep), "dag.read_input"
                        )
                inputs = {dep: results[dep] for dep in stage.inputs}
                running[stage.stage_id] = self.sim.process(
                    self._supervise(stage, inputs), name=f"stage:{stage.stage_id}"
                )
                launch_order.append(stage.stage_id)

        launch_ready()
        while running:
            yield AnyOf(self.sim, list(running.values()))
            # Several stages can complete at the same instant; collect
            # them all (in launch order, for determinism) before
            # launching the newly unblocked ones.  ``AnyOf`` carries a
            # happens-before edge only from the *first* completer, so
            # each additionally collected process donates its clock via
            # ``observe_completion`` — downstream stages are then
            # causally ordered after every input they consume.
            sanitizer = santrack.active()
            for stage_id in [s for s in launch_order if s in running]:
                process = running[stage_id]
                if process.triggered:
                    if sanitizer is not None:
                        sanitizer.observe_completion(process)
                        sanitizer.record_write(
                            ("dag-results", id(self), stage_id), "dag.commit"
                        )
                    results[stage_id] = process.value
                    del running[stage_id]
            launch_ready()
        return results

    def _supervise(
        self, stage: Stage, inputs: Dict[str, Any]
    ) -> Generator[Event, Any, Any]:
        """One stage's lifecycle: run, and restart on restartable faults.

        The stage span is per-attempt, attribute-tagged with the attempt
        number, so a trace of a restarted query shows both attempts.
        Stage spans carry no ``stage`` tag: the bodies tag their own
        Table 3 windows, which a whole-stage window would swallow.  Each
        restart is counted (``stage_restarts``) on the attempt span it
        opened.
        """
        attempt = 0
        while True:
            try:
                with self.tracer.span(
                    f"stage:{stage.stage_id}",
                    parent=self.parent,
                    attributes={"kind": stage.kind, "attempt": attempt},
                ) as span:
                    if attempt:
                        span.add("stage_restarts", 1)
                    ctx = StageContext(
                        sim=self.sim,
                        span=span,
                        query_id=self.query_id,
                        attempt=attempt,
                    )
                    return (yield from stage.run(ctx, inputs))
            except self.spec.restartable:
                attempt += 1
                if attempt > self.spec.max_stage_restarts:
                    raise


class ServiceClock:
    """One split's service clock: it runs while the split works and is
    paused while the split is queued for a scan driver.

    ``start`` is the instant service would have begun had the split never
    queued (``now - start`` is the service time so far), or ``None`` while
    it is paused.  A split queued for its driver before any work — the
    raw path — pauses at zero served seconds, so ``start`` is exactly the
    instant it got the driver.
    """

    __slots__ = ("start", "_served")

    def __init__(self, now: float) -> None:
        self.start: Optional[float] = now
        self._served = 0.0

    def pause(self, now: float) -> None:
        assert self.start is not None, "service clock paused twice"
        self._served += now - self.start
        self.start = None

    def resume(self, now: float) -> None:
        assert self.start is None, "service clock resumed while running"
        self.start = now - self._served


def run_splits(
    ctx: StageContext,
    spec: SchedulerSpec,
    tasks: Sequence[Any],
    launch_primary: Callable[[int], Process],
    launch_backup: Callable[[int], Optional[Process]],
    *,
    clocks: Optional[Sequence[ServiceClock]] = None,
) -> Generator[Event, Any, List[Any]]:
    """DES generator: run a stage's split fan-out, speculating on stragglers.

    ``launch_primary(i)`` / ``launch_backup(i)`` spawn the i-th split's
    attempts as processes; ``launch_backup`` may return ``None`` when no
    alternative execution path exists (then that split simply waits for
    its primary).  Returns the per-split outputs in task order.

    First-result-wins: when both attempts of a split are in flight the
    earlier completion settles it and the other attempt is interrupted
    (its resource claims unwind via the DES ``with`` blocks).  A backup
    completion observed while the primary is still alive is *not*
    settled at the wake: whether a same-instant primary completion has
    dispatched yet depends on the kernel tie-break policy (SimTSan
    flagged exactly this write/write pair on the split result).  The
    verdict is deferred past a kernel :class:`~repro.sim.kernel.Barrier`
    — which fires only after every other event at the instant — and
    primaries that completed by then win the tie under either policy,
    keeping healthy-cluster replays byte-identical with speculation on
    or off.

    Straggler detection is *service-time* based.  ``clocks`` holds one
    :class:`ServiceClock` per split, started at launch; the split body
    pauses its clock while it is queued for a scan driver and resumes it
    when the driver is granted, wherever in the split that wait falls
    (before the page source on the raw path, after it when the page
    source blocks on storage).  Time queued for a driver never counts
    toward straggling (a healthy-but-busy cluster must not speculate —
    backups bypass the driver queue, so a false positive would change
    healthy timings).  When ``clocks`` is omitted, launch time doubles
    as service start.

    The straggler *threshold* is frozen the first time a quorum
    (``ceil(quorum * n)``) of primaries has finished: ``multiplier *
    median(finished service durations)``.  From then on, each running
    split whose service time exceeds the threshold gets one backup.
    """
    sim = ctx.sim
    n = len(tasks)
    if n == 0:
        return []
    if clocks is None:
        clocks = [ServiceClock(sim.now) for _ in range(n)]
    primaries: List[Process] = [launch_primary(i) for i in range(n)]
    backups: Dict[int, Process] = {}
    results: List[Any] = [None] * n
    settled: List[bool] = [False] * n
    #: Splits whose backup completed while the primary was still alive;
    #: settled only after a barrier so same-instant primary completions
    #: get to dispatch first (primary wins ties under either tie-break).
    pending: List[int] = []
    durations: List[float] = []
    threshold: Optional[float] = None
    speculate = spec.speculation

    def settle(index: int, winner: Process, loser: Optional[Process]) -> None:
        sanitizer = santrack.active()
        if sanitizer is not None:
            sanitizer.observe_completion(winner)
            sanitizer.record_write(("split-results", id(results), index), "dag.settle")
        results[index] = winner.value
        settled[index] = True
        if loser is not None and loser.is_alive:
            loser.interrupt("speculation lost")

    def service_seconds(index: int) -> float:
        started = clocks[index].start
        assert started is not None, "a split finished while queued for a driver"
        return sim.now - started

    def next_deadline() -> Optional[float]:
        """Earliest instant an un-backed-up split could turn straggler.

        A split not in service (queued for a driver) resumes at the
        earliest *now*, so ``now + threshold`` bounds its deadline; the
        wake then re-checks actual service clocks and re-sleeps if it
        was early.  Spurious wakes consume no simulated resources, so
        they cannot perturb timings.
        """
        if threshold is None:
            return None
        candidates = [
            (clocks[i].start if clocks[i].start is not None else sim.now)
            + threshold
            for i in range(n)
            if not settled[i] and i not in backups
        ]
        return min(candidates) if candidates else None

    while not all(settled):
        events: List[Any] = [p for i, p in enumerate(primaries) if not settled[i] and p.is_alive]
        events.extend(b for i, b in backups.items() if not settled[i] and b.is_alive)
        if speculate:
            deadline = next_deadline()
            if deadline is not None and sim.now < deadline:
                # Wake at the straggler deadline even if nothing completes.
                events.append(sim.timeout(deadline - sim.now))
        yield AnyOf(sim, events)

        for i in range(n):
            if settled[i] or i in pending:
                continue
            primary, backup = primaries[i], backups.get(i)
            if primary.triggered:
                durations.append(service_seconds(i))
                settle(i, primary, backup)
            elif backup is not None and backup.triggered:
                # Primary still alive at this wake; its own completion
                # may be queued at this very instant.  Defer the verdict
                # past a barrier instead of letting dispatch order pick
                # the winner.
                pending.append(i)

        if pending:
            yield sim.barrier()
            for i in pending:
                primary, backup = primaries[i], backups.get(i)
                assert backup is not None
                if primary.triggered:
                    durations.append(service_seconds(i))
                    settle(i, primary, backup)
                else:
                    ctx.span.add("speculative_wins", 1)
                    settle(i, backup, primary)
            pending.clear()

        if speculate and threshold is None:
            quorum = max(1, math.ceil(spec.speculation_quorum * n))
            if len(durations) >= quorum:
                finished = sorted(durations)
                median = finished[(len(finished) - 1) // 2]
                threshold = spec.speculation_multiplier * median

        if speculate and threshold is not None:
            for i in range(n):
                if settled[i] or i in backups:
                    continue
                started = clocks[i].start
                # The wake timer fires at ``now + (deadline - now)``,
                # which IEEE-rounds a hair below ``started + threshold``;
                # the relative epsilon keeps the comparison from missing
                # its own deadline.
                if started is None or (
                    sim.now - started < threshold * (1.0 - 1e-9)
                ):
                    continue
                backup = launch_backup(i)
                if backup is not None:
                    backups[i] = backup
                    ctx.span.add("speculative_backups", 1)

    return results
