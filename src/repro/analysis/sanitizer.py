"""SimTSan: a happens-before race sanitizer for the simulated cluster.

The determinism harness (:mod:`repro.analysis.determinism`) can prove
*that* two replays diverged; it cannot say *where*.  SimTSan closes the
gap with vector-clock happens-before tracking over the discrete-event
kernel, in the style of dynamic race detectors (TSan/FastTrack), adapted
to the one failure mode a deterministic simulator actually has: two
accesses to shared state at the **same simulated instant** whose order
rides on the kernel's tie-break policy.

Model
-----

* Every simulated **actor** gets a logical clock component: the driver
  (test/bench code between ``sim.run`` calls), each kernel ``Process``
  (coordinator query tasks, DAG stage attempts, splits, storage-node and
  exchange handlers, service tenant loops), and an ephemeral actor per
  dispatched event for bare callbacks.
* Clocks advance and merge on **causal edges**, delivered by the kernel
  hooks (``on_schedule`` / ``on_dispatch`` / ``on_resume`` /
  ``on_step_end``): scheduling an event snapshots the scheduler's clock;
  resuming a process merges the dispatching event's snapshot.  RPC
  send/recv and response delivery (:mod:`repro.rpc.channel`) ride these
  edges for free — every message is an event.  Side-channel handoffs
  (exchange buffers, DAG stage results) add explicit :meth:`publish` /
  :meth:`observe` / :meth:`observe_completion` edges.  A kernel
  :class:`~repro.sim.kernel.Barrier` is a global synchronization point:
  it merges every clock dispatched so far.
* Instrumented shared surfaces (span counters, the pushdown
  monitor, exchange buffers, admission ledgers, DAG commit state) call
  :meth:`record_read` / :meth:`record_write` / :meth:`record_update`.
  ``update`` marks commutative read-modify-write mutations (counter
  adds, window appends, union-window edges): update/update pairs can
  never race, but update against a plain read or write can.
* Two same-instant accesses to one key **race** when at least one side
  mutates (and they are not both commutative updates) and neither
  happens-before the other: the epoch check ``clock_B[actor_A] >=
  epoch_A`` fails both ways.

A race produces a :class:`RaceReport` carrying both access sites
(surface and caller ``file:line``), actor/span names, event ids, and the
simulated timestamp; strict mode raises it as
:class:`~repro.errors.SanitizerError` (code ``RACE``).  Suppress an
accepted-by-design site with a ``# simtsan: ignore[site]`` comment on
the access line (see ``docs/STATIC_ANALYSIS.md``).

The sanitizer never schedules events and never reads anything the
simulation does not already compute, so sanitized runs are byte-identical
to unsanitized runs in event digests and simulated time; with no
sanitizer installed the hooks are ``None`` checks and the surfaces poll
:func:`repro.sim.santrack.active` once — the zero-cost off path.
"""

from __future__ import annotations

import linecache
import re
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.errors import SanitizerError
from repro.sim import santrack
from repro.sim.kernel import AllOf, Barrier, Event, Process, Simulator

__all__ = [
    "AccessInfo",
    "RaceReport",
    "SimTSan",
    "install",
    "uninstall",
]

#: Access kinds; ``update`` is a commutative read-modify-write.
READ = "read"
WRITE = "write"
UPDATE = "update"

_DRIVER = 0

_SUPPRESS_RE = re.compile(r"#\s*simtsan:\s*ignore(?:\[([A-Za-z0-9_.,\-\s]*)\])?")


def _frame_site(depth: int) -> Tuple[str, int]:
    """(filename, lineno) ``depth`` frames above this helper's caller."""
    try:
        frame = sys._getframe(depth + 1)
    except ValueError:
        return ("<unknown>", 0)
    return (frame.f_code.co_filename, frame.f_lineno)


def _line_suppresses(filename: str, lineno: int, label: str) -> bool:
    """True when the source line carries ``# simtsan: ignore[...]``."""
    if lineno <= 0:
        return False
    match = _SUPPRESS_RE.search(linecache.getline(filename, lineno))
    if match is None:
        return False
    listed = match.group(1)
    if listed is None:
        return True  # blanket ``# simtsan: ignore``
    labels = {part.strip() for part in listed.split(",") if part.strip()}
    return not labels or label in labels


@dataclass(frozen=True, kw_only=True)
class AccessInfo:
    """One recorded access, as it appears in a :class:`RaceReport`."""

    #: Stable site label the instrumented surface passed ("span.add").
    site: str
    #: read / write / update.
    kind: str
    #: Actor (process/driver/event) that made the access.
    actor: int
    #: Human-readable actor name; process names mirror trace span names
    #: ("stage:join-0", "split-3"), so this localizes the enclosing span.
    span: str
    #: Kernel event id being dispatched at access time (None = driver).
    event_id: Optional[int]
    #: Instrumented surface method ``file:line``.
    surface: str
    #: Call site into the surface, ``file:line``.
    caller: str
    #: The actor's clock component at access time (the epoch compared).
    epoch: int

    def format(self) -> str:
        eid = "driver" if self.event_id is None else f"event {self.event_id}"
        return (
            f"{self.kind} by {self.span!r} ({eid}) at {self.site} "
            f"[{self.caller}]"
        )


@dataclass(frozen=True, kw_only=True)
class RaceReport:
    """A same-instant, causally unordered conflicting access pair."""

    key: str
    time: float
    first: AccessInfo
    second: AccessInfo

    def describe(self) -> str:
        return (
            f"same-instant race on {self.key} at t={self.time!r}: "
            f"{self.first.format()} vs {self.second.format()} — causally "
            f"unordered, so the outcome depends on the kernel tie-break "
            f"policy"
        )


@dataclass
class _Access:
    """Internal per-instant record (mutable, never exposed)."""

    actor: int
    epoch: int
    kind: str
    site: str
    span: str
    event_id: Optional[int]
    surface: Tuple[str, int]
    caller: Tuple[str, int]

    def info(self) -> AccessInfo:
        return AccessInfo(
            site=self.site,
            kind=self.kind,
            actor=self.actor,
            span=self.span,
            event_id=self.event_id,
            surface=f"{self.surface[0]}:{self.surface[1]}",
            caller=f"{self.caller[0]}:{self.caller[1]}",
            epoch=self.epoch,
        )


def _conflicts(a: str, b: str) -> bool:
    """At least one side mutates, and they are not both commutative."""
    if a == READ and b == READ:
        return False
    if a == UPDATE and b == UPDATE:
        return False
    return True


class SimTSan:
    """Vector-clock happens-before tracker over one :class:`Simulator`.

    Construct one per simulated cluster and :meth:`install` it; the
    kernel drives the ``on_*`` hooks and instrumented surfaces feed
    accesses through :func:`repro.sim.santrack.active`.  Races are
    always *collected* (``self.reports``), never raised mid-simulation:
    a raise inside a fire-and-forget handler process would be swallowed
    by the kernel (or masked as a retryable fault by the RPC channel),
    and it would perturb the very schedule under test.  Install sites
    call :meth:`raise_if_races` at the run boundary instead; with
    ``sink`` set (the ``python -m repro.analysis.race`` harness) reports
    additionally stream into the caller's list and
    :meth:`raise_if_races` becomes a no-op.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        sink: Optional[List[RaceReport]] = None,
    ) -> None:
        self._sim = sim
        self._sink = sink
        self.reports: List[RaceReport] = []
        # -- actors ------------------------------------------------------
        self._next_actor = 1
        #: Stable actor ids for kernel processes, keyed id(process); the
        #: ref in the value keeps the id from being recycled mid-run.
        self._process_actors: Dict[int, Tuple[Process, int]] = {}
        self._actor_names: Dict[int, str] = {_DRIVER: "driver"}
        #: Vector clocks for stable actors (driver + processes).
        self._clocks: Dict[int, Dict[int, int]] = {_DRIVER: {}}
        #: Actors that made >= 1 access; only their components propagate
        #: in snapshots (omitting a never-yet-accessed actor cannot flip
        #: any epoch comparison, and it keeps snapshot copies small).
        self._accessors: Set[int] = set()
        # -- per-event state ---------------------------------------------
        #: Clock snapshots taken at schedule time, popped at dispatch.
        self._event_clocks: Dict[int, Tuple[Event, Dict[int, int]]] = {}
        self._ambient_actor: int = _DRIVER
        self._ambient_clock: Dict[int, int] = self._clocks[_DRIVER]
        self._ambient_name: str = "driver"
        self._current_eid: Optional[int] = None
        self._event_base: Dict[int, int] = {}
        self._step_resumed: List[int] = []
        # -- causal side channels and access history ---------------------
        self._published: Dict[Hashable, Dict[int, int]] = {}
        self._sites: Dict[Hashable, Tuple[float, List[_Access]]] = {}
        self._seen: Set[Tuple[Hashable, str, str, str, str]] = set()
        self._prev_handle: Optional[Any] = None

    # -- lifecycle --------------------------------------------------------

    def install(self) -> "SimTSan":
        """Attach to the simulator and become the process-wide handle."""
        self._sim.sanitizer = self
        self._prev_handle = santrack.install(self)
        return self

    def uninstall(self) -> None:
        """Detach; restores whatever handle was active before install."""
        if self._sim.sanitizer is self:
            self._sim.sanitizer = None
        if santrack.active() is self:
            santrack.install(self._prev_handle)

    def raise_if_races(self) -> None:
        """Raise :class:`SanitizerError` for the first collected race.

        Called at run boundaries (``Environment.run``,
        ``QueryService.drain``); a no-op in sink (collect) mode.
        """
        if self._sink is not None or not self.reports:
            return
        report = self.reports[0]
        extra = len(self.reports) - 1
        suffix = f" (+{extra} more)" if extra else ""
        raise SanitizerError(report.describe() + suffix, report)

    # -- kernel hooks ------------------------------------------------------

    def on_schedule(self, event: Event) -> None:
        """An event was enqueued: snapshot the scheduler's clock, tick."""
        accessors = self._accessors
        clock = self._ambient_clock
        snapshot = {k: v for k, v in clock.items() if k in accessors}
        self._event_clocks[id(event)] = (event, snapshot)
        actor = self._ambient_actor
        clock[actor] = clock.get(actor, 0) + 1

    def on_dispatch(self, time: float, eid: int, event: Event) -> None:
        """An event is dispatching: its snapshot becomes the ambient base."""
        entry = self._event_clocks.pop(id(event), None)
        base: Dict[int, int] = entry[1] if entry is not None else {}
        if isinstance(event, Barrier):
            # A barrier fires only after every same-instant event has
            # dispatched — a kernel-level ordering guarantee, so it is a
            # global synchronization point: merge everything seen so far
            # (the driver clock doubles as the omniscient merge).
            driver = self._clocks[_DRIVER]
            for k, v in driver.items():
                if base.get(k, 0) < v:
                    base[k] = v
        self._event_base = base
        self._current_eid = eid
        # Bare callbacks (no process resume) run as an ephemeral actor so
        # unrelated callback contexts never share a clock component.
        self._ambient_actor = self._next_actor
        self._next_actor += 1
        self._ambient_clock = dict(base)
        self._ambient_clock[self._ambient_actor] = 1
        self._ambient_name = getattr(event, "name", "") or type(event).__name__
        self._step_resumed.clear()

    def on_resume(self, process: Process, event: Event) -> None:
        """A process is resuming: merge the event's snapshot, tick, focus.

        An ``AllOf`` snapshot is only its last child's, but it fires after
        every child: each child process's clock is merged too.
        """
        actor = self._actor_for(process)
        clock = self._clocks[actor]
        for k, v in self._event_base.items():
            if clock.get(k, 0) < v:
                clock[k] = v
        clock[actor] = clock.get(actor, 0) + 1
        self._ambient_actor = actor
        self._ambient_clock = clock
        self._ambient_name = process.name
        self._step_resumed.append(actor)
        if isinstance(event, AllOf) and event._exception is None:
            for child in event.events:
                if isinstance(child, Process):
                    self.observe_completion(child)

    def on_step_end(self) -> None:
        """Step done: fold everything into the driver's omniscient clock."""
        driver = self._clocks[_DRIVER]
        for source in (self._event_base, self._ambient_clock):
            for k, v in source.items():
                if driver.get(k, 0) < v:
                    driver[k] = v
        for actor in self._step_resumed:
            for k, v in self._clocks[actor].items():
                if driver.get(k, 0) < v:
                    driver[k] = v
        self._step_resumed.clear()
        self._ambient_actor = _DRIVER
        self._ambient_clock = driver
        self._ambient_name = "driver"
        self._current_eid = None

    # -- explicit causal edges ---------------------------------------------

    def publish(self, key: Hashable) -> None:
        """Record a happens-before source for a side-channel handoff."""
        stored = self._published.get(key)
        if stored is None:
            stored = {}
            self._published[key] = stored
        clock = self._ambient_clock
        accessors = self._accessors
        for k, v in clock.items():
            if k in accessors and stored.get(k, 0) < v:
                stored[k] = v
        actor = self._ambient_actor
        if stored.get(actor, 0) < clock.get(actor, 0):
            stored[actor] = clock[actor]

    def observe(self, key: Hashable) -> None:
        """Merge a published clock into the current actor (the sink side)."""
        stored = self._published.get(key)
        if not stored:
            return
        clock = self._ambient_clock
        for k, v in stored.items():
            if clock.get(k, 0) < v:
                clock[k] = v

    def observe_completion(self, process: Process) -> None:
        """Merge a finished process's clock into the current actor.

        ``AnyOf`` wakes carry a happens-before edge only from the *first*
        completer; a scheduler collecting several same-instant
        completions calls this per collected process so the downstream
        stages it launches are ordered after everything they consume.
        """
        entry = self._process_actors.get(id(process))
        if entry is None:
            return
        source = self._clocks[entry[1]]
        clock = self._ambient_clock
        for k, v in source.items():
            if clock.get(k, 0) < v:
                clock[k] = v

    # -- instrumented access API -------------------------------------------

    def record_read(self, key: Hashable, site: str, depth: int = 0) -> None:
        self._record(key, READ, site, depth)

    def record_write(self, key: Hashable, site: str, depth: int = 0) -> None:
        self._record(key, WRITE, site, depth)

    def record_update(self, key: Hashable, site: str, depth: int = 0) -> None:
        """A commutative read-modify-write (counter add, window append).

        ``depth`` skips that many extra frames when capturing the access
        sites, for surfaces that funnel through a local helper.
        """
        self._record(key, UPDATE, site, depth)

    # -- internals ---------------------------------------------------------

    def _actor_for(self, process: Process) -> int:
        entry = self._process_actors.get(id(process))
        if entry is not None:
            return entry[1]
        actor = self._next_actor
        self._next_actor += 1
        self._process_actors[id(process)] = (process, actor)
        self._actor_names[actor] = process.name
        self._clocks[actor] = {actor: 0}
        return actor

    def _record(self, key: Hashable, kind: str, site: str, depth: int = 0) -> None:
        actor = self._ambient_actor
        clock = self._ambient_clock
        self._accessors.add(actor)
        access = _Access(
            actor=actor,
            epoch=clock.get(actor, 0),
            kind=kind,
            site=site,
            span=self._ambient_name,
            event_id=self._current_eid,
            surface=_frame_site(2 + depth),
            caller=_frame_site(3 + depth),
        )
        now = self._sim.now
        entry = self._sites.get(key)
        if entry is None or entry[0] != now:  # simlint: ignore[float-eq]
            # Only same-instant pairs can race; earlier instants are
            # totally ordered by the clock, so drop their records.
            self._sites[key] = (now, [access])
            return
        history = entry[1]
        for previous in history:
            if previous.actor == actor:
                continue  # program order within one actor
            if not _conflicts(previous.kind, kind):
                continue
            if clock.get(previous.actor, 0) >= previous.epoch:
                continue  # previous happens-before this access
            self._report(key, now, previous, access)
        history.append(access)

    def _report(self, key: Hashable, now: float, a: _Access, b: _Access) -> None:
        if _line_suppresses(*a.surface, a.site) or _line_suppresses(
            *a.caller, a.site
        ):
            return
        if _line_suppresses(*b.surface, b.site) or _line_suppresses(
            *b.caller, b.site
        ):
            return
        dedup = (
            key,
            f"{a.site}@{a.caller[0]}:{a.caller[1]}",
            f"{b.site}@{b.caller[0]}:{b.caller[1]}",
            a.kind,
            b.kind,
        )
        if dedup in self._seen:
            return
        self._seen.add(dedup)
        report = RaceReport(key=repr(key), time=now, first=a.info(), second=b.info())
        self.reports.append(report)
        if self._sink is not None:
            self._sink.append(report)


def install(sim: Simulator, *, sink: Optional[List[RaceReport]] = None) -> SimTSan:
    """Build and install a sanitizer on ``sim``; returns it."""
    return SimTSan(sim, sink=sink).install()


def uninstall(sanitizer: Optional[SimTSan]) -> None:
    """Uninstall, tolerating ``None`` (call sites keep one code path)."""
    if sanitizer is not None:
        sanitizer.uninstall()
