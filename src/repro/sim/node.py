"""Simulated machines: CPU core pools plus a local disk.

A :class:`SimNode` is the unit the cost model charges work to.  Compute
work is expressed in *cycles*; a node drains one task's cycles on one core
at ``clock_ghz * 1e9 * ipc_efficiency`` cycles/second, with at most
``cores`` tasks in flight — so fanning a query out over many splits buys
real (simulated) parallel speedup, exactly the lever the paper's
compute/storage core-count asymmetry pulls on.
"""

from __future__ import annotations

from typing import Callable, List

from repro.config import NodeSpec
from repro.errors import SimulationError
from repro.sim.kernel import Event, Process, Simulator
from repro.sim.resources import Request, Resource

__all__ = ["SimNode"]


class SimNode:
    """A machine with a named role, a core pool, and a disk."""

    def __init__(self, sim: Simulator, spec: NodeSpec) -> None:
        self.sim = sim
        self.spec = spec
        self.name = spec.name
        self.cores = Resource(sim, capacity=spec.cores)
        self._disk = Resource(sim, capacity=1)
        self._core_hz = spec.clock_ghz * 1e9 * spec.ipc_efficiency
        self.cpu_seconds_charged = 0.0
        self.disk_bytes_read = 0

    # -- compute ---------------------------------------------------------

    def compute_seconds(self, cycles: float) -> float:
        """Wall seconds one core needs for ``cycles`` (no queueing)."""
        if cycles < 0:
            raise SimulationError(f"negative cycles: {cycles}")
        return cycles / self._core_hz

    def execute(self, cycles: float, name: str = "task") -> Process:
        """Run ``cycles`` of work on one core; returns the completion process."""
        return self.sim.process(self._execute(cycles), name=f"{self.name}:{name}")

    def _execute(self, cycles: float):
        seconds = self.compute_seconds(cycles)
        with self.cores.request() as core:
            yield core
            yield self.sim.timeout(seconds)
        self.cpu_seconds_charged += seconds
        return seconds

    def execute_spread(self, cycles: float) -> Event:
        """Run ``cycles`` split evenly across every core of the node.

        Models an embarrassingly parallel kernel (the OCS embedded engine
        fanning a scan across its cores); contends for the same core pool
        as everything else, so concurrent requests slow each other down.
        Returns the event that fires, with ``cycles``, once every core's
        share has run.
        """
        return _Spread(self, cycles).done

    # -- disk ---------------------------------------------------------------

    def read_disk(self, nbytes: int, name: str = "read") -> Process:
        """Stream ``nbytes`` from the local disk; serialized at disk bandwidth."""
        if nbytes < 0:
            raise SimulationError(f"negative read size: {nbytes}")
        return self.sim.process(self._read(int(nbytes)), name=f"{self.name}:{name}")

    def _read(self, nbytes: int):
        with self._disk.request() as slot:
            yield slot
            yield self.sim.timeout(nbytes / self.spec.disk_bandwidth_bps)
        self.disk_bytes_read += nbytes
        return nbytes

    # -- introspection ---------------------------------------------------------

    def core_utilization(self) -> float:
        return self.cores.utilization()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimNode {self.name}: {self.spec.cores}c @ {self.spec.clock_ghz}GHz>"


def _then(sim: Simulator, callback: Callable[[Event], None]) -> None:
    """Run ``callback`` one event from now, at the current instant."""
    event = Event(sim)
    event.callbacks.append(callback)
    event.succeed()


class _Spread:
    """One :meth:`SimNode.execute_spread`: a chain of callbacks, no processes.

    It puts every core request, grant, release and the completion at the
    place in the event order where one process per core (each running
    :meth:`SimNode.execute`) under an ``AllOf`` would: those processes'
    start-ups, on-the-spot grants and timeouts each take consecutive
    sequence numbers, so each such block is one event here, and the
    completion takes the same three hops (the last core's process
    ending, the ``AllOf``, the spreading process ending).
    """

    __slots__ = ("node", "cycles", "seconds", "pending", "done")

    def __init__(self, node: SimNode, cycles: float) -> None:
        self.node = node
        self.cycles = cycles
        width = node.spec.cores
        #: Each core's share, as one :meth:`SimNode.execute` would run it.
        self.seconds = node.compute_seconds(cycles / width)
        self.pending = width
        self.done = Event(node.sim)
        # The spreading process's start-up, then the cores' start-ups.
        _then(node.sim, lambda _: _then(node.sim, self._claim))

    def _claim(self, _: Event) -> None:
        granted, queued = self.node.cores.claim(self.pending)
        for request in queued:
            request.callbacks.append(lambda event: self._run([event]))
        if granted:
            _then(self.node.sim, lambda _: self._run(granted))

    def _run(self, requests: List[Request]) -> None:
        timeout = self.node.sim.timeout(self.seconds)
        timeout.callbacks.append(lambda _: self._finish(requests))

    def _finish(self, requests: List[Request]) -> None:
        node = self.node
        for request in requests:
            node.cores.release(request)
            node.cpu_seconds_charged += self.seconds
        self.pending -= len(requests)
        sanitizer = node.sim.sanitizer
        if sanitizer is not None:
            # Each core's history (who released the core it waited for)
            # reaches whoever waits on the spread, as the AllOf over
            # per-core processes carried it.
            sanitizer.publish(("spread", self))
        if self.pending:
            return
        if sanitizer is not None:
            sanitizer.observe(("spread", self))
        sim = node.sim
        _then(sim, lambda _: _then(sim, lambda _: self.done.succeed(self.cycles)))
