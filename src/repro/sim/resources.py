"""Capacity-limited resources and message stores for the DES kernel.

:class:`Resource` models a pool of identical slots (CPU cores, a disk
queue, an RPC server's worker threads).  Processes ``yield`` a request,
hold a slot while working, and release it; waiters are served FIFO.

:class:`Store` is an unbounded FIFO message queue with blocking ``get`` —
the primitive under the simulated RPC channels.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.kernel import Event, Simulator

__all__ = ["Request", "Resource", "Store"]


class Request(Event):
    """A pending or granted claim on one slot of a :class:`Resource`.

    Usable as a context manager so holders cannot forget to release::

        with resource.request() as req:
            yield req
            ... # slot held here

    ``owner`` is an optional accounting tag (e.g. a query id): the
    resource charges slot-held seconds to it, so concurrent queries
    sharing one pool stay attributable (``Resource.busy_seconds``).
    """

    __slots__ = ("resource", "granted", "owner", "_granted_at")

    def __init__(self, resource: "Resource", owner: Optional[str] = None) -> None:
        super().__init__(resource.sim)
        self.resource = resource
        self.granted = False
        self.owner = owner
        self._granted_at = 0.0

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)


class Resource:
    """A FIFO pool of ``capacity`` identical slots."""

    def __init__(self, sim: Simulator, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Request] = deque()
        # Occupancy statistics: time-weighted integral of in_use.
        self._busy_integral = 0.0
        self._last_change = sim.now
        # Per-owner accounting: slot-held seconds charged on release.
        self._owner_busy: Dict[str, float] = {}

    # -- accounting ---------------------------------------------------------

    def _note_change(self) -> None:
        now = self.sim.now
        self._busy_integral += self.in_use * (now - self._last_change)
        self._last_change = now

    def utilization(self) -> float:
        """Mean fraction of capacity in use since creation."""
        self._note_change()
        elapsed = self._last_change
        if elapsed <= 0:
            return 0.0
        return self._busy_integral / (elapsed * self.capacity)

    # -- protocol -------------------------------------------------------------

    def request(self, owner: Optional[str] = None) -> Request:
        """Claim one slot; the returned event fires when the slot is granted."""
        req = Request(self, owner=owner)
        if self.in_use < self.capacity:
            self._grant(req)
            req.succeed(req)
        else:
            self._waiters.append(req)
        return req

    def claim(self, count: int) -> Tuple[List[Request], List[Request]]:
        """Claim ``count`` slots at once: ``(granted, queued)`` requests.

        The same as ``count`` successive :meth:`request` calls, except that
        a slot granted on the spot fires no event: the caller learns of it
        from the return value.  A queued request fires when a release
        grants it, as usual.  Release every request when done.
        """
        granted: List[Request] = []
        queued: List[Request] = []
        for _ in range(count):
            req = Request(self)
            if self.in_use < self.capacity:
                self._grant(req)
                granted.append(req)
            else:
                self._waiters.append(req)
                queued.append(req)
        return granted, queued

    def _grant(self, req: Request) -> None:
        self._note_change()
        self.in_use += 1
        req.granted = True
        req._granted_at = self.sim.now

    def release(self, request: Request) -> None:
        """Return a slot to the pool, waking the oldest waiter if any."""
        if not request.granted:
            if request.triggered:
                raise SimulationError("release without matching request")
            # Never granted: cancel the queued request.
            try:
                self._waiters.remove(request)
            except ValueError:
                pass
            return
        if self.in_use <= 0:
            raise SimulationError("release without matching request")
        request.granted = False
        if request.owner is not None:
            self._owner_busy[request.owner] = self._owner_busy.get(
                request.owner, 0.0
            ) + (self.sim.now - request._granted_at)
        self._note_change()
        self.in_use -= 1
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.triggered:  # cancelled/interrupted while queued
                continue
            self._grant(waiter)
            waiter.succeed(waiter)
            break

    def busy_seconds(self, owner: str) -> float:
        """Slot-held seconds charged to ``owner`` (released claims only)."""
        return self._owner_busy.get(owner, 0.0)

    def owners(self) -> Dict[str, float]:
        """All per-owner slot-held seconds recorded so far."""
        return dict(self._owner_busy)


class Store:
    """Unbounded FIFO queue with blocking ``get``; items are any objects."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest blocked getter if any."""
        while self._getters:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            getter.succeed(item)
            return
        self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._items)
