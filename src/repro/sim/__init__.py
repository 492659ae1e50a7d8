"""Discrete-event simulation substrate.

The paper evaluates on a three-node hardware testbed (Table 1).  We do not
have that hardware, so every experiment runs on this from-scratch
discrete-event simulator instead: query operators execute *for real* on
numpy data, while the time they would take on the paper's testbed is
charged to simulated CPU, disk, and network resources.

Public surface:

* :class:`~repro.sim.kernel.Simulator` — event loop with a virtual clock.
* :class:`~repro.sim.kernel.Process` — generator-based coroutine process.
* :class:`~repro.sim.resources.Resource` / :class:`~repro.sim.resources.Store`
  — capacity-limited resources and message queues.
* :class:`~repro.sim.network.Link` — bandwidth/latency network link with a
  transfer ledger (the source of every "data movement" number we report).
* :class:`~repro.sim.node.SimNode` — a machine with cores and a disk.
* :class:`~repro.sim.costmodel.CostParams` — calibrated per-operation costs.
"""

from repro.sim.kernel import AllOf, AnyOf, Event, Interrupt, Process, Simulator, Timeout
from repro.sim.resources import Request, Resource, Store
from repro.sim.network import Link, TransferLedger, TransferRecord
from repro.sim.node import SimNode
from repro.sim.costmodel import CostParams, DEFAULT_COSTS
from repro.sim.faults import FaultInjector

__all__ = [
    "AllOf",
    "AnyOf",
    "CostParams",
    "DEFAULT_COSTS",
    "Event",
    "FaultInjector",
    "Interrupt",
    "Link",
    "Process",
    "Request",
    "Resource",
    "SimNode",
    "Simulator",
    "Store",
    "Timeout",
    "TransferLedger",
    "TransferRecord",
]
