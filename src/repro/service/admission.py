"""Admission control: the bounded run queue and the fair-share inputs.

The controller is the service's gatekeeper.  Every submission that
would wait is checked at its arrival instant against the service-wide
**run queue bound** (``max_queue_depth`` of
:class:`~repro.config.ServiceSpec`).  A full queue produces a typed
:class:`~repro.errors.QueueFullError` — the caller sees the stable code
``ADMISSION_QUEUE_FULL``, never a parsed message.  The controller also
keeps what the fair-share scheduler reads per tenant (running count,
service received).  Outcomes are not kept here: the job records are the
service's one outcome ledger, and the SLO report derives each tenant's
row from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.config import ServiceSpec
from repro.errors import AdmissionError, QueueFullError
from repro.service.jobs import JobStatus, QueryJob

__all__ = ["TenantState", "AdmissionController"]


@dataclass
class TenantState:
    """Per-tenant fair-share scheduler inputs."""

    name: str
    #: Currently executing queries (fair-share load signal).
    running: int = 0
    #: Simulated execution seconds served to completed queries
    #: (fair-share "service received" signal).
    served_seconds: float = 0.0
    #: Queries that finished with a result (fair-share tie-break).
    completed: int = 0


class AdmissionController:
    """The queue-bound check + per-tenant scheduler state."""

    def __init__(self, spec: ServiceSpec) -> None:
        self.spec = spec
        self._tenants: Dict[str, TenantState] = {}

    # -- ledgers ---------------------------------------------------------------

    def tenant(self, name: str) -> TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = TenantState(name=name)
            self._tenants[name] = state
        return state

    # -- the admission decision ------------------------------------------------

    def check(self, job: QueryJob, queue_depth: int) -> Optional[AdmissionError]:
        """The error admitting ``job`` would violate, or None to admit.

        ``queue_depth`` is the run queue's length, or -1 for a job that
        starts at once and so never occupies the queue.
        """
        spec = self.spec
        if queue_depth >= spec.max_queue_depth:
            return QueueFullError(
                f"run queue full ({queue_depth}/{spec.max_queue_depth}); "
                f"rejecting {job.query_id} from tenant {job.tenant!r}"
            )
        return None

    # -- ledger transitions ----------------------------------------------------

    def record_dispatch(self, job: QueryJob) -> None:
        self.tenant(job.tenant).running += 1

    def release(self, job: QueryJob) -> None:
        """Settle a dispatched job's ledger at its terminal transition."""
        state = self.tenant(job.tenant)
        state.running -= 1
        if job.status is JobStatus.SUCCEEDED:
            state.completed += 1
            state.served_seconds += job.result.execution_seconds
