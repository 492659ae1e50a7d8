"""Admission control: bounded queue, per-tenant quotas, memory budgets.

The controller is the service's gatekeeper.  Every submission is checked
at its arrival instant against three limits from
:class:`~repro.config.ServiceSpec`:

* the service-wide **run queue bound** (``max_queue_depth``),
* the tenant's **in-flight cap** (``per_tenant_max_inflight``, counting
  queued + running queries), and
* the tenant's **memory budget** (``per_tenant_memory_bytes``, summed
  over the declared/estimated memory of the tenant's admitted queries).

A violated limit produces a typed :class:`~repro.errors.AdmissionError`
subclass — the caller sees a stable ``code`` (``ADMISSION_QUEUE_FULL``,
``ADMISSION_TENANT_LIMIT``, ``ADMISSION_MEMORY_BUDGET``), never a parsed
message.  The controller also keeps what admission and the fair-share
scheduler read per tenant (in-flight and running counts, admitted
memory, service received).  Outcomes are not kept here: the job records
are the service's one outcome ledger, and the SLO report derives each
tenant's row from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.config import ServiceSpec
from repro.errors import (
    AdmissionError,
    MemoryBudgetError,
    QueueFullError,
    TenantLimitError,
)
from repro.service.jobs import JobStatus, QueryJob
from repro.sim import santrack

__all__ = ["TenantState", "AdmissionController"]


@dataclass
class TenantState:
    """Per-tenant admission and scheduler inputs."""

    name: str
    #: Queued + running queries (what the in-flight cap bounds).
    inflight: int = 0
    #: Currently executing queries (fair-share load signal).
    running: int = 0
    #: Sum of memory estimates over admitted (queued + running) queries.
    memory_admitted: int = 0
    #: Simulated execution seconds served to completed queries
    #: (fair-share "service received" signal).
    served_seconds: float = 0.0
    #: Queries that finished with a result (fair-share tie-break).
    completed: int = 0


class AdmissionController:
    """Stateless checks + per-tenant admission state."""

    def __init__(self, spec: ServiceSpec) -> None:
        self.spec = spec
        self._tenants: Dict[str, TenantState] = {}

    def _track(self, kind: str, tenant: str, site: str) -> None:
        """SimTSan hook, keyed per tenant ledger.  Ledger transitions are
        commutative updates (counter adds/subtracts); :meth:`check` is a
        read, so a same-instant check racing another actor's admit or
        release — the check-then-act admission hazard — is flagged."""
        sanitizer = santrack.active()
        if sanitizer is None:
            return
        key = ("tenant", id(self), tenant)
        if kind == "u":
            sanitizer.record_update(key, site, depth=1)
        else:
            sanitizer.record_read(key, site, depth=1)

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

        Pure decision — ledgers are only touched by :meth:`admit` /
        :meth:`release`, so a rejection leaves no residue.
        """
        self._track("r", job.tenant, "admission.check")
        spec = self.spec
        if queue_depth >= spec.max_queue_depth:
            return QueueFullError(
                f"run queue full ({queue_depth}/{spec.max_queue_depth}); "
                f"rejecting {job.query_id} from tenant {job.tenant!r}"
            )
        state = self.tenant(job.tenant)
        if (
            spec.per_tenant_max_inflight is not None
            and state.inflight >= spec.per_tenant_max_inflight
        ):
            return TenantLimitError(
                f"tenant {job.tenant!r} already has {state.inflight} queries "
                f"in flight (limit {spec.per_tenant_max_inflight})"
            )
        if spec.per_tenant_memory_bytes is not None:
            projected = state.memory_admitted + job.memory_bytes
            if projected > spec.per_tenant_memory_bytes:
                return MemoryBudgetError(
                    f"admitting {job.query_id} would put tenant {job.tenant!r} "
                    f"at {projected} admitted bytes "
                    f"(budget {spec.per_tenant_memory_bytes})"
                )
        return None

    # -- ledger transitions ----------------------------------------------------

    def admit(self, job: QueryJob) -> None:
        self._track("u", job.tenant, "admission.admit")
        state = self.tenant(job.tenant)
        state.inflight += 1
        state.memory_admitted += job.memory_bytes

    def record_dispatch(self, job: QueryJob) -> None:
        self._track("u", job.tenant, "admission.record_dispatch")
        self.tenant(job.tenant).running += 1

    def release(self, job: QueryJob) -> None:
        """Return the job's admission holdings at its terminal transition."""
        self._track("u", job.tenant, "admission.release")
        state = self.tenant(job.tenant)
        state.inflight -= 1
        state.memory_admitted -= job.memory_bytes
        if job.status is JobStatus.SUCCEEDED:
            state.running -= 1
            state.completed += 1
            if job.result is not None:
                state.served_seconds += job.result.execution_seconds
        elif job.status is JobStatus.FAILED:
            state.running -= 1
