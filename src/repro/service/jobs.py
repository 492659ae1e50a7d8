"""Job records and the public query handle of the multi-tenant service.

A :class:`QueryJob` is the service's mutable record of one submitted
query as it moves through its lifecycle::

    pending -> queued -> running -> succeeded | failed
            \\-> rejected             (admission refused it)
             \\-> timed-out           (queue wait exceeded the bound)

A :class:`QueryHandle` is the caller-facing view: ``status()`` inspects
the lifecycle, ``result()`` drives the simulation until the query
reaches a terminal state and returns (or raises) its outcome — the
async-submission shape ``Client.execute`` hides.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.engine.coordinator import QueryResult
from repro.errors import ServiceError
from repro.sim.kernel import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.service import QueryService

__all__ = ["JobStatus", "QueryJob", "QueryHandle", "TERMINAL_STATUSES"]


class JobStatus(enum.StrEnum):
    """Lifecycle states of a submitted query."""

    #: Submitted with a future arrival time; not yet at the service.
    PENDING = "pending"
    #: Admitted and waiting in the bounded run queue.
    QUEUED = "queued"
    #: Dispatched; splits are executing on the shared cluster.
    RUNNING = "running"
    #: Finished with a result.
    SUCCEEDED = "succeeded"
    #: Execution raised (the error is preserved on the handle).
    FAILED = "failed"
    #: Admission control refused the query (typed AdmissionError).
    REJECTED = "rejected"
    #: Waited in the queue longer than ``ServiceSpec.queue_timeout_s``.
    TIMED_OUT = "timed-out"


TERMINAL_STATUSES = frozenset(
    {JobStatus.SUCCEEDED, JobStatus.FAILED, JobStatus.REJECTED, JobStatus.TIMED_OUT}
)


class QueryJob:
    """One submission's mutable state inside the service."""

    __slots__ = (
        "query_id", "arrival_seq", "tenant", "sql", "schema", "label",
        "config", "status", "error", "result",
        "submitted", "dispatched", "finished", "completion",
        "span", "queue_span",
    )

    def __init__(
        self,
        *,
        query_id: str,
        arrival_seq: int,
        tenant: str,
        sql: str,
        schema: str,
        label: str,
        config,
        completion: Event,
    ) -> None:
        self.query_id = query_id
        self.arrival_seq = arrival_seq
        self.tenant = tenant
        self.sql = sql
        self.schema = schema
        self.label = label
        self.config = config
        self.status = JobStatus.PENDING
        self.error: Optional[BaseException] = None
        self.result: Optional[QueryResult] = None
        #: Simulated instants of the three lifecycle edges (None until hit).
        self.submitted: Optional[float] = None
        self.dispatched: Optional[float] = None
        self.finished: Optional[float] = None
        #: Fires when the job reaches any terminal state.
        self.completion = completion
        self.span = None
        self.queue_span = None

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    @property
    def queue_wait_seconds(self) -> float:
        """Admission to dispatch (or to terminal, for jobs never run)."""
        if self.submitted is None:
            return 0.0
        if self.dispatched is not None:
            return self.dispatched - self.submitted
        if self.finished is not None:
            return self.finished - self.submitted
        return 0.0

    @property
    def latency_seconds(self) -> float:
        """Submission to completion, queue wait included."""
        if self.submitted is None or self.finished is None:
            return 0.0
        return self.finished - self.submitted

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<QueryJob {self.query_id} {self.tenant} {self.status}>"


class QueryHandle:
    """Caller-facing view of one submitted query.

    Returned by ``QueryService.submit`` and ``Client.submit``.  The
    handle never blocks a real thread: ``result()`` advances the
    *simulated* clock until the query completes, which also makes
    progress on every other in-flight query sharing the cluster.
    """

    def __init__(self, service: "QueryService", job: QueryJob) -> None:
        self._service = service
        self._job = job

    # -- identity --------------------------------------------------------------

    @property
    def query_id(self) -> str:
        return self._job.query_id

    @property
    def tenant(self) -> str:
        return self._job.tenant

    @property
    def label(self) -> str:
        return self._job.label

    # -- lifecycle -------------------------------------------------------------

    def status(self) -> str:
        """Current lifecycle state as a stable string."""
        return str(self._job.status)

    @property
    def done(self) -> bool:
        return self._job.terminal

    def exception(self) -> Optional[BaseException]:
        """The terminal error, or None (not done yet, or succeeded)."""
        return self._job.error

    def completion_event(self) -> Event:
        """The sim event that fires at the terminal transition.

        For in-simulation waiters: a closed-loop load generator yields
        this event to model a client that submits its next query only
        after the previous one finished.
        """
        return self._job.completion

    def result(self) -> QueryResult:
        """Drive the simulation to this query's completion; return/raise.

        Raises the typed :class:`~repro.errors.AdmissionError` for
        rejected or queue-timed-out submissions, or the original
        execution error for failed ones.
        """
        job = self._job
        if not job.terminal:
            self._service.wait_for(job)
        if job.error is not None:
            raise job.error
        if job.result is None:
            raise ServiceError(
                f"query {job.query_id} ended {job.status} without a result"
            )
        return job.result

    # -- measurements ----------------------------------------------------------

    @property
    def queue_wait_seconds(self) -> float:
        return self._job.queue_wait_seconds

    @property
    def latency_seconds(self) -> float:
        return self._job.latency_seconds

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<QueryHandle {self.query_id} {self.status()}>"
