"""The multi-tenant query service: one shared cluster, many queries.

Where :meth:`Environment.run` executes exactly one query per simulated
cluster, :class:`QueryService` accepts a *stream* of concurrently
submitted queries and interleaves their split execution over one shared
cluster — the paper's real deployment shape, where many Presto workers
push plans down to a shared pool of OCS storage nodes and contention on
storage-side compute is the first thing that breaks offloading.

The service composes four pieces:

* an :class:`~repro.service.admission.AdmissionController` guarding a
  bounded run queue with per-tenant in-flight and memory limits
  (rejections are typed :class:`~repro.errors.AdmissionError`\\ s);
* a **concurrent scheduler** dispatching queued queries as execution
  slots free up, under a FIFO or fair-share policy, with storage-queue
  backpressure;
* per-query scoping: each query gets its own span root (its counters
  are summed from that trace alone) and resource-accounting tag, so
  concurrent queries stay attributable on the shared substrate;
* deterministic replay: the service schedules everything through the
  DES kernel, so a seeded workload produces an identical event digest
  on every replay (``repro.analysis.determinism`` machinery applies).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.analysis.runtime import strict_sanitize_enabled
from repro.bench.env import Environment, RunConfig
from repro.config import ServiceSpec
from repro.engine.cluster import Cluster
from repro.engine.coordinator import Coordinator
from repro.engine.session import Session
from repro.errors import AdmissionError, ConfigError, QueueTimeoutError, ServiceError
from repro.service.admission import AdmissionController
from repro.service.jobs import JobStatus, QueryHandle, QueryJob

__all__ = ["QueryService"]

#: Default per-query run configuration (full OCS pushdown).
_DEFAULT_CONFIG_LABEL = "service"
#: RunConfig fields the service fixes for every job from ``base_config``.
_SERVICE_FIELDS = ("rewrite", "faults", "scheduler", "strict_sanitize")


class QueryService:
    """Admission + concurrent scheduling over one shared simulated cluster."""

    def __init__(
        self,
        environment: Environment,
        spec: Optional[ServiceSpec] = None,
        *,
        catalog: str = "repro",
        default_schema: Optional[str] = None,
        base_config: Optional[RunConfig] = None,
        tie_break: str = "fifo",
        observer=None,
    ) -> None:
        """Stand the service up on ``environment``'s datasets.

        ``base_config`` fixes the cluster-level knobs (fault spec, strict
        S3 typing) and the default per-query connector config; individual
        submissions may carry their own :class:`RunConfig`, which binds a
        separate connector on the *same* cluster.  ``tie_break`` /
        ``observer`` instrument the kernel for the determinism harness.
        """
        self.environment = environment
        self.spec = spec if spec is not None else ServiceSpec()
        self.catalog = catalog
        self.default_schema = default_schema
        self.base_config = (
            base_config
            if base_config is not None
            else RunConfig(label=_DEFAULT_CONFIG_LABEL, mode="ocs")
        )
        #: Hybrid result/page cache (docs/CACHE.md), shared through the
        #: environment so cached state is visible to later services built
        #: on the same datasets with an equal spec.
        self.cache = environment.cache_manager(self.base_config.cache)
        self.cluster = Cluster(
            environment.store,
            environment.testbed,
            environment.costs,
            faults=self.base_config.faults,
            tie_break=tie_break,
            sim_observer=observer,
            cache=self.cache,
        )
        self.sim = self.cluster.sim
        self.coordinator = Coordinator(
            self.cluster, {}, scheduler=self.base_config.scheduler,
            rewrite=self.base_config.rewrite,
        )
        self.admission = AdmissionController(self.spec)
        self.jobs: List[QueryJob] = []
        self._queue: List[QueryJob] = []
        self._active = 0
        self._next_seq = 0
        self._poll_scheduled = False
        #: Deterministic connector cache: config key -> catalog name.
        self._catalogs: Dict[tuple, str] = {}
        #: SimTSan over the shared cluster, when strict_sanitize resolves
        #: on (explicitly via ``base_config`` or the process default).
        #: One tracker per service so clocks persist across drains, but
        #: *installed* only around :meth:`wait_for`/:meth:`drain` — the
        #: process-wide handle must not leak into other clusters' runs.
        self.sanitizer = None
        if strict_sanitize_enabled(self.base_config.strict_sanitize):
            from repro.analysis.sanitizer import SimTSan

            self.sanitizer = SimTSan(self.sim)

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        sql: str,
        *,
        tenant: str = "default",
        schema: Optional[str] = None,
        config: Optional[RunConfig] = None,
        at: Optional[float] = None,
        memory_bytes: Optional[int] = None,
        label: Optional[str] = None,
    ) -> QueryHandle:
        """Enqueue one query for arrival at simulated time ``at``.

        ``at`` defaults to the current simulated instant (submissions
        from inside a running simulation, e.g. a closed-loop load
        generator, land "now").  The returned handle is live immediately;
        admission happens at the arrival instant.

        ``config`` may change connector-level fields (each distinct set
        binds its own connector), but not the ones the shared coordinator
        and cluster fix for every job: a differing ``rewrite``,
        ``faults``, ``scheduler`` or ``strict_sanitize`` raises
        :class:`~repro.errors.ConfigError` naming the field.
        """
        schema = schema if schema is not None else self.default_schema
        if schema is None:
            raise ConfigError(
                "submit() needs schema=... (or construct the service with "
                "default_schema)"
            )
        arrival = self.sim.now if at is None else float(at)
        if arrival < self.sim.now:
            raise ConfigError(
                f"submission time {arrival} is in the simulated past "
                f"(now={self.sim.now})"
            )
        if config is not None:
            for name in _SERVICE_FIELDS:
                if getattr(config, name) != getattr(self.base_config, name):
                    raise ConfigError(
                        f"a job's RunConfig.{name} must equal the service's "
                        f"base_config.{name}: the shared coordinator and "
                        f"cluster cannot honour it per job"
                    )
        seq = self._next_seq
        self._next_seq += 1
        job = QueryJob(
            query_id=f"q{seq:04d}",
            arrival_seq=seq,
            tenant=tenant,
            sql=sql,
            schema=schema,
            label=label if label is not None else f"q{seq:04d}",
            config=config if config is not None else self.base_config,
            memory_bytes=(
                memory_bytes
                if memory_bytes is not None
                else self.spec.default_query_memory_bytes
            ),
            completion=self.sim.event(),
        )
        self.jobs.append(job)
        self.sim.process(
            self._arrival(job, arrival - self.sim.now), name=f"submit-{job.query_id}"
        )
        return QueryHandle(self, job)

    def _arrival(self, job: QueryJob, delay: float):
        yield self.sim.timeout(delay)
        self._admit(job)

    # -- admission -------------------------------------------------------------

    # Same-instant submissions are processed in kernel dispatch order —
    # under the default FIFO tie-break, that is submission (arrival_seq)
    # order, and replays fix the policy, so the serialization is
    # deterministic *by design* even though no causal edge orders one
    # arrival's ledger update before the next one's check.  SimTSan
    # would flag every burst workload for it, so the admission calls
    # below carry targeted suppressions; any ledger access that does
    # not go through these serialized transitions is still checked.
    def _admit(self, job: QueryJob) -> None:
        tracer = self.cluster.tracer
        job.submitted = self.sim.now
        # Lifecycle spans deliberately outlive this function: the root
        # closes at the job's terminal transition, the queue span at
        # dispatch (or timeout/rejection).
        job.span = tracer.start(  # simlint: ignore[span-pair]
            "service.query",
            attributes={
                "tenant": job.tenant,
                "query_id": job.query_id,
                "label": job.label,
            },
        )
        # A query that can start immediately never occupies the queue, so
        # the queue bound only applies to submissions that would wait.
        would_wait = not (
            self._active < self.spec.max_active_queries
            and not self._queue
            and not self._backpressured()
        )
        error = self.admission.check(  # simtsan: ignore[admission.check]
            job, len(self._queue) if would_wait else -1
        )
        if error is not None:
            self._reject(job, error)
            return
        self.admission.admit(job)  # simtsan: ignore[admission.admit]
        job.status = JobStatus.QUEUED
        job.queue_span = tracer.start("queue", parent=job.span)  # simlint: ignore[span-pair]
        self._queue.append(job)
        if self.spec.queue_timeout_s is not None:
            self.sim.process(
                self._queue_timeout(job), name=f"queue-timeout-{job.query_id}"
            )
        self._pump()

    def _reject(self, job: QueryJob, error: AdmissionError) -> None:
        job.status = JobStatus.REJECTED
        job.error = error
        job.finished = self.sim.now
        span = job.span
        span.record_error(str(error.code))
        span.set("status", str(job.status))
        span.set("error_code", str(error.code))
        self.cluster.tracer.end(span)
        job.completion.succeed(None)

    def _queue_timeout(self, job: QueryJob):
        yield self.sim.timeout(self.spec.queue_timeout_s)
        if job.status is not JobStatus.QUEUED:
            return
        self._queue.remove(job)
        job.status = JobStatus.TIMED_OUT
        job.error = QueueTimeoutError(
            f"query {job.query_id} (tenant {job.tenant!r}) waited "
            f"{self.spec.queue_timeout_s}s in the run queue"
        )
        job.finished = self.sim.now
        self.admission.release(job)  # simtsan: ignore[admission.release]
        tracer = self.cluster.tracer
        if job.queue_span is not None:
            tracer.end(job.queue_span)
        job.span.record_error(str(job.error.code))
        job.span.set("status", str(job.status))
        job.span.set("error_code", str(job.error.code))
        tracer.end(job.span)
        job.completion.succeed(None)

    # -- scheduling ------------------------------------------------------------

    def _backpressured(self) -> bool:
        threshold = self.spec.backpressure_queue_depth
        return (
            threshold is not None
            and self.cluster.storage_queue_depth() >= threshold
        )

    def _pump(self) -> None:
        """Dispatch queued queries while slots are free (the scheduler)."""
        while self._queue and self._active < self.spec.max_active_queries:
            if self._backpressured():
                self._schedule_backpressure_poll()
                return
            self._dispatch(self._pick_next())

    def _pick_next(self) -> QueryJob:
        """Remove and return the next job to run under the policy.

        * ``fifo`` — strict arrival order across all tenants.
        * ``fair`` — among tenants with queued work, pick the one with the
          fewest running queries, breaking ties by least service received
          (simulated execution seconds, then completed count), then by
          arrival order.  Within a tenant, arrival order.
        """
        if self.spec.policy == "fifo":
            return self._queue.pop(0)
        head: Dict[str, QueryJob] = {}
        for job in self._queue:  # arrival order, so first seen = tenant head
            if job.tenant not in head:
                head[job.tenant] = job
        best: Optional[QueryJob] = None
        best_key = None
        for tenant, job in head.items():
            state = self.admission.tenant(tenant)
            key = (
                state.running,
                state.served_seconds,
                state.completed,
                job.arrival_seq,
            )
            if best_key is None or key < best_key:
                best_key, best = key, job
        assert best is not None  # _pump only calls with a non-empty queue
        self._queue.remove(best)
        return best

    def _schedule_backpressure_poll(self) -> None:
        if self._poll_scheduled:
            return
        self._poll_scheduled = True

        def poll():
            yield self.sim.timeout(self.spec.backpressure_poll_s)
            self._poll_scheduled = False
            self._pump()

        self.sim.process(poll(), name="backpressure-poll")

    def _dispatch(self, job: QueryJob) -> None:
        job.status = JobStatus.RUNNING
        job.dispatched = self.sim.now
        self.admission.record_dispatch(job)  # simtsan: ignore[admission.record_dispatch]
        self._active += 1
        if job.queue_span is not None:
            self.cluster.tracer.end(job.queue_span)
        self.sim.process(self._execute(job), name=f"query-{job.query_id}")

    def _execute(self, job: QueryJob):
        session = Session(catalog=self._catalog_for(job.config), schema=job.schema)
        tracer = self.cluster.tracer
        try:
            result = yield self.sim.process(
                self.coordinator.query_process(
                    job.sql,
                    session,
                    parent=job.span,
                    query_id=job.query_id,
                    tenant=job.tenant,
                ),
                name=f"run-{job.query_id}",
            )
        except Exception as exc:  # noqa: BLE001 - preserved on the handle
            job.status = JobStatus.FAILED
            job.error = exc
            code = getattr(exc, "code", None)
            job.span.record_error(str(code) if code is not None else "INTERNAL")
        else:
            job.status = JobStatus.SUCCEEDED
            job.result = result
        job.finished = self.sim.now
        job.span.set("status", str(job.status))
        self._active -= 1
        self.admission.release(job)  # simtsan: ignore[admission.release]
        tracer.end(job.span)
        job.completion.succeed(None)
        self._pump()

    def _catalog_for(self, config: RunConfig) -> str:
        """Bind (and cache) a connector for ``config`` on the shared cluster.

        Each distinct per-query config becomes its own catalog entry on
        the one coordinator, so mixed workloads (e.g. full pushdown next
        to filter-only) coexist on the same simulated hardware.
        """
        key = _config_key(config)
        name = self._catalogs.get(key)
        if name is None:
            name = (
                self.catalog
                if not self._catalogs
                else f"{self.catalog}-{len(self._catalogs)}"
            )
            connector = self.environment.build_connector(self.cluster, config)
            self.coordinator.catalogs[name] = connector
            self._catalogs[key] = name
        return name

    # -- driving ---------------------------------------------------------------

    def _run_sanitized(self, until) -> None:
        """Advance the kernel with this service's SimTSan installed.

        Install/uninstall brackets every advance so the process-wide
        sanitizer handle never leaks into some other cluster's run; the
        tracker itself persists, so causality spans multiple drains.
        """
        sanitizer = self.sanitizer
        if sanitizer is None:
            self.sim.run(until)
            return
        sanitizer.install()
        try:
            self.sim.run(until)
        finally:
            sanitizer.uninstall()

    def wait_for(self, job: QueryJob) -> None:
        """Advance simulated time until ``job`` reaches a terminal state."""
        if not job.completion.processed:
            self._run_sanitized(job.completion)

    def drain(self) -> "QueryService":
        """Run the simulation until every submitted query is terminal.

        Under SimTSan, any same-instant race collected during the run
        surfaces here as :class:`~repro.errors.SanitizerError`.
        """
        self._run_sanitized(None)
        stuck = [job.query_id for job in self.jobs if not job.terminal]
        if stuck:
            raise ServiceError(
                f"event queue drained with non-terminal queries: {stuck}"
            )
        if self.sanitizer is not None:
            self.sanitizer.raise_if_races()
        return self

    # -- reporting -------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def active_queries(self) -> int:
        return self._active

    def report(self):
        """SLO report over everything submitted so far (drains first)."""
        from repro.service.slo import build_report

        self.drain()
        return build_report(self)


def _config_key(config: RunConfig) -> tuple:
    """Deterministic, hash-stable identity of a connector-level config.

    ``repr`` would be unstable across processes (frozenset ordering under
    hash randomization), so the key is built from sorted scalars.  The
    cosmetic ``label`` is excluded: configs differing only in label share
    a connector.
    """
    policy = config.policy
    policy_key = None
    if policy is not None:
        # Every field, by reflection: a knob added later cannot be forgotten here.
        policy_key = tuple(
            tuple(sorted(policy.enabled)) if f.name == "enabled" else getattr(policy, f.name)
            for f in dataclasses.fields(policy)
        )
    retry = config.retry
    retry_key = None
    if retry is not None:
        retry_key = tuple(
            sorted((f, repr(getattr(retry, f))) for f in retry.__dataclass_fields__)
        )
    return (
        config.mode,
        config.split_granularity,
        config.prune_columns,
        policy_key,
        retry_key,
        config.cache.key() if config.cache is not None else None,
    )
