"""SLO reporting: latency percentiles, queue-wait breakdown, fairness.

Turns a drained :class:`~repro.service.service.QueryService` into the
numbers an operator would put on a dashboard: per-tenant p50/p95/p99
latency, the queue-wait vs execution split of that latency, admission
outcomes by error code, throughput over each tenant's active window, and
the scan-driver seconds each tenant consumed on the shared cluster (the
fairness signal).

Everything is derived from simulated timestamps and per-owner resource
ledgers, so the report — including :meth:`SLOReport.digest` — is
bit-identical across replays of the same seeded workload.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.analysis.determinism import canonical_result_digest
from repro.bench.report import format_table
from repro.service.jobs import JobStatus, QueryJob
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.service import QueryService

__all__ = ["percentile", "QueryStat", "TenantSLO", "SLOReport", "build_report"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


@dataclass(frozen=True, kw_only=True)
class QueryStat:
    """One submission's outcome, flattened for reporting."""

    query_id: str
    tenant: str
    label: str
    status: str
    latency_s: float
    queue_wait_s: float
    execution_s: float
    rows: int
    error_code: Optional[str] = None
    result_digest: Optional[str] = None


@dataclass(frozen=True, kw_only=True)
class TenantSLO:
    """One tenant's service-level numbers over the run."""

    tenant: str
    submitted: int
    completed: int
    failed: int
    rejected: int
    timed_out: int
    rejections_by_code: Dict[str, int] = field(default_factory=dict)
    p50_latency_s: float = 0.0
    p95_latency_s: float = 0.0
    p99_latency_s: float = 0.0
    mean_queue_wait_s: float = 0.0
    mean_execution_s: float = 0.0
    #: Completed queries per simulated second of the tenant's active
    #: window (first submission to last completion).
    throughput_qps: float = 0.0
    #: Scan-driver slot seconds this tenant's queries held on the shared
    #: cluster: compute-side driver time only (ingest and split-local
    #: operators; a raw split's whole fetch too), never an OCS split's
    #: wait on storage.  A reported column; the fair scheduler balances
    #: ``TenantState.served_seconds`` (execution seconds) instead.
    scan_driver_seconds: float = 0.0


@dataclass(frozen=True, kw_only=True)
class SLOReport:
    """The full report: per-query rows, per-tenant SLOs, overall numbers."""

    queries: List[QueryStat]
    tenants: List[TenantSLO]
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    mean_queue_wait_s: float
    mean_execution_s: float
    #: First submission to last completion across all tenants.
    makespan_s: float
    completed: int
    rejected: int
    timed_out: int
    failed: int

    def tenant(self, name: str) -> TenantSLO:
        for slo in self.tenants:
            if slo.tenant == name:
                return slo
        raise KeyError(name)

    def digest(self) -> str:
        """Deterministic digest of outcomes, timings, and result values.

        Two replays of one seeded workload must produce identical
        digests; submission order does not matter (rows are sorted), but
        any status, timing, or result-value difference registers.
        """
        digest = hashlib.sha256(b"repro.service.slo")
        lines = sorted(
            "|".join(
                (
                    stat.tenant,
                    stat.label,
                    stat.status,
                    float(stat.latency_s).hex(),
                    float(stat.queue_wait_s).hex(),
                    float(stat.execution_s).hex(),
                    stat.error_code or "",
                    stat.result_digest or "",
                )
            )
            for stat in self.queries
        )
        for line in lines:
            digest.update(line.encode())
        return digest.hexdigest()

    def format(self) -> str:
        """Dashboard-style plain-text rendering."""
        lines = [
            f"queries: {len(self.queries)}   completed: {self.completed}   "
            f"rejected: {self.rejected}   timed-out: {self.timed_out}   "
            f"failed: {self.failed}",
            f"makespan: {self.makespan_s * 1e3:.3f} ms   "
            f"latency p50/p95/p99: {self.p50_latency_s * 1e3:.3f} / "
            f"{self.p95_latency_s * 1e3:.3f} / {self.p99_latency_s * 1e3:.3f} ms",
            f"mean latency split: queue wait {self.mean_queue_wait_s * 1e3:.3f} ms"
            f" + execution {self.mean_execution_s * 1e3:.3f} ms",
            "",
            format_table(
                [
                    "tenant", "submitted", "done", "rejected", "timed-out",
                    "p50 ms", "p95 ms", "p99 ms", "queue ms", "exec ms",
                    "qps", "driver s",
                ],
                [
                    [
                        slo.tenant,
                        slo.submitted,
                        slo.completed,
                        slo.rejected,
                        slo.timed_out,
                        f"{slo.p50_latency_s * 1e3:.3f}",
                        f"{slo.p95_latency_s * 1e3:.3f}",
                        f"{slo.p99_latency_s * 1e3:.3f}",
                        f"{slo.mean_queue_wait_s * 1e3:.3f}",
                        f"{slo.mean_execution_s * 1e3:.3f}",
                        f"{slo.throughput_qps:.3f}",
                        f"{slo.scan_driver_seconds:.6f}",
                    ]
                    for slo in self.tenants
                ],
            ),
        ]
        rejection_codes: Dict[str, int] = {}
        for slo in self.tenants:
            for code, count in slo.rejections_by_code.items():
                rejection_codes[code] = rejection_codes.get(code, 0) + count
        if rejection_codes:
            lines.append("")
            lines.append("admission rejections by code:")
            for code in sorted(rejection_codes):
                lines.append(f"  {code:<28} {rejection_codes[code]}")
        return "\n".join(lines)


def _execution_seconds(job: QueryJob) -> float:
    if job.dispatched is None or job.finished is None:
        return 0.0
    return job.finished - job.dispatched


def _query_stat(job: QueryJob) -> QueryStat:
    error_code = getattr(job.error, "code", None)
    return QueryStat(
        query_id=job.query_id,
        tenant=job.tenant,
        label=job.label,
        status=str(job.status),
        latency_s=job.latency_seconds,
        queue_wait_s=job.queue_wait_seconds,
        execution_s=_execution_seconds(job),
        rows=job.result.rows if job.result is not None else 0,
        error_code=str(error_code) if error_code is not None else None,
        result_digest=(
            canonical_result_digest(job.result.batch)
            if job.result is not None
            else None
        ),
    )


def _tenant_slo(name: str, jobs: List[QueryJob], drivers: Resource) -> TenantSLO:
    """One tenant's row, derived from the records of its arrived jobs."""
    done = [j for j in jobs if j.status is JobStatus.SUCCEEDED]
    rejected = [j for j in jobs if j.status is JobStatus.REJECTED]
    latencies = [j.latency_seconds for j in done]
    # The active window runs from the first arrival to the last terminal
    # transition a query held admission through (a rejection held none).
    first_submit = min(j.submitted for j in jobs)
    finishes = [
        j.finished for j in jobs
        if j.status is not JobStatus.REJECTED and j.finished is not None
    ]
    window = max(finishes) - first_submit if finishes else 0.0
    return TenantSLO(
        tenant=name,
        submitted=len(jobs),
        completed=len(done),
        failed=sum(1 for j in jobs if j.status is JobStatus.FAILED),
        rejected=len(rejected),
        timed_out=sum(1 for j in jobs if j.status is JobStatus.TIMED_OUT),
        rejections_by_code=dict(
            Counter(str(getattr(j.error, "code", None)) for j in rejected)
        ),
        p50_latency_s=percentile(latencies, 50),
        p95_latency_s=percentile(latencies, 95),
        p99_latency_s=percentile(latencies, 99),
        mean_queue_wait_s=(
            sum(j.queue_wait_seconds for j in done) / len(done) if done else 0.0
        ),
        mean_execution_s=(
            sum(_execution_seconds(j) for j in done) / len(done) if done else 0.0
        ),
        throughput_qps=(len(done) / window if window > 0 else 0.0),
        scan_driver_seconds=sum(drivers.busy_seconds(j.query_id) for j in jobs),
    )


def build_report(service: "QueryService") -> SLOReport:
    """Assemble the SLO report from a drained service's job records.

    The job records are the only outcome ledger: a tenant is listed once
    one of its submissions has arrived, and every number in its row is
    derived from those jobs.
    """
    stats = [_query_stat(job) for job in service.jobs]
    arrived = [job for job in service.jobs if job.submitted is not None]
    tenants = [
        _tenant_slo(
            name,
            [job for job in arrived if job.tenant == name],
            service.cluster.scan_drivers,
        )
        for name in sorted({job.tenant for job in arrived})
    ]

    done_stats = [s for s in stats if s.status == str(JobStatus.SUCCEEDED)]
    latencies = [s.latency_s for s in done_stats]
    submits = [job.submitted for job in arrived]
    finishes = [job.finished for job in service.jobs if job.finished is not None]
    makespan = (max(finishes) - min(submits)) if submits and finishes else 0.0
    return SLOReport(
        queries=stats,
        tenants=tenants,
        p50_latency_s=percentile(latencies, 50),
        p95_latency_s=percentile(latencies, 95),
        p99_latency_s=percentile(latencies, 99),
        mean_queue_wait_s=(
            sum(s.queue_wait_s for s in done_stats) / len(done_stats)
            if done_stats else 0.0
        ),
        mean_execution_s=(
            sum(s.execution_s for s in done_stats) / len(done_stats)
            if done_stats else 0.0
        ),
        makespan_s=makespan,
        completed=sum(1 for s in stats if s.status == str(JobStatus.SUCCEEDED)),
        rejected=sum(1 for s in stats if s.status == str(JobStatus.REJECTED)),
        timed_out=sum(1 for s in stats if s.status == str(JobStatus.TIMED_OUT)),
        failed=sum(1 for s in stats if s.status == str(JobStatus.FAILED)),
    )
