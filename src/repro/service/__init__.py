"""Multi-tenant query service over the simulated OCS cluster.

The subsystem the paper's single-query benchmarks stop short of: many
concurrently submitted queries from multiple tenants sharing one
simulated cluster, with admission control in front (a bounded queue
with an optional wait deadline), a FIFO/fair-share scheduler in the middle, seeded
open/closed-loop load generation driving it, and an SLO report
(p50/p95/p99, queue-wait vs execution, per-tenant throughput) out the
back.  See ``docs/SERVICE.md``.
"""

from repro.service.admission import AdmissionController, TenantState
from repro.service.jobs import JobStatus, QueryHandle, QueryJob
from repro.service.loadgen import QueryTemplate, closed_loop, open_loop
from repro.service.service import QueryService
from repro.service.slo import QueryStat, SLOReport, TenantSLO, build_report

__all__ = [
    "AdmissionController",
    "TenantState",
    "JobStatus",
    "QueryHandle",
    "QueryJob",
    "QueryTemplate",
    "open_loop",
    "closed_loop",
    "QueryService",
    "QueryStat",
    "SLOReport",
    "TenantSLO",
    "build_report",
]
