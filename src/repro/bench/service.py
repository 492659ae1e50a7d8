"""Multi-tenant service bench: seeded concurrent load on one cluster.

    python -m repro.bench service --queries 32 --seed 0
    python -m repro.bench service --queries 16 --policy fifo

Two tenants share one simulated cluster: ``analytics`` submits TPC-H Q1
over lineitem, ``hpc`` submits the Laghos mesh query.  Arrivals follow a
seeded Poisson process (open loop), admission control fronts a bounded
run queue, and the output is the SLO report — p50/p95/p99 latency,
queue-wait vs execution breakdown, per-tenant throughput, rejections by
error code — plus the event and result digests.  The entire output is
deterministic for a fixed seed: CI runs this twice and diffs the bytes.

:func:`submit_two_tenant_load` is the one definition of that scenario;
the snapshot gate, the race sweep and the determinism harness all drive
it with their own :class:`~repro.config.ServiceSpec`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from repro.analysis.determinism import DigestRecorder
from repro.bench.env import Environment, RunConfig
from repro.bench.scales import SCALES
from repro.config import CacheSpec, ServiceSpec
from repro.service import QueryService, QueryTemplate, open_loop
from repro.service.slo import QueryStat, SLOReport, TenantSLO
from repro.workloads import (
    LAGHOS_QUERY,
    TPCH_Q1,
    DatasetSpec,
    generate_lineitem,
    laghos_spec,
)

__all__ = ["render", "run", "submit_two_tenant_load"]

#: CI-sized datasets: big enough for multi-split queries, small enough
#: that the 2x smoke run stays in seconds.
LINEITEM_FILES, LINEITEM_ROWS = 2, 8_000
LAGHOS_FILES, LAGHOS_ROWS = 2, 4_096

TEMPLATES = (
    QueryTemplate(tenant="analytics", sql=TPCH_Q1, schema="tpch", label="q1"),
    QueryTemplate(tenant="hpc", sql=LAGHOS_QUERY, schema="hpc", label="laghos"),
)


def submit_two_tenant_load(
    spec: ServiceSpec,
    *,
    queries: int,
    seed: int,
    mean_interarrival_s: float = 0.05,
    tie_break: str = "fifo",
    observer: Any = None,
    cache: Optional[CacheSpec] = None,
) -> QueryService:
    """Stand the two-tenant service up and submit its open-loop load.

    ``cache`` configures the service's caches (none by default).
    Nothing has run yet when this returns: ``service.report()`` (or
    ``drain()``) is what drives the simulation.
    """
    env = Environment()
    # Hand-written on purpose: every file restarts the order keys and only
    # the seed moves, which ``lineitem_spec`` cannot say — and the gated
    # service digests pin exactly these bytes.
    env.add_dataset(
        DatasetSpec(
            schema_name="tpch",
            table_name="lineitem",
            bucket="tpch",
            file_count=LINEITEM_FILES,
            generator=lambda i: generate_lineitem(LINEITEM_ROWS, seed=7 + i),
        )
    )
    env.add_dataset(laghos_spec(LAGHOS_FILES, LAGHOS_ROWS, 11, bucket="hpc"))
    service = QueryService(
        env, spec, tie_break=tie_break, observer=observer,
        base_config=RunConfig(label="service", mode="ocs", cache=cache),
    )
    open_loop(
        service,
        TEMPLATES,
        queries=queries,
        mean_interarrival_s=mean_interarrival_s,
        seed=seed,
    )
    return service


def run(
    scale: str,
    seed: int = 0,
    queries: Optional[int] = None,
    policy: Optional[str] = None,
) -> Dict[str, Any]:
    """``queries`` / ``policy`` default to the scale's own."""
    scale_queries, scale_policy, max_active, queue_depth, interarrival_s = SCALES[
        "service"
    ][scale]
    queries = scale_queries if queries is None else queries
    policy = policy or scale_policy
    recorder = DigestRecorder()
    service = submit_two_tenant_load(
        ServiceSpec(
            max_active_queries=max_active, max_queue_depth=queue_depth, policy=policy
        ),
        queries=queries,
        seed=seed,
        mean_interarrival_s=interarrival_s,
        observer=recorder,
    )
    report = service.report()
    return {
        "queries": queries,
        "seed": seed,
        "policy": policy,
        "max_active": max_active,
        "queue_depth": queue_depth,
        "mean_interarrival_s": interarrival_s,
        "completed": report.completed,
        "makespan_s": report.makespan_s,
        "digest": report.digest(),
        "event_digest": recorder.final_digest,
        "slo": dataclasses.asdict(report),
    }


def render(doc: Dict[str, Any]) -> str:
    slo = doc["slo"]
    report = SLOReport(
        **{
            **slo,
            "queries": [QueryStat(**stat) for stat in slo["queries"]],
            "tenants": [TenantSLO(**tenant) for tenant in slo["tenants"]],
        }
    )
    return (
        f"service bench: {doc['queries']} queries, seed {doc['seed']}, "
        f"policy {doc['policy']}, max-active {doc['max_active']}, "
        f"queue-depth {doc['queue_depth']}, "
        f"mean interarrival {doc['mean_interarrival_s'] * 1e3:.1f} ms\n"
        f"\n{report.format()}\n"
        f"\nevent digest : {doc['event_digest']}"
        f"\nresult digest: {doc['digest']}"
    )
