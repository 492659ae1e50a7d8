"""Seeded load generators driving the multi-tenant query service.

Two canonical shapes from the SLO literature:

* :func:`open_loop` — arrivals follow a seeded Poisson process that does
  *not* react to service latency (the shape that exposes queueing
  collapse: arrivals keep coming while the cluster falls behind).
* :func:`closed_loop` — a fixed population of simulated clients, each
  submitting its next query only after the previous one finished
  (optionally after a think time), which self-limits concurrency.

Both are deterministic: the only randomness is a ``random.Random(seed)``
driving interarrival draws, and all waiting happens in simulated time,
so one seed always produces one schedule (digest-checkable with
``repro.analysis.determinism``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.bench.env import RunConfig
from repro.errors import ConfigError
from repro.service.jobs import QueryHandle
from repro.service.service import QueryService

__all__ = ["QueryTemplate", "open_loop", "closed_loop"]


@dataclass(frozen=True, kw_only=True)
class QueryTemplate:
    """One tenant's recurring query in a load mix."""

    tenant: str
    sql: str
    schema: str
    label: str = ""
    config: Optional[RunConfig] = None

    @property
    def display_label(self) -> str:
        return self.label or self.tenant


def open_loop(
    service: QueryService,
    templates: Sequence[QueryTemplate],
    *,
    queries: int,
    mean_interarrival_s: float,
    seed: int,
    start_at: float = 0.0,
) -> List[QueryHandle]:
    """Submit ``queries`` Poisson arrivals, round-robin over ``templates``.

    Round-robin template selection guarantees every tenant appears in the
    mix regardless of seed; only the *timing* is random.  Returns the
    handles immediately — drive them with ``service.drain()`` (or
    ``handle.result()``).
    """
    if not templates:
        raise ConfigError("open_loop needs at least one query template")
    if mean_interarrival_s <= 0:
        raise ConfigError(
            f"mean_interarrival_s must be > 0, got {mean_interarrival_s}"
        )
    rng = random.Random(seed)
    rate = 1.0 / mean_interarrival_s
    handles: List[QueryHandle] = []
    t = start_at
    for i in range(queries):
        template = templates[i % len(templates)]
        t += rng.expovariate(rate)
        handles.append(
            service.submit(
                template.sql,
                tenant=template.tenant,
                schema=template.schema,
                config=template.config,
                label=f"{template.display_label}-{i}",
                at=t,
            )
        )
    return handles


def closed_loop(
    service: QueryService,
    templates: Sequence[QueryTemplate],
    *,
    queries_per_client: int,
    clients_per_template: int = 1,
    think_time_s: float = 0.0,
) -> List[QueryHandle]:
    """Fixed client population: submit, await completion, repeat.

    Spawns ``clients_per_template`` simulated clients per template, each
    issuing ``queries_per_client`` queries back to back.  The returned
    list fills *as the simulation runs* — it is complete only after
    ``service.drain()``.  A rejected or timed-out submission still
    completes its wait, so a throttled client simply moves on to its
    next query (retry loops belong to the caller).
    """
    if not templates:
        raise ConfigError("closed_loop needs at least one query template")
    if queries_per_client < 1 or clients_per_template < 1:
        raise ConfigError("closed_loop needs >= 1 query per client and >= 1 client")
    handles: List[QueryHandle] = []

    def client(template: QueryTemplate, client_id: str):
        for i in range(queries_per_client):
            handle = service.submit(
                template.sql,
                tenant=template.tenant,
                schema=template.schema,
                config=template.config,
                label=f"{template.display_label}-{client_id}.{i}",
            )
            handles.append(handle)
            yield handle.completion_event()
            if think_time_s > 0:
                yield service.sim.timeout(think_time_s)

    for t_index, template in enumerate(templates):
        for c in range(clients_per_template):
            client_id = f"{t_index}.{c}"
            service.sim.process(
                client(template, client_id), name=f"client-{client_id}"
            )
    return handles
