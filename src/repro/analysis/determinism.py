"""Determinism checker: digest replays + adversarial tie-break runs.

PR 2 claimed "traced runs are bit-identical in simulated time"; this
module turns that claim into a checked invariant:

* :class:`DigestRecorder` hangs off the simulator's ``observer`` hook and
  folds every dispatched event (timestamp, sequence id, event type/name,
  scalar payload) into a sha256 chain — a per-event digest of the
  schedule as it unfolds.
* :func:`check_determinism` replays one seeded workload twice with FIFO
  tie-breaking and diffs the digest chains event by event (the first
  divergence pinpoints where two "identical" runs split), then runs a
  third replay under **LIFO** tie-breaking.  Events at equal simulated
  time are the only places dispatch order is policy-dependent; if the
  canonical (row-order-independent) result digest changes under the
  adversarial order, some same-timestamp pair of events races on shared
  state — a genuine ordering hazard, not a formatting difference.

Run the built-in harness with ``python -m repro.analysis.determinism``.
It covers six suites: a quickstart-style seeded sensor workload under
full OCS pushdown (``query``), the same query on the no-pushdown
baseline under seeded link drops that its gateway reads retry through
(``faulted-baseline``), one straggler trial of the dag bench with
speculation on (``dag``, via :func:`check_dag_determinism`), a
seeded multi-tenant service run (``service``, via
:func:`check_service_determinism` — there the adversarial LIFO replay
must reproduce the *entire* SLO digest, timings included, because
same-instant submission and dispatch ordering is exactly what admission
control serializes), and that service run with the plan tier on
(``service-repeat``), where the repeated statements must hit the tier in
every replay, and a service run whose statements arrive in same-instant
duplicate pairs with every cache tier on (``service-tied``, via
:func:`check_service_tied_determinism`): the Poisson arrivals of the
other service suites never tie.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.arrowsim.record_batch import RecordBatch
from repro.errors import DeterminismError
from repro.sim.kernel import Event

__all__ = [
    "DigestRecorder",
    "ReplayReport",
    "DeterminismReport",
    "canonical_result_digest",
    "run_recorded",
    "check_determinism",
    "check_dag_determinism",
    "run_service_recorded",
    "check_service_determinism",
    "check_service_repeat_determinism",
    "run_service_tied_recorded",
    "check_service_tied_determinism",
    "main",
]

_SCALARS = (bool, int, float, str, bytes, type(None))


class DigestRecorder:
    """Simulator observer that chains a sha256 digest over every event."""

    def __init__(self) -> None:
        self._chain = hashlib.sha256(b"repro.analysis.determinism")
        self.digests: List[str] = []
        self.max_simultaneous = 0
        self._last_time: Optional[float] = None
        self._run = 0

    def __call__(self, time: float, seq: int, event: Event) -> None:
        chain = self._chain
        chain.update(float(time).hex().encode())
        chain.update(str(seq).encode())
        chain.update(type(event).__name__.encode())
        name = getattr(event, "name", "")
        if name:
            chain.update(str(name).encode())
        value = event._value
        if isinstance(value, _SCALARS):
            chain.update(repr(value).encode())
        else:
            chain.update(type(value).__name__.encode())
        self.digests.append(chain.hexdigest())
        # Track the longest same-instant run independently of the kernel
        # (the recorder may outlive the per-run Simulator).  Exact float
        # equality is correct: both values are the same heap timestamp.
        if self._last_time is not None and time == self._last_time:  # simlint: ignore[float-eq]
            self._run += 1
        else:
            self._run = 1
            self._last_time = time
        if self._run > self.max_simultaneous:
            self.max_simultaneous = self._run

    @property
    def final_digest(self) -> str:
        return self.digests[-1] if self.digests else self._chain.hexdigest()


def canonical_result_digest(batch: RecordBatch) -> str:
    """Row-order-independent digest of a result batch.

    Sorts columns by name and rows by repr so legitimate order
    differences (e.g. unordered SELECT output) do not register, while any
    value difference does.
    """
    data = batch.to_pydict()
    names = sorted(data)
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode())
        dtype = batch.schema.field(name).dtype
        digest.update(dtype.name.encode())
    rows = sorted(zip(*(data[name] for name in names)), key=repr) if names else []
    for row in rows:
        digest.update(repr(row).encode())
    return digest.hexdigest()


@dataclass(frozen=True, kw_only=True)
class ReplayReport:
    """One instrumented run: schedule digests + canonical result digest."""

    tie_break: str
    events: int
    event_digests: List[str]
    result_digest: str
    execution_seconds: float
    max_simultaneous: int
    #: Statements served by the plan tier (service runs with a cache).
    plan_hits: int = 0

    @property
    def final_digest(self) -> str:
        return self.event_digests[-1] if self.event_digests else ""


@dataclass(frozen=True, kw_only=True)
class DeterminismReport:
    """Outcome of the two-replay + adversarial-order harness."""

    baseline: ReplayReport
    replay: ReplayReport
    adversarial: ReplayReport
    #: Index of the first event where the two FIFO replays diverged
    #: (None when they are digest-identical).
    first_divergence: Optional[int] = None
    notes: List[str] = field(default_factory=list)

    @property
    def replay_identical(self) -> bool:
        return (
            self.first_divergence is None
            and self.baseline.result_digest == self.replay.result_digest
        )

    @property
    def ordering_hazard(self) -> bool:
        """True when LIFO tie-breaking changed the query's *results*."""
        return self.adversarial.result_digest != self.baseline.result_digest

    @property
    def ok(self) -> bool:
        return self.replay_identical and not self.ordering_hazard

    def raise_if_failed(self) -> None:
        if not self.replay_identical:
            where = (
                f"event {self.first_divergence}"
                if self.first_divergence is not None
                else "result digest"
            )
            raise DeterminismError(
                f"two identical seeded replays diverged at {where}"
            )
        if self.ordering_hazard:
            raise DeterminismError(
                "LIFO tie-break replay changed query results: some "
                "same-timestamp events race on shared state"
            )

    def summary(self) -> str:
        lines = [
            f"baseline   : {self.baseline.events} events, "
            f"{self.baseline.max_simultaneous} max simultaneous, "
            f"result {self.baseline.result_digest[:16]}",
            f"replay     : {'identical' if self.replay_identical else 'DIVERGED'}"
            + (
                f" (first divergence at event {self.first_divergence})"
                if self.first_divergence is not None
                else ""
            ),
            f"adversarial: {'identical results' if not self.ordering_hazard else 'ORDERING HAZARD'}"
            f" under LIFO tie-breaking",
        ]
        lines.extend(self.notes)
        return "\n".join(lines)


def _first_divergence(a: List[str], b: List[str]) -> Optional[int]:
    for index, (da, db) in enumerate(zip(a, b)):
        if da != db:
            return index
    if len(a) != len(b):
        return min(len(a), len(b))
    return None


def run_recorded(
    env: Any,
    sql: str,
    config: Any,
    schema: str,
    catalog: str = "repro",
    tie_break: str = "fifo",
) -> ReplayReport:
    """Run one query on ``env`` with a :class:`DigestRecorder` attached."""
    recorder = DigestRecorder()
    result = env.run(
        sql, config, schema, catalog, tie_break=tie_break, observer=recorder
    )
    return ReplayReport(
        tie_break=tie_break,
        events=len(recorder.digests),
        event_digests=recorder.digests,
        result_digest=canonical_result_digest(result.batch),
        execution_seconds=result.execution_seconds,
        max_simultaneous=recorder.max_simultaneous,
    )


def _check(replay: Callable[[str], ReplayReport]) -> DeterminismReport:
    """Two FIFO replays diffed per event + one adversarial LIFO replay."""
    baseline, again, adversarial = replay("fifo"), replay("fifo"), replay("lifo")
    notes: List[str] = []
    if baseline.max_simultaneous <= 1:
        notes.append(
            "note: no same-timestamp event runs observed; the adversarial "
            "replay exercised nothing"
        )
    return DeterminismReport(
        baseline=baseline,
        replay=again,
        adversarial=adversarial,
        first_divergence=_first_divergence(
            baseline.event_digests, again.event_digests
        ),
        notes=notes,
    )


def check_determinism(
    env: Any, sql: str, config: Any, schema: str, catalog: str = "repro"
) -> DeterminismReport:
    """Two FIFO replays diffed per event + one adversarial LIFO replay."""
    return _check(
        lambda tie_break: run_recorded(
            env, sql, config, schema, catalog, tie_break=tie_break
        )
    )


# --------------------------------------------------------------------------
# Bench suites: dag (speculation) and service (multi-tenant)
# --------------------------------------------------------------------------


def check_dag_determinism(seed: int = 0) -> DeterminismReport:
    """One straggler trial of the dag bench under the replay harness.

    Speculation plus a degraded storage node is the scheduler's densest
    same-instant territory — backup launches, primary/backup completion
    ties, split settlement.  The adversarial LIFO replay asserts none of
    it leaks into query results.
    """
    from repro.bench import dag

    env, config = dag.straggler_trial(seed)
    return check_determinism(env, dag.SQL, config, schema="tpch")


def run_service_recorded(
    *, queries: int = 8, seed: int = 0, tie_break: str = "fifo", cache: Any = None
) -> ReplayReport:
    """One seeded multi-tenant service run with a recorder attached.

    The ``result_digest`` is the SLO report digest: per-query status,
    latency/queue-wait/execution timings, and result values.  Service
    runs must reproduce all of it — not just result rows — because
    admission control serializes same-instant submissions by dispatch
    order, and that serialization must not depend on the tie-break
    policy.  ``cache`` is the service's :class:`~repro.config.CacheSpec`.
    """
    from repro.bench.service import submit_two_tenant_load
    from repro.config import ServiceSpec

    recorder = DigestRecorder()
    service = submit_two_tenant_load(
        ServiceSpec(max_active_queries=2, max_queue_depth=8),
        queries=queries,
        seed=seed,
        tie_break=tie_break,
        observer=recorder,
        cache=cache,
    )
    return _service_replay(service, recorder, tie_break)


def run_service_tied_recorded(*, tie_break: str = "fifo") -> ReplayReport:
    """Every service template submitted twice at t=0, every cache tier on.

    All four statements are admitted at once, and each pair misses the
    result tier at one instant and races to fill it.
    """
    from repro.bench.service import TEMPLATES, submit_two_tenant_load
    from repro.config import CacheSpec, ServiceSpec

    recorder = DigestRecorder()
    service = submit_two_tenant_load(
        ServiceSpec(max_active_queries=2 * len(TEMPLATES), max_queue_depth=8),
        queries=0,
        seed=0,
        tie_break=tie_break,
        observer=recorder,
        cache=CacheSpec(),
    )
    for template in TEMPLATES:
        for copy in range(2):
            service.submit(
                template.sql,
                tenant=template.tenant,
                schema=template.schema,
                label=f"{template.display_label}-{copy}",
                at=0.0,
            )
    return _service_replay(service, recorder, tie_break)


def _service_replay(service: Any, recorder: DigestRecorder, tie_break: str) -> ReplayReport:
    # report() drains the service, which is what actually runs the
    # simulation — snapshot the recorder only afterwards.
    report = service.report()
    return ReplayReport(
        tie_break=tie_break,
        events=len(recorder.digests),
        event_digests=list(recorder.digests),
        result_digest=report.digest(),
        execution_seconds=service.sim.now,
        max_simultaneous=recorder.max_simultaneous,
        plan_hits=service.cache.plans.stats.hits if service.cache is not None else 0,
    )


def check_service_determinism(queries: int = 8, seed: int = 0) -> DeterminismReport:
    """Two FIFO service replays diffed per event + one adversarial LIFO."""
    return _check(
        lambda tie_break: run_service_recorded(
            queries=queries, seed=seed, tie_break=tie_break
        )
    )


def check_service_repeat_determinism(
    queries: int = 8, seed: int = 0
) -> DeterminismReport:
    """The service suite with the plan tier alone on: its two templates
    repeat, so the repeats are served prepared plans in all three
    replays (a replay without a hit exercised nothing and fails)."""
    from repro.config import CacheSpec

    plans_only = CacheSpec(
        result_budget_bytes=0, split_budget_bytes=0, storage_budget_bytes=0
    )
    replays: List[ReplayReport] = []

    def replay(tie_break: str) -> ReplayReport:
        report = run_service_recorded(
            queries=queries, seed=seed, tie_break=tie_break, cache=plans_only
        )
        replays.append(report)
        return report

    report = _check(replay)
    hits = [r.plan_hits for r in replays]
    report.notes.append(
        "plan-tier hits (fifo, fifo, lifo): " + ", ".join(map(str, hits))
    )
    if not all(hits):
        raise DeterminismError(
            f"a service-repeat replay served no prepared plan (hits {hits})"
        )
    return report


def check_service_tied_determinism() -> DeterminismReport:
    """Same-instant duplicate statements with every cache tier on.

    The LIFO replay must reproduce the whole SLO digest: no cache tier
    may add a same-instant hop, since each such hop reverses a tied pair
    under LIFO and lets it trade latencies.  The pairs arrive at t=0,
    where an uncached run keeps them in order.  A pair arriving later
    crosses one more tied hop (its arrival timeout) and trades places
    under LIFO with or without caches: a contended resource (the link
    to the frontend) grants same-instant requests in dispatch order.
    """
    return _check(lambda tie_break: run_service_tied_recorded(tie_break=tie_break))


# --------------------------------------------------------------------------
# Built-in harness (CI entry point)
# --------------------------------------------------------------------------


def _build_harness_env() -> Any:
    """Quickstart-style seeded sensor workload, sized for CI."""
    import numpy as np

    from repro.bench.env import Environment
    from repro.workloads.datasets import DatasetSpec

    def make_file(index: int) -> RecordBatch:
        rng = np.random.default_rng(42 + index)
        n = 5_000
        return RecordBatch.from_arrays(
            {
                "sensor_id": rng.integers(0, 16, n),
                "temperature": 20 + 5 * rng.standard_normal(n),
                "pressure": 1000 + 30 * rng.standard_normal(n),
                "day": np.full(n, index, dtype=np.int64),
            }
        )

    env = Environment()
    env.add_dataset(
        DatasetSpec(
            schema_name="lab",
            table_name="readings",
            bucket="sensors",
            file_count=4,
            generator=make_file,
        )
    )
    return env


HARNESS_QUERY = """
SELECT sensor_id, count(*) AS samples, avg(temperature) AS avg_temp,
       max(pressure) AS max_p
FROM readings
WHERE temperature > 25.0
GROUP BY sensor_id
ORDER BY avg_temp DESC
LIMIT 10
"""


def _check_query_suite() -> DeterminismReport:
    from repro.bench.env import RunConfig

    env = _build_harness_env()
    return check_determinism(
        env,
        HARNESS_QUERY,
        RunConfig(label="determinism", mode="ocs"),
        schema="lab",
    )


def _check_faulted_baseline_suite() -> DeterminismReport:
    """hive-raw under link drops: retries, backoff jitter and all replay."""
    from repro.bench.env import RunConfig
    from repro.config import FaultSpec
    from repro.rpc.retry import RetryPolicy

    config = RunConfig(
        label="faulted-baseline", mode="hive-raw",
        faults=FaultSpec(link_drop_probability=0.2, seed=3),
        retry=RetryPolicy(max_attempts=10, initial_backoff_s=0.005),
    )
    return check_determinism(_build_harness_env(), HARNESS_QUERY, config, schema="lab")


def main() -> int:
    suites = [
        ("query", _check_query_suite),
        ("faulted-baseline", _check_faulted_baseline_suite),
        ("dag", check_dag_determinism),
        ("service", check_service_determinism),
        ("service-repeat", check_service_repeat_determinism),
        ("service-tied", check_service_tied_determinism),
    ]
    ok = True
    for name, check in suites:
        report = check()
        print(f"== {name} ==")
        print(report.summary())
        print()
        ok = ok and report.ok
    if ok:
        print("determinism harness: clean")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
