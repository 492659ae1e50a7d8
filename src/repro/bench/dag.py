"""Straggler benchmark: speculative split re-execution on a degraded node.

The paper's NDP deployments degrade gradually — a storage node's
embedded engine runs slow while its plain object-GET path keeps full
speed.  This bench injects exactly that: per trial, one storage node's
pushdown service is slowed by a deterministically drawn multiplier, and
the same single-table scan runs twice — speculation off, then on
(:class:`~repro.engine.scheduler.SchedulerSpec`).  With speculation on,
the DAG scheduler launches a raw-GET backup for each straggling split
and the first result wins.

Reported: per-trial seconds for both modes, then p50/p99 across trials.
The headline is the p99 — stragglers dominate tail latency, so
speculation must beat no-speculation there while every trial's result
digest stays identical (speculation changes latency, never results).
Output is deterministic for a fixed ``--seed`` (simulated time only),
so two reruns diff clean.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.determinism import canonical_result_digest
from repro.bench.env import Environment, RunConfig
from repro.bench.report import format_records
from repro.bench.scales import SCALES
from repro.config import DEFAULT_TESTBED, FaultSpec
from repro.core import PushdownPolicy
from repro.engine import SchedulerSpec
from repro.service.slo import percentile
from repro.workloads import lineitem_spec

__all__ = ["SQL", "render", "run", "straggler_trial"]

#: The scanned query: selective filter + small group-by, so split service
#: time is dominated by the pushdown work the fault slows down.
SQL = (
    "SELECT returnflag, SUM(extendedprice) AS s, COUNT(*) AS n "
    "FROM lineitem WHERE discount > 0.02 "
    "GROUP BY returnflag ORDER BY returnflag"
)

#: Degradation severity range (pushdown wall-time multiplier on the
#: degraded node).  Drawn per trial from a seeded RNG, so the trial set
#: spans mild to severe stragglers.
_MULT_RANGE = (4.0, 60.0)


def _build_environment(scale: str, seed: int) -> Environment:
    files, rows, nodes, _ = SCALES["dag"][scale]
    testbed = dataclasses.replace(DEFAULT_TESTBED, storage_node_count=nodes)
    env = Environment(testbed=testbed)
    env.add_dataset(lineitem_spec(files, rows, 17 + seed, row_group_rows=8192))
    return env


def _config(label: str, faults: FaultSpec, speculation: bool) -> RunConfig:
    return RunConfig(
        label=label,
        mode="ocs",
        policy=PushdownPolicy.filter_only(),
        split_granularity="file",
        faults=faults,
        scheduler=SchedulerSpec(
            speculation=speculation, speculation_quorum=0.25
        ),
    )


def straggler_trial(seed: int) -> Tuple[Environment, RunConfig]:
    """One smoke trial — storage node 0 slowed 20x, speculation on.

    What the race sweep and the determinism harness replay: backup
    launches, primary/backup completion ties and split settlement are
    the scheduler's densest same-instant territory.
    """
    faults = FaultSpec(storage_latency_multipliers={0: 20.0}, seed=seed)
    return _build_environment("smoke", seed), _config("straggler", faults, True)


def run(scale: str, seed: int = 0) -> Dict[str, Any]:
    """Run the trial sweep: per-trial rows and tail percentiles."""
    _, _, nodes, trials = SCALES["dag"][scale]
    env = _build_environment(scale, seed)
    rng = np.random.default_rng(1000 + seed)
    rows: List[Dict[str, Any]] = []
    digest: Optional[str] = None
    replay_identical = True
    for trial in range(trials):
        node = int(rng.integers(0, nodes))
        mult = round(float(rng.uniform(*_MULT_RANGE)), 2)
        faults = FaultSpec(
            storage_latency_multipliers={node: mult}, seed=seed + trial
        )
        off = env.run(SQL, _config("spec-off", faults, False), "tpch")
        on = env.run(SQL, _config("spec-on", faults, True), "tpch")
        replay = env.run(SQL, _config("spec-on", faults, True), "tpch")
        d_off = canonical_result_digest(off.batch)
        d_on = canonical_result_digest(on.batch)
        if digest is None:
            digest = d_on
        replay_identical = replay_identical and (
            canonical_result_digest(replay.batch) == d_on
            and replay.execution_seconds == on.execution_seconds
            and replay.metrics.snapshot() == on.metrics.snapshot()
        )
        rows.append(
            {
                "trial": trial,
                "node": node,
                "multiplier": mult,
                "off_seconds": off.execution_seconds,
                "on_seconds": on.execution_seconds,
                "backups": int(on.metrics.value("speculative_backups")),
                "wins": int(on.metrics.value("speculative_wins")),
                "digest_identical": d_off == d_on == digest,
            }
        )
    off_s = [row["off_seconds"] for row in rows]
    on_s = [row["on_seconds"] for row in rows]
    p99_off, p99_on = percentile(off_s, 99), percentile(on_s, 99)
    return {
        "scale": scale,
        "trials": trials,
        "rows": rows,
        "p50_off_s": percentile(off_s, 50),
        "p99_off_s": p99_off,
        "p50_on_s": percentile(on_s, 50),
        "p99_on_s": p99_on,
        "p99_speedup": p99_off / p99_on if p99_on else 0.0,
        # Speculation must beat no-speculation where stragglers hurt.
        "p99_improves": p99_on < p99_off,
        "identical": all(row["digest_identical"] for row in rows),
        # Every trial's speculation run re-ran with the same seed and
        # matched byte-for-byte (digest + simulated seconds + metrics).
        "replay_identical": replay_identical,
        # First trial's result digest (identical across every run and mode).
        "digest": digest or "",
    }


#: (header, key, format) of the per-trial table's columns.
COLUMNS = (
    ("trial", "trial", ""),
    ("node", "node", ""),
    ("slowdown", "multiplier", ".2f"),
    ("spec-off s", "off_seconds", ".4f"),
    ("spec-on s", "on_seconds", ".4f"),
    ("backups", "backups", ""),
    ("wins", "wins", ""),
    ("digest ok", "digest_identical", ""),
)


def render(doc: Dict[str, Any]) -> str:
    return (
        f"DAG straggler benchmark ({doc['scale']}): speculative split re-execution\n"
        f"{format_records(COLUMNS, doc['rows'])}\n"
        f"p50: {doc['p50_off_s']:.4f}s off vs {doc['p50_on_s']:.4f}s on | "
        f"p99: {doc['p99_off_s']:.4f}s off vs {doc['p99_on_s']:.4f}s on "
        f"({doc['p99_speedup']:.2f}x)\n"
        f"digests identical across modes and trials: "
        f"{'yes' if doc['identical'] else 'NO'}\n"
        f"seeded speculation reruns byte-identical: "
        f"{'yes' if doc['replay_identical'] else 'NO'}"
    )
