"""Cache benchmark: hit-rate sweep over the hybrid result/page cache.

Real BI traffic repeats itself — dashboards refresh, analysts re-run the
same slice.  This bench replays that shape deterministically: at each
*reuse level* r, the same number of query executions is drawn from a
template pool sized so a fraction ~r of executions repeat an earlier
query.  The cache (docs/CACHE.md) turns those repeats into coordinator
result-tier hits, so bytes moved across the storage/compute boundary and
tail latency must both fall as reuse rises — while every template's
result digest stays identical whether it was computed or served.

Template pools nest (a lower level's pool is a prefix of a higher
level's) and templates are ordered cheap-first, so the gates compare
like with like:

* **digests** — each template's canonical result digest is identical
  across repeats and across reuse levels (a cache must never change an
  answer);
* **bytes** — total storage→compute bytes strictly decrease as reuse
  rises (served results move no table data);
* **p99** — tail latency at the highest reuse level beats zero reuse.

A second section drills the tier cascade with three runs on a fresh
environment: a cold query (fills every tier), an exact repeat (result
tier serves it), and a same-scan/different-aggregate variant (result and
split tiers miss, the OCS page tier serves the pushed subplan without a
disk read).

Output is deterministic for a fixed ``--seed`` (simulated time only), so
two reruns diff clean.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.analysis.determinism import canonical_result_digest
from repro.bench.env import Environment, RunConfig
from repro.bench.report import format_records
from repro.bench.scales import SCALES
from repro.config import CacheSpec
from repro.core import PushdownPolicy
from repro.engine import QueryResult
from repro.service.slo import percentile
from repro.workloads import lineitem_spec

__all__ = ["render", "run", "run_tier_drill"]

#: Swept reuse levels.  Pool sizes must divide the execution count so
#: every template repeats the same number of times within a level.
REUSE_LEVELS: Tuple[float, ...] = (0.0, 0.5, 0.9)

#: One parameterized template: the paper's pushdown-friendly scan shape
#: (selective filter + small group-by).  Thresholds are ordered
#: *descending*, so template 0 keeps the fewest rows (cheapest) and the
#: nested pools put the expensive templates only in the low-reuse runs —
#: the p99 gate then compares a cheap cold run against an expensive one.
SQL_TEMPLATE = (
    "SELECT returnflag, SUM(extendedprice) AS s, COUNT(*) AS n "
    "FROM lineitem WHERE discount > {threshold:.3f} "
    "GROUP BY returnflag ORDER BY returnflag"
)

#: Tier-drill queries: same pushed subplan (filter + identical column
#: set), different residual aggregate — so the OCS page tier hits where
#: the coordinator tiers cannot.
DRILL_COLD = (
    "SELECT returnflag, SUM(extendedprice) AS s, COUNT(*) AS n "
    "FROM lineitem WHERE discount > 0.05 "
    "GROUP BY returnflag ORDER BY returnflag"
)
DRILL_VARIANT = (
    "SELECT returnflag, MAX(extendedprice) AS m, COUNT(*) AS n "
    "FROM lineitem WHERE discount > 0.05 "
    "GROUP BY returnflag ORDER BY returnflag"
)


#: Cache tier -> its hit counter, in cascade order (coordinator result
#: tier first, OCS page tier last).
TIER_METRICS = {
    "result": "result_cache_hits",
    "split": "split_cache_hits",
    "page": "ocs_page_cache_hits",
}


def _build_environment(scale: str, seed: int) -> Environment:
    files, rows, _ = SCALES["cache"][scale]
    env = Environment()
    env.add_dataset(lineitem_spec(files, rows, 23 + seed, row_group_rows=8192))
    return env


CONFIG = RunConfig(
    label="cache",
    mode="ocs",
    policy=PushdownPolicy.filter_only(),
    split_granularity="file",
    cache=CacheSpec(),
)


def _template_sql(index: int) -> str:
    # 0.080 (keeps ~18% of rows) down to 0.004 (keeps ~91%).
    return SQL_TEMPLATE.format(threshold=0.08 - index * 0.004)


def _run_level(
    scale: str, seed: int, level_index: int, reuse: float,
    digests: Dict[int, str],
) -> Dict[str, Any]:
    """One reuse level on a fresh environment (and a fresh cache).

    ``digests`` accumulates template -> canonical digest across levels;
    the row's ``digests_identical`` is False if any execution here
    disagreed with it.
    """
    _, _, executions = SCALES["cache"][scale]
    distinct = max(1, round(executions * (1.0 - reuse)))
    env = _build_environment(scale, seed)
    rng = np.random.default_rng(500 + 31 * seed + level_index)
    sequence = rng.permutation(
        np.repeat(np.arange(distinct), executions // distinct)
    )
    identical = True
    seconds: List[float] = []
    bytes_moved = 0
    hits = dict.fromkeys(TIER_METRICS, 0)
    for template in sequence:
        result = env.run(_template_sql(int(template)), CONFIG, "tpch")
        seconds.append(result.execution_seconds)
        bytes_moved += result.data_moved_bytes
        for tier, metric in TIER_METRICS.items():
            hits[tier] += int(result.metrics.value(metric))
        digest = canonical_result_digest(result.batch)
        expected = digests.setdefault(int(template), digest)
        identical = identical and digest == expected
    return {
        "reuse": reuse,
        "queries": executions,
        "distinct": distinct,
        **{f"{tier}_hits": count for tier, count in hits.items()},
        "moved_bytes": bytes_moved,
        "p50_s": percentile(seconds, 50),
        "p99_s": percentile(seconds, 99),
        "digests_identical": identical,
    }


def _served_by(result: QueryResult) -> str:
    for tier, metric in TIER_METRICS.items():
        if result.metrics.value(metric):
            return tier
    return "storage-scan"


def run_tier_drill(scale: str, seed: int) -> List[Dict[str, Any]]:
    """Three runs walking the tier cascade on one shared cache.

    Also the sanitized race suite's cache workload: it touches every
    tier's shared state (fills, hits, and the coordinator's hybrid
    lowering) in a handful of runs.
    """
    env = _build_environment(scale, seed)
    runs = [
        ("cold", DRILL_COLD),
        ("repeat", DRILL_COLD),
        ("variant", DRILL_VARIANT),
    ]
    rows: List[Dict[str, Any]] = []
    for label, sql in runs:
        result = env.run(sql, CONFIG, "tpch")
        rows.append(
            {
                "label": label,
                "served_by": _served_by(result),
                "seconds": result.execution_seconds,
                "moved_bytes": result.data_moved_bytes,
            }
        )
    return rows


def run(scale: str, seed: int = 0) -> Dict[str, Any]:
    """Run the reuse sweep plus the tier drill."""
    digests: Dict[int, str] = {}
    levels = [
        _run_level(scale, seed, level_index, reuse, digests)
        for level_index, reuse in enumerate(REUSE_LEVELS)
    ]
    moved = [level["moved_bytes"] for level in levels]
    return {
        "scale": scale,
        "levels": {f"r{level['reuse']:.1f}": level for level in levels},
        "tiers": run_tier_drill(scale, seed),
        # Template 0's digest (present at every level).
        "digest": digests.get(0, ""),
        # Every template's digest matched across repeats and reuse levels.
        "digests_identical": all(level["digests_identical"] for level in levels),
        "bytes_strictly_decreasing": all(b < a for a, b in zip(moved, moved[1:])),
        "p99_improves": levels[-1]["p99_s"] < levels[0]["p99_s"],
    }


#: (header, key, format) of the sweep's and the drill's columns.
SWEEP_COLUMNS = (
    ("reuse", "reuse", ".1f"),
    ("queries", "queries", ""),
    ("distinct", "distinct", ""),
    ("result hits", "result_hits", ""),
    ("split hits", "split_hits", ""),
    ("page hits", "page_hits", ""),
    ("bytes moved", "moved_bytes", ","),
    ("p50 s", "p50_s", ".4f"),
    ("p99 s", "p99_s", ".4f"),
)
DRILL_COLUMNS = (
    ("run", "label", ""),
    ("served by", "served_by", ""),
    ("seconds", "seconds", ".4f"),
    ("bytes moved", "moved_bytes", ","),
)


def render(doc: Dict[str, Any]) -> str:
    levels = list(doc["levels"].values())
    return (
        f"Cache benchmark ({doc['scale']}): reuse sweep over the hybrid cache\n"
        f"{format_records(SWEEP_COLUMNS, levels)}\n"
        f"digests identical across repeats and reuse levels: "
        f"{'yes' if doc['digests_identical'] else 'NO'}\n"
        f"bytes moved strictly decreasing with reuse: "
        f"{'yes' if doc['bytes_strictly_decreasing'] else 'NO'}\n"
        f"p99 at reuse {levels[-1]['reuse']:.1f} beats reuse "
        f"{levels[0]['reuse']:.1f}: "
        f"{'yes' if doc['p99_improves'] else 'NO'}\n"
        f"\nTier drill: cold fill -> result hit -> page hit\n"
        f"{format_records(DRILL_COLUMNS, doc['tiers'])}"
    )
