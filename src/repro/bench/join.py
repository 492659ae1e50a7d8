"""Join benchmark: distributed exchange + dynamic-filter pushdown.

Runs a Q3-class (or Q12-class) two-table ``orders`` x ``lineitem`` join
under three configurations and reports them side by side, Table-2
style:

* ``no-pushdown``    — hive-raw baseline: whole files move to compute;
* ``static-pushdown``— OCS filter pushdown: each table's own WHERE
  conjuncts are evaluated at storage;
* ``dynamic-filter`` — static pushdown plus the join's dynamic filter:
  the build side's key summary (min/max + Bloom) is folded into the
  probe scan's pushed plan, so storage prunes probe rows that cannot
  join *before* they cross the network.

All three must return byte-identical results; the interesting columns
are data movement (storage -> compute), shuffle bytes, probe rows
reaching the join, and rows the dynamic filter eliminated at storage.
Output is deterministic for a fixed ``--seed`` (simulated time only),
so two reruns diff clean.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.bench.env import Environment, RunConfig
from repro.bench.report import format_records
from repro.bench.scales import SCALES
from repro.core import PushdownPolicy
from repro.workloads import TPCH_Q3, TPCH_Q12, lineitem_spec, orders_spec

__all__ = ["QUERIES", "render", "run"]

QUERIES = {"q3": TPCH_Q3, "q12": TPCH_Q12}


CONFIGS = (
    RunConfig(label="no-pushdown", mode="hive-raw", prune_columns=False),
    RunConfig(label="static-pushdown", mode="ocs", policy=PushdownPolicy.filter_only()),
    RunConfig(
        label="dynamic-filter",
        mode="ocs",
        policy=PushdownPolicy(enabled=frozenset({"filter"}), dynamic_filters=True),
    ),
)


def run(scale: str, seed: int = 0, query: str = "q3") -> Dict[str, Any]:
    """Run ``query`` under all three configs; measurements + result parity."""
    files, rows, group_rows = SCALES["join"][scale]
    env = Environment()
    # Same file layout on both sides, so every lineitem orderkey resolves.
    env.add_dataset(lineitem_spec(files, rows, 17 + seed, row_group_rows=group_rows))
    env.add_dataset(orders_spec(files, rows, 19 + seed, row_group_rows=group_rows))
    configs: Dict[str, Dict[str, Any]] = {}
    results = []
    for config in CONFIGS:
        result = env.run(QUERIES[query], config, schema="tpch")
        results.append(result)
        value = result.metrics.value
        configs[config.label] = {
            "label": config.label,
            "rows": result.rows,
            "seconds": result.execution_seconds,
            "moved_bytes": result.data_moved_bytes,
            "shuffle_bytes": int(value("exchange_bytes")),
            # Probe-side rows that reached the hash join (post scan + filters).
            "probe_rows": int(value("rows_into_hashjoin")),
            # Probe rows the OCS engine eliminated via the dynamic filter.
            "dynamic_rows_pruned": int(value("ocs_dynamic_rows_pruned")),
        }
    first = results[0].to_pydict()
    return {
        "query": query,
        "scale": scale,
        "identical": all(r.to_pydict() == first for r in results[1:]),
        # The dynamic filter must never make the join slower than static
        # pushdown alone.
        "dynamic_not_slower": (
            configs["dynamic-filter"]["seconds"] <= configs["static-pushdown"]["seconds"]
        ),
        "configs": configs,
    }


#: (header, key, format) of the report's columns.
COLUMNS = (
    ("config", "label", ""),
    ("rows", "rows", ","),
    ("seconds", "seconds", ".4f"),
    ("moved B", "moved_bytes", ","),
    ("shuffle B", "shuffle_bytes", ","),
    ("probe rows", "probe_rows", ","),
    ("pruned rows", "dynamic_rows_pruned", ","),
)


def render(doc: Dict[str, Any]) -> str:
    return (
        f"Join benchmark ({doc['query']}): exchange + dynamic-filter pushdown\n"
        f"{format_records(COLUMNS, doc['configs'].values())}\n"
        f"results identical across configs: {'yes' if doc['identical'] else 'NO'}\n"
        f"dynamic filter no slower than static pushdown: "
        f"{'yes' if doc['dynamic_not_slower'] else 'NO'}"
    )
