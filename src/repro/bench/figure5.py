"""Figure 5: execution time + data movement under progressive pushdown.

Regenerates all three panels — (a) Laghos, (b) Deep Water Impact,
(c) TPC-H Q1 — with the same x-axis as the paper: operators enabled
cumulatively in the query's execution order.  Prints measured seconds and
movement next to the paper's reported values, plus the headline ratios.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.bench.env import Environment, RunConfig, paper_environment
from repro.bench.report import format_bytes, format_seconds, format_table
from repro.bench.scales import SCALES
from repro.workloads import DEEPWATER_QUERY, LAGHOS_QUERY, TPCH_Q1

__all__ = ["FIGURE5_SPECS", "format_panel", "render", "run", "run_figure5"]

#: Per-panel definitions: query, schema, configs (paper's x-axis), and the
#: paper's reported (seconds, bytes moved) per configuration.
FIGURE5_SPECS: Dict[str, dict] = {
    "laghos": {
        "schema": "hpc",
        "query": LAGHOS_QUERY,
        "configs": [
            (RunConfig.none(), 2710.0, 24e9),
            (RunConfig.filter_only(), 1015.0, 5.1e9),
            (RunConfig.ocs("+aggregation", "filter", "aggregate"), 828.0, 0.75e9),
            (RunConfig.ocs("+topn", "filter", "aggregate", "topn"), 450.0, 0.5e6),
        ],
    },
    "deepwater": {
        "schema": "hpc",
        "query": DEEPWATER_QUERY,
        "configs": [
            (RunConfig.none(), 1033.0, 30e9),
            (RunConfig.filter_only(), 441.0, 5.37e9),
            (RunConfig.ocs("+projection", "filter", "project"), 471.0, 5.37e9),
            (RunConfig.ocs("+aggregation", "filter", "project", "aggregate"), 335.0, 1e6),
        ],
    },
    "tpch": {
        "schema": "tpch",
        "query": TPCH_Q1,
        "configs": [
            (RunConfig.none(), 11.0, 194e6),
            (RunConfig.filter_only(), 9.0, 192e6),
            (RunConfig.ocs("+projection", "filter", "project"), 13.95, 192e6),
            (RunConfig.ocs("+aggregation", "filter", "project", "aggregate"), 2.21, 0.5e6),
        ],
    },
}


def run_figure5(env: Environment, dataset: str) -> List[Dict[str, Any]]:
    """Execute one panel's configuration sweep; one point per bar."""
    spec = FIGURE5_SPECS[dataset]
    points: List[Dict[str, Any]] = []
    reference = None
    for config, paper_seconds, paper_bytes in spec["configs"]:
        result = env.run(spec["query"], config, schema=spec["schema"])
        if reference is None:
            reference = result.batch
        elif not result.batch.approx_equals(reference):
            raise AssertionError(
                f"pushdown transparency violated for {dataset}/{config.label}"
            )
        points.append(
            {
                "label": config.label,
                "seconds": result.execution_seconds,
                "moved_bytes": result.data_moved_bytes,
                "paper_seconds": paper_seconds,
                "paper_moved_bytes": paper_bytes,
                "rows": result.rows,
            }
        )
    return points


def run(scale: str, dataset: str = "all") -> Dict[str, Any]:
    wanted = list(FIGURE5_SPECS) if dataset == "all" else [dataset]
    sizes = SCALES["figure5"][scale]
    env = paper_environment({name: sizes[name] for name in wanted})
    return {
        "scale": scale,
        "panels": {name: run_figure5(env, name) for name in wanted},
    }


def format_panel(dataset: str, points: List[Dict[str, Any]]) -> str:
    """Paper-vs-measured table plus normalized (speedup) columns."""
    base = points[0]
    rows = []
    for p in points:
        rows.append(
            [
                p["label"],
                format_seconds(p["seconds"]),
                f"{base['seconds'] / p['seconds']:.2f}x",
                f"{base['paper_seconds'] / p['paper_seconds']:.2f}x",
                format_bytes(p["moved_bytes"]),
                f"{p['moved_bytes'] / base['moved_bytes'] * 100:.3f}%",
                f"{p['paper_moved_bytes'] / base['paper_moved_bytes'] * 100:.3f}%",
            ]
        )
    table = format_table(
        [
            "pushdown", "time", "speedup", "paper speedup",
            "moved", "moved %", "paper moved %",
        ],
        rows,
    )
    return f"Figure 5 ({dataset}): speedups are relative to no pushdown\n{table}"


def render(doc: Dict[str, Any]) -> str:
    # Every panel, the last included, is followed by a blank line.
    return "\n\n".join(
        format_panel(name, points) for name, points in doc["panels"].items()
    ) + "\n"
