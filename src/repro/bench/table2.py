"""Table 2: queries, measured selectivity, and logical execution plans.

Selectivity follows the paper's definition — "ratio of result to input
size" in bytes — and the plan chains must match Table 2's:

    Laghos:     TableScan -> Filter -> Aggregation -> Top-N
    Deep Water: TableScan -> Filter -> Project -> Aggregation
    TPC-H Q1:   TableScan -> Filter -> Project -> Aggregation -> Sort
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.bench.env import Environment, RunConfig, paper_environment
from repro.bench.report import format_table
from repro.bench.scales import SCALES
from repro.plan import GlobalOptimizer, plan_query
from repro.sql import analyze, parse
from repro.workloads import DEEPWATER_QUERY, LAGHOS_QUERY, TPCH_Q1

__all__ = ["DATASETS", "PAPER_PLANS", "render", "run", "run_table2"]

PAPER_SELECTIVITY = {
    "laghos": 0.0023842e-2,
    "deepwater": 0.0000032e-2,
    "tpch": 0.0000667e-2,
}

PAPER_PLANS = {
    "laghos": ["TableScan", "Filter", "Aggregation", "TopN"],
    "deepwater": ["TableScan", "Filter", "Project", "Aggregation"],
    "tpch": ["TableScan", "Filter", "Project", "Aggregation", "Sort"],
}

DATASETS = {
    "laghos": ("hpc", "laghos", LAGHOS_QUERY),
    "deepwater": ("hpc", "deepwater", DEEPWATER_QUERY),
    "tpch": ("tpch", "lineitem", TPCH_Q1),
}


def _operator_chain(schema_name: str, table: str, query: str, env: Environment) -> List[str]:
    """Bottom-up operator names of the optimized logical plan (Table 2 style:
    scan first; Output and pure-rename projections are plumbing, not
    operators, and Presto displays TopN/Limit fusion as Top-N)."""
    descriptor = env.metastore.get_table(schema_name, table)
    plan = GlobalOptimizer().optimize(
        plan_query(analyze(parse(query), descriptor.table_schema))
    )
    chain = []
    node = plan
    while node is not None:
        chain.append(node)
        children = node.children()
        node = children[0] if children else None
    chain.reverse()
    names = []
    for node in chain:
        name = type(node).__name__.replace("Node", "")
        if name == "Output":
            continue
        if name == "Project" and getattr(node, "is_identity", False):
            continue
        # Hidden post-aggregation renames are plumbing, not operators.
        if name == "Project" and _is_rename(node):
            continue
        names.append(name)
    return names


def _is_rename(node) -> bool:
    from repro.exec.expressions import ColumnExpr

    return all(isinstance(e, ColumnExpr) for _, e in node.projections)


def run_table2(env: Environment) -> List[Dict[str, Any]]:
    rows = []
    for dataset, (schema_name, table, query) in DATASETS.items():
        descriptor = env.metastore.get_table(schema_name, table)
        input_bytes = env.dataset_bytes(descriptor)
        result = env.run(query, RunConfig.none(), schema=schema_name)
        result_bytes = result.batch.nbytes
        rows.append(
            {
                "dataset": dataset,
                "selectivity": result_bytes / input_bytes,
                "paper_selectivity": PAPER_SELECTIVITY[dataset],
                "plan_chain": _operator_chain(schema_name, table, query, env),
                "paper_plan": PAPER_PLANS[dataset],
            }
        )
    return rows


def run(scale: str) -> Dict[str, Any]:
    env = paper_environment(SCALES["table2"][scale])
    return {"scale": scale, "rows": run_table2(env)}


def render(doc: Dict[str, Any]) -> str:
    out = []
    for r in doc["rows"]:
        out.append(
            [
                r["dataset"],
                f"{r['selectivity']:.7%}",
                f"{r['paper_selectivity']:.7%}",
                " -> ".join(r["plan_chain"]),
                "yes" if r["plan_chain"] == r["paper_plan"] else "NO",
            ]
        )
    return "Table 2 (queries, selectivity, plans)\n" + format_table(
        ["dataset", "selectivity", "paper", "execution plan", "plan match"], out
    )
