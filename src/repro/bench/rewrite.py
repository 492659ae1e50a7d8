"""Rewrite benchmark: the logical rewriter's two promises, gated.

The rule-driven rewriter (docs/REWRITER.md) claims to be *semantically
invisible* and *pushdown-enabling*.  This bench checks both, at CI
scale, deterministically:

* **Parity** — subquery-free queries run twice, with the rewriter off
  and on; every canonical result digest must be identical.  Rules like
  OR→IN and transitive-predicate derivation may restructure the plan,
  but never the answer.
* **Semi-join movement** — the subquery workloads (TPC-H Q4's EXISTS
  and Q18's IN-over-aggregation, both lowered to semi joins by the
  rewriter) run under static pushdown and under dynamic-filter
  pushdown.  Semi joins are Bloom-eligible — the build side's key
  summary prunes probe rows at storage — so the dynamic-filter mode
  must move *strictly fewer* bytes while producing the identical
  digest.

Output is deterministic for a fixed ``--seed`` (simulated time only),
so two reruns diff clean — CI runs the bench twice and byte-compares.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.analysis.determinism import canonical_result_digest
from repro.bench.env import Environment, RunConfig
from repro.bench.report import format_records
from repro.bench.scales import SCALES
from repro.core import PushdownPolicy
from repro.workloads import TPCH_Q4, TPCH_Q18, lineitem_spec, orders_spec

__all__ = ["render", "run"]

#: Subquery-free parity queries: each exercises a rewrite rule that can
#: fire without changing the answer (OR→IN, transitive derivation) plus
#: a control that no rule touches.
PARITY_QUERIES: Tuple[Tuple[str, str], ...] = (
    (
        "or-to-in",
        "SELECT orderpriority, COUNT(*) AS n FROM orders "
        "WHERE orderpriority = '1-URGENT' OR orderpriority = '2-HIGH' "
        "GROUP BY orderpriority ORDER BY orderpriority",
    ),
    (
        "transitive",
        "SELECT COUNT(*) AS n FROM orders "
        "JOIN lineitem ON orders.orderkey = lineitem.orderkey "
        "WHERE orders.orderkey < 5000",
    ),
    (
        "control",
        "SELECT returnflag, SUM(extendedprice) AS s FROM lineitem "
        "WHERE quantity < 25.0 GROUP BY returnflag ORDER BY returnflag",
    ),
)

#: Semi-join workloads: rewriter-lowered subquery queries.
SEMI_QUERIES: Tuple[Tuple[str, str], ...] = (
    ("q4-exists", TPCH_Q4),
    ("q18-in", TPCH_Q18),
)


def _config(label: str, *, rewrite: bool = True, dynamic: bool = False) -> RunConfig:
    policy = (
        PushdownPolicy(enabled=frozenset({"filter"}), dynamic_filters=True)
        if dynamic
        else PushdownPolicy.filter_only()
    )
    return RunConfig(label=label, mode="ocs", policy=policy, rewrite=rewrite)


def run(scale: str, seed: int = 0) -> Dict[str, Any]:
    """Run the parity and semi-join sections on one environment."""
    files, rows = SCALES["rewrite"][scale]
    env = Environment()
    env.add_dataset(lineitem_spec(files, rows, 17 + seed, row_group_rows=8192))
    env.add_dataset(orders_spec(files, rows, 19 + seed, row_group_rows=8192))

    parity: Dict[str, Dict[str, Any]] = {}
    for label, sql in PARITY_QUERIES:
        off = env.run(sql, _config("rewrite-off", rewrite=False), "tpch")
        on = env.run(sql, _config("rewrite-on"), "tpch")
        parity[label] = {
            "label": label,
            "rows": on.rows,
            "seconds_on": on.execution_seconds,
            "digest_identical": (
                canonical_result_digest(off.batch) == canonical_result_digest(on.batch)
            ),
        }

    semi: Dict[str, Dict[str, Any]] = {}
    for label, sql in SEMI_QUERIES:
        static = env.run(sql, _config("semi-static"), "tpch")
        dynamic = env.run(sql, _config("semi-dynamic", dynamic=True), "tpch")
        static_digest = canonical_result_digest(static.batch)
        semi[label] = {
            "label": label,
            "rows": static.rows,
            "static_moved_bytes": static.data_moved_bytes,
            "dynamic_moved_bytes": dynamic.data_moved_bytes,
            "pruned": int(dynamic.metrics.value("ocs_dynamic_rows_pruned")),
            "digest": static_digest,
            "digest_identical": (
                static_digest == canonical_result_digest(dynamic.batch)
            ),
        }
    return {
        "scale": scale,
        "parity": parity,
        "semi": semi,
        # Q4's rewrite-on digest.
        "digest": semi[SEMI_QUERIES[0][0]]["digest"],
        "parity_identical": all(row["digest_identical"] for row in parity.values()),
        "semi_digests_identical": all(
            row["digest_identical"] for row in semi.values()
        ),
        "semi_moves_fewer_bytes": all(
            row["dynamic_moved_bytes"] < row["static_moved_bytes"]
            for row in semi.values()
        ),
    }


#: (header, key, format) of the two tables' columns.
PARITY_COLUMNS = (
    ("query", "label", ""),
    ("rows", "rows", ""),
    ("seconds (on)", "seconds_on", ".4f"),
    ("digest off == on", "digest_identical", ""),
)
SEMI_COLUMNS = (
    ("query", "label", ""),
    ("rows", "rows", ""),
    ("static bytes", "static_moved_bytes", ","),
    ("dynamic bytes", "dynamic_moved_bytes", ","),
    ("probe rows pruned", "pruned", ","),
    ("digest identical", "digest_identical", ""),
)


def render(doc: Dict[str, Any]) -> str:
    return (
        f"Rewrite benchmark ({doc['scale']}): rewriter parity + semi-join movement\n"
        f"{format_records(PARITY_COLUMNS, doc['parity'].values())}\n"
        f"rewrite-off/on digests identical: "
        f"{'yes' if doc['parity_identical'] else 'NO'}\n"
        f"\nSemi-join workloads (rewriter-lowered Q4 / Q18):\n"
        f"{format_records(SEMI_COLUMNS, doc['semi'].values())}\n"
        f"semi digests identical across pushdown modes: "
        f"{'yes' if doc['semi_digests_identical'] else 'NO'}\n"
        f"dynamic filters move strictly fewer bytes: "
        f"{'yes' if doc['semi_moves_fewer_bytes'] else 'NO'}"
    )
