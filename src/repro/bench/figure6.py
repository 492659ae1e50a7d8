"""Figure 6: compression x pushdown on the Deep Water Impact dataset.

For each codec (none / snappy / gzip / zstd) the dataset is re-encoded
and the query runs under filter-only and all-operator pushdown.  The
paper's findings this must reproduce:

1. within every codec, all-operator pushdown beats filter-only
   (1.22x uncompressed, 1.36-1.39x compressed);
2. stronger compression lowers execution time in both configurations;
3. the crossover: *compressed filter-only* (Zstd, 451.7 s) beats
   *uncompressed all-operator* pushdown (530.4 s) — compression and
   pushdown are complementary, not competing.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from repro.bench.env import RunConfig, paper_environment
from repro.bench.report import format_bytes, format_seconds, format_table
from repro.bench.scales import SCALES
from repro.engine import QueryResult
from repro.workloads import DEEPWATER_QUERY

__all__ = ["render", "run", "run_pushdown_pair"]

CODECS = ("none", "snappy", "gzip", "zstd")

#: Paper-reported seconds where given: (filter-only, all-operator).
PAPER_SECONDS: Dict[str, Tuple[Optional[float], Optional[float]]] = {
    "none": (649.3, 530.4),
    "snappy": (None, None),  # paper reports only the 1.37x speedup
    "gzip": (None, None),  # paper reports only the 1.39x speedup
    "zstd": (451.7, 331.6),
}

PAPER_SPEEDUP = {"none": 1.22, "snappy": 1.37, "gzip": 1.39, "zstd": 1.36}


def run_pushdown_pair(
    sizes: Mapping[str, Tuple[int, int]], **storage: Any
) -> Tuple[Dict[str, Any], QueryResult, QueryResult]:
    """Deep Water stored under ``storage`` (a codec, lossy bounds), queried
    with filter-only and with all-operator pushdown.

    Returns the measurements every storage study reports plus both
    results, for the caller's own transparency check.
    """
    env = paper_environment(sizes, **storage)
    filter_only = env.run(DEEPWATER_QUERY, RunConfig.filter_only(), schema="hpc")
    all_op = env.run(
        DEEPWATER_QUERY,
        RunConfig.ocs("all-op", "filter", "project", "aggregate"),
        schema="hpc",
    )
    point = {
        "stored_bytes": env.dataset_bytes(env.metastore.get_table("hpc", "deepwater")),
        "filter_seconds": filter_only.execution_seconds,
        "allop_seconds": all_op.execution_seconds,
    }
    return point, filter_only, all_op


def run(scale: str) -> Dict[str, Any]:
    """Run the full compression sweep; one fresh dataset per codec."""
    points = []
    reference = None
    for codec in CODECS:
        point, filter_only, all_op = run_pushdown_pair(
            SCALES["figure6"][scale], codec=codec
        )
        if reference is None:
            reference = filter_only.batch
        elif not filter_only.batch.approx_equals(reference):
            raise AssertionError(f"codec {codec} changed query results")
        if not all_op.batch.approx_equals(reference):
            raise AssertionError(f"codec {codec} all-op changed query results")
        points.append({"codec": codec, **point})
    return {"scale": scale, "points": points}


def render(doc: Dict[str, Any]) -> str:
    rows = []
    for p in doc["points"]:
        paper_filter, paper_all = PAPER_SECONDS[p["codec"]]
        rows.append(
            [
                p["codec"],
                format_bytes(p["stored_bytes"]),
                format_seconds(p["filter_seconds"]),
                format_seconds(p["allop_seconds"]),
                f"{p['filter_seconds'] / p['allop_seconds']:.2f}x",
                f"{PAPER_SPEEDUP[p['codec']]:.2f}x",
                format_seconds(paper_filter) if paper_filter else "-",
                format_seconds(paper_all) if paper_all else "-",
            ]
        )
    table = format_table(
        [
            "codec", "stored", "filter-only", "all-op",
            "speedup", "paper speedup", "paper filter", "paper all-op",
        ],
        rows,
    )
    by_codec = {p["codec"]: p for p in doc["points"]}
    zstd_filter = by_codec["zstd"]["filter_seconds"]
    none_allop = by_codec["none"]["allop_seconds"]
    return (
        f"Figure 6 (Deep Water, compression x pushdown)\n{table}"
        f"\ncrossover (zstd filter-only < uncompressed all-op): "
        f"{'reproduced' if zstd_filter < none_allop else 'NOT reproduced'} "
        f"({zstd_filter:.3f} s vs {none_allop:.3f} s; paper: 451.7 s vs 530.4 s)"
    )
