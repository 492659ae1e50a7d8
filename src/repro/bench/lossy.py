"""Extension experiment: query pushdown over lossy-compressed data.

The paper's future-work direction ("Exploring the performance when
combining query pushdown with lossy compression remains an important
direction"), made concrete: the Deep Water dataset with its float fields
SZ-encoded at several absolute error bounds, under filter-only and
all-operator pushdown.  Reports storage footprint, execution time, and
the observed result deviation against the lossless answer.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.bench.figure6 import run_pushdown_pair
from repro.bench.report import format_bytes, format_seconds, format_table
from repro.bench.scales import SCALES

__all__ = ["render", "run"]

#: Absolute error bounds swept (None = lossless baseline).
BOUNDS = (None, 1e-6, 1e-4, 1e-2)


def run(scale: str) -> Dict[str, Any]:
    points: List[Dict[str, Any]] = []
    reference = None
    for bound in BOUNDS:
        point, _, all_op = run_pushdown_pair(
            SCALES["lossy"][scale],
            lossy_error_bounds=None if bound is None else {"v02": bound, "snd": bound},
        )
        out = all_op.to_pydict()
        if reference is None:
            reference = out
        deviation = max(
            (
                abs(a - b)
                for a, b in zip(reference["max_coord"], out["max_coord"])
            ),
            default=0.0,
        )
        # Max abs deviation of the aggregate vs the lossless answer.
        points.append({"bound": bound, **point, "result_deviation": float(deviation)})
    return {"scale": scale, "points": points}


def render(doc: Dict[str, Any]) -> str:
    rows = []
    base = doc["points"][0]
    for p in doc["points"]:
        rows.append(
            [
                "lossless" if p["bound"] is None else f"sz eps={p['bound']:g}",
                format_bytes(p["stored_bytes"]),
                f"{base['stored_bytes'] / p['stored_bytes']:.2f}x",
                format_seconds(p["filter_seconds"]),
                format_seconds(p["allop_seconds"]),
                f"{p['result_deviation']:g}",
            ]
        )
    return (
        "Lossy compression x pushdown (paper future work; Deep Water)\n"
        + format_table(
            ["encoding", "stored", "ratio", "filter-only", "all-op", "result deviation"],
            rows,
        )
    )
