"""Kernel benchmark: tree-walk vs fused filter+project execution.

Three measurements on the same filter+project-heavy sensor workload:

* **Wall-clock microbench** — the raw operator pipelines (no simulator)
  are timed over a fixed set of pages, tree-walk vs fused; this is the
  real-CPU number the fused backend has to win (the regression gate
  requires >= 1.5x).  Wall-clock readings are machine-dependent, so they
  are printed to *stderr* and the JSON fragment only; stdout stays
  byte-identical across reruns.
* **Simulated end-to-end runs** — the same workload as a SQL query under
  ``hive-raw`` (everything compute-side) and ``ocs`` (residual compute
  after pushdown), tree vs fused, on the DES cluster.  Reported columns:
  simulated seconds, bytes moved, result digests (which must match
  pairwise — the parity invariant).
* **Storage-format section** — the dataset's files are Parcel-encoded
  and decoded back: stored size and sha256 per file (stdout + JSON — the
  byte-identity contract of the format, gated exactly by ``bench
  snapshot``) and best-of-N encode / decode wall seconds (stderr + JSON
  only, like the microbench).

The workload is expression-heavy by design: a 3-conjunct WHERE whose
first conjunct is selective, a subexpression shared between WHERE and
SELECT (CSE), and more payload columns than the query references (late
materialization).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.determinism import canonical_result_digest
from repro.arrowsim.dtypes import FLOAT64, INT64
from repro.arrowsim.record_batch import RecordBatch, concat_batches
from repro.bench.env import Environment, RunConfig
from repro.bench.report import format_table
from repro.exec import (
    AndExpr,
    ArithExpr,
    ColumnExpr,
    CompareExpr,
    FilterOperator,
    FusionStats,
    LiteralExpr,
    Operator,
    ProjectOperator,
    fuse_operators,
    run_operators,
)
from repro.exec.expressions import ScalarFuncExpr
from repro.formats import ParcelReader, write_table
from repro.workloads.datasets import DatasetSpec

__all__ = [
    "KernelBenchResult",
    "SCALES",
    "build_operators",
    "build_page",
    "run_kernel_bench",
    "main",
]

#: scale -> (pages, rows per page, wall-clock repeats, dataset files).
SCALES: Dict[str, Tuple[int, int, int, int]] = {
    "smoke": (4, 16_384, 3, 2),
    "default": (16, 65_536, 5, 4),
}


def build_page(rows: int, seed: int) -> RecordBatch:
    """One page of the sensor workload (seeded, deterministic)."""
    rng = np.random.default_rng(7_000 + seed)
    return RecordBatch.from_arrays(
        {
            "reading_id": np.arange(rows, dtype=np.int64) + seed * rows,
            "site": rng.integers(0, 64, rows),
            "temperature": 20.0 + 6.0 * rng.standard_normal(rows),
            "pressure": 1000.0 + 35.0 * rng.standard_normal(rows),
            "humidity": rng.uniform(0.0, 1.0, rows),
            "velocity": 3.0 * rng.standard_normal(rows),
            "flux": 10.0 * rng.standard_normal(rows),
            "weight": rng.uniform(0.5, 2.0, rows),
        }
    )


#: SQL form of the same pipeline, for the simulated end-to-end runs.
KERNEL_QUERY = """
SELECT reading_id,
       temperature * pressure + flux AS energy,
       (temperature * pressure + flux) * 2.0 AS energy2,
       sqrt(abs(velocity)) + humidity AS drag
FROM readings
WHERE temperature * pressure + flux > 24000.0
  AND sqrt(abs(velocity)) < 2.0
  AND site % 7 <> 0
"""


def build_operators() -> List[Operator]:
    """The microbench pipeline: the operator form of ``KERNEL_QUERY``."""
    reading_id = ColumnExpr("reading_id", INT64)
    site = ColumnExpr("site", INT64)
    temperature = ColumnExpr("temperature", FLOAT64)
    pressure = ColumnExpr("pressure", FLOAT64)
    humidity = ColumnExpr("humidity", FLOAT64)
    velocity = ColumnExpr("velocity", FLOAT64)
    flux = ColumnExpr("flux", FLOAT64)
    energy = ArithExpr(
        "+", ArithExpr("*", temperature, pressure, FLOAT64), flux, FLOAT64
    )
    drag = ScalarFuncExpr("sqrt", ScalarFuncExpr("abs", velocity, FLOAT64), FLOAT64)
    predicate = AndExpr(
        (
            CompareExpr(">", energy, LiteralExpr(24000.0, FLOAT64)),
            CompareExpr("<", drag, LiteralExpr(2.0, FLOAT64)),
            CompareExpr(
                "<>",
                ArithExpr("%", site, LiteralExpr(7, INT64), INT64),
                LiteralExpr(0, INT64),
            ),
        )
    )
    projections = [
        ("reading_id", reading_id),
        ("energy", energy),
        ("energy2", ArithExpr("*", energy, LiteralExpr(2.0, FLOAT64), FLOAT64)),
        ("drag", ArithExpr("+", drag, humidity, FLOAT64)),
    ]
    return [FilterOperator(predicate), ProjectOperator(projections)]


@dataclass(frozen=True)
class KernelBenchResult:
    """Everything one kernel-bench invocation measured."""

    scale: str
    rows: int
    pages: int
    #: Wall-clock seconds, best of N repeats (machine-dependent).
    tree_wall_s: float
    fused_wall_s: float
    #: Deterministic digest of the microbench output (both backends).
    micro_digest: str
    fusion: FusionStats
    #: mode -> {"sim_tree_s", "sim_fused_s", "bytes_moved", "digest"}.
    sim: Dict[str, Dict[str, object]]
    #: {"files": {name: {"stored_bytes", "sha256_digest"}},
    #: "encode_wall_s", "decode_wall_s"} — see :func:`_format_runs`.
    formats: Dict[str, object]

    @property
    def wall_speedup(self) -> float:
        if self.fused_wall_s <= 0.0:
            return 1.0
        return self.tree_wall_s / self.fused_wall_s

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "scale": self.scale,
            "rows": self.rows,
            "pages": self.pages,
            "tree_wall_s": self.tree_wall_s,
            "fused_wall_s": self.fused_wall_s,
            "wall_speedup": self.wall_speedup,
            "micro_digest": self.micro_digest,
            "fusion": {
                "chains_fused": self.fusion.chains_fused,
                "operators_fused": self.fusion.operators_fused,
                "predicates": self.fusion.predicates,
                "cse_definitions": self.fusion.cse_definitions,
                "cse_references_saved": self.fusion.cse_references_saved,
            },
            "sim": self.sim,
            "formats": self.formats,
        }


def _time_pipeline(
    pages: Sequence[RecordBatch],
    make_ops,
    repeats: int,
) -> Tuple[float, RecordBatch]:
    """Best-of-N wall time for pushing all pages through fresh operators."""
    best = float("inf")
    output: Optional[RecordBatch] = None
    for _ in range(repeats):
        ops = make_ops()
        start = time.perf_counter()  # simlint: ignore[wall-clock]
        batches = run_operators(pages, ops)
        elapsed = time.perf_counter() - start  # simlint: ignore[wall-clock]
        best = min(best, elapsed)
        output = concat_batches(batches) if batches else None
    assert output is not None
    return best, output


def _format_runs(files: int, rows: int, repeats: int) -> Dict[str, object]:
    """Parcel-encode the dataset's files and decode them back.

    Digests and sizes are deterministic; the wall seconds are best-of-N
    over the whole file set (machine-dependent).
    """
    batches = [build_page(rows, i) for i in range(files)]
    encode_s = decode_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()  # simlint: ignore[wall-clock]
        stored = [write_table([batch]) for batch in batches]
        encode_s = min(encode_s, time.perf_counter() - start)  # simlint: ignore[wall-clock]
        start = time.perf_counter()  # simlint: ignore[wall-clock]
        decoded = [ParcelReader(data).read_table() for data in stored]
        decode_s = min(decode_s, time.perf_counter() - start)  # simlint: ignore[wall-clock]
    for batch, back in zip(batches, decoded):
        if not back.equals(batch):
            raise AssertionError("Parcel roundtrip changed the kernel dataset")
    return {
        "files": {
            f"part-{i:05d}": {
                "stored_bytes": len(data),
                "sha256_digest": hashlib.sha256(data).hexdigest(),
            }
            for i, data in enumerate(stored)
        },
        "encode_wall_s": encode_s,
        "decode_wall_s": decode_s,
    }


def _simulated_runs(scale: str, files: int, rows: int) -> Dict[str, Dict[str, object]]:
    env = Environment()
    env.add_dataset(
        DatasetSpec(
            schema_name="lab",
            table_name="readings",
            bucket="sensors",
            file_count=files,
            generator=lambda i: build_page(rows, i),
        )
    )
    out: Dict[str, Dict[str, object]] = {}
    for mode in ("hive-raw", "ocs"):
        config = RunConfig(label=f"kernels-{mode}", mode=mode)
        tree = env.run(KERNEL_QUERY, config, schema="lab")
        fused = env.run(
            KERNEL_QUERY, replace(config, exec_backend="fused"), schema="lab"
        )
        tree_digest = canonical_result_digest(tree.batch)
        fused_digest = canonical_result_digest(fused.batch)
        if tree_digest != fused_digest:
            raise AssertionError(
                f"backend parity violation in kernels bench ({mode}): "
                f"{tree_digest[:16]} != {fused_digest[:16]}"
            )
        out[mode] = {
            "rows": tree.rows,
            "sim_tree_s": tree.execution_seconds,
            "sim_fused_s": fused.execution_seconds,
            "bytes_moved": tree.data_moved_bytes,
            "digest": tree_digest,
        }
    return out


def run_kernel_bench(scale: str = "default") -> KernelBenchResult:
    pages_n, rows, repeats, files = SCALES[scale]
    pages = [build_page(rows, i) for i in range(pages_n)]

    tree_wall, tree_out = _time_pipeline(pages, build_operators, repeats)
    stats = FusionStats()

    def make_fused() -> List[Operator]:
        return fuse_operators(build_operators(), stats)

    fused_wall, fused_out = _time_pipeline(pages, make_fused, repeats)
    if not tree_out.equals(fused_out):
        raise AssertionError(
            "fused microbench output differs from tree-walk output"
        )
    return KernelBenchResult(
        scale=scale,
        rows=rows * pages_n,
        pages=pages_n,
        tree_wall_s=tree_wall,
        fused_wall_s=fused_wall,
        micro_digest=canonical_result_digest(tree_out),
        fusion=stats,
        sim=_simulated_runs(scale, files, rows),
        formats=_format_runs(files, rows, repeats),
    )


def format_kernels(result: KernelBenchResult) -> str:
    """Deterministic report (no wall-clock numbers — see module doc)."""
    rows: List[List[object]] = []
    for mode, sim in sorted(result.sim.items()):
        rows.append(
            [
                mode,
                sim["rows"],
                f"{float(sim['sim_tree_s']) * 1e3:.3f} ms",
                f"{float(sim['sim_fused_s']) * 1e3:.3f} ms",
                f"{float(sim['sim_tree_s']) / max(float(sim['sim_fused_s']), 1e-12):.3f}x",
                sim["bytes_moved"],
                str(sim["digest"])[:16],
            ]
        )
    table = format_table(
        ["mode", "rows", "sim tree", "sim fused", "sim speedup", "bytes moved",
         "digest (tree == fused)"],
        rows,
    )
    files = result.formats["files"]
    assert isinstance(files, dict)
    stored = "".join(
        f"\nparcel {name}: {entry['stored_bytes']} bytes, sha256 {entry['sha256_digest']}"
        for name, entry in sorted(files.items())
    )
    fusion = result.fusion
    footer = (
        f"\nmicrobench: {result.rows} rows in {result.pages} pages, "
        f"digest {result.micro_digest[:16]} (tree == fused)"
        f"\nfusion: {fusion.operators_fused} operators -> "
        f"{fusion.chains_fused} fused kernels, {fusion.predicates} "
        f"short-circuit predicates, {fusion.cse_definitions} CSE defs "
        f"({fusion.cse_references_saved} re-evaluations saved)"
    )
    return f"Kernel bench (scale={result.scale})\n" + table + footer + stored


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="default")
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the full result (including wall-clock) as JSON",
    )
    args = parser.parse_args(argv)
    result = run_kernel_bench(args.scale)
    print(format_kernels(result))
    # Wall-clock is machine-dependent: stderr only, stdout stays diffable.
    print(
        f"wall-clock: tree {result.tree_wall_s * 1e3:.1f} ms, "
        f"fused {result.fused_wall_s * 1e3:.1f} ms, "
        f"speedup {result.wall_speedup:.2f}x; "
        f"parcel encode {float(result.formats['encode_wall_s']) * 1e3:.1f} ms, "
        f"decode {float(result.formats['decode_wall_s']) * 1e3:.1f} ms",
        file=sys.stderr,
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
