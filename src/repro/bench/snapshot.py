"""Per-PR benchmark snapshot (``BENCH_<n>.json``) + regression gate.

``collect`` runs the kernel, Table-3, join, service, DAG-straggler,
cache, and rewrite benches at CI scale and folds their headline numbers
into one JSON document.  The committed snapshot (``BENCH_15.json`` at
the repo root) is the previous PR's baseline; CI regenerates the
snapshot and
``compare``s it against the committed file, failing on:

* any *simulated* metric (seconds / bytes) more than 10% worse —
  simulated numbers are deterministic, so a fresh run matches the
  committed baseline exactly unless the code's behavior changed;
* any result digest mismatch (results changed: the snapshot must be
  regenerated deliberately, with the diff reviewed) — this includes the
  sha256 of every Parcel file the kernel bench stores, so the on-disk
  format cannot drift silently;
* fused wall-clock speedup below the 1.5x floor — the only
  machine-dependent gate, expressed as a same-machine tree/fused ratio
  so CI host speed cancels out (the baseline's speedup is recorded but
  not ratcheted: best-of-N jitter between reruns exceeds 10%);
* the DAG scheduler's speculative execution failing to beat
  no-speculation on p99 latency, changing a result digest, or losing
  seeded-replay byte-identity;
* the cache reuse sweep changing any result digest, failing to move
  strictly fewer bytes as reuse rises, or failing to beat the
  zero-reuse p99 at the highest reuse level;
* the rewrite bench losing rewrite-off/on digest parity, a semi-join
  workload's digest drifting between pushdown modes, or the semi-join
  dynamic filter failing to move strictly fewer bytes than static
  pushdown.

Regenerate with ``python -m repro.bench snapshot --out BENCH_15.json``.
The committed file also carries, under ``kernels.formats.parent``, the
Parcel encode/decode wall seconds of the commit before the whole-chunk
kernels landed, measured on the same machine as its own.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.bench import cache as cache_bench
from repro.bench import dag as dag_bench
from repro.bench import join as join_bench
from repro.bench import rewrite as rewrite_bench
from repro.bench import table3 as table3_bench
from repro.bench.kernels import run_kernel_bench

__all__ = ["SNAPSHOT_VERSION", "collect", "compare", "main"]

SNAPSHOT_VERSION = 15

#: Relative worsening tolerated on lower-is-better simulated metrics.
TOLERANCE = 0.10
#: Absolute floor on the fused kernels' wall-clock speedup.
MIN_WALL_SPEEDUP = 1.5

#: CI-scale knobs (small enough for the smoke jobs, big enough to mean
#: something).
_KERNEL_SCALE = "smoke"
_TABLE3_ROWS = 131_072
_JOIN_SCALE = "smoke"
_JOIN_QUERY = "q3"
_SERVICE_QUERIES = 8
_DAG_SCALE = "smoke"
_DAG_SEED = 0
_CACHE_SCALE = "smoke"
_CACHE_SEED = 0
_REWRITE_SCALE = "smoke"
_REWRITE_SEED = 0


def _collect_service() -> Dict[str, object]:
    from repro.bench.service import build_environment
    from repro.config import ServiceSpec
    from repro.service import QueryService, QueryTemplate, open_loop
    from repro.workloads.laghos import LAGHOS_QUERY
    from repro.workloads.tpch import TPCH_Q1

    service = QueryService(build_environment(), ServiceSpec())
    templates = [
        QueryTemplate(tenant="analytics", sql=TPCH_Q1, schema="tpch", label="q1"),
        QueryTemplate(tenant="hpc", sql=LAGHOS_QUERY, schema="hpc", label="laghos"),
    ]
    open_loop(
        service,
        templates,
        queries=_SERVICE_QUERIES,
        mean_interarrival_s=0.05,
        seed=0,
    )
    report = service.report()
    return {
        "queries": _SERVICE_QUERIES,
        "completed": report.completed,
        "makespan_s": report.makespan_s,
        "digest": report.digest(),
    }


def collect() -> Dict[str, object]:
    """Run every bench at CI scale; returns the snapshot document."""
    kernels = run_kernel_bench(_KERNEL_SCALE)

    t3 = table3_bench.run_table3(_TABLE3_ROWS)
    table3_doc: Dict[str, object] = {
        "rows": _TABLE3_ROWS,
        "total_s": t3.total_seconds,
        "stage_seconds": dict(sorted(t3.stage_seconds.items())),
    }

    join_env = join_bench.build_environment(_JOIN_SCALE, 0)
    join_rows, identical = join_bench.run_join_bench(
        join_env, join_bench.QUERIES[_JOIN_QUERY]
    )
    join_doc: Dict[str, object] = {
        "query": _JOIN_QUERY,
        "scale": _JOIN_SCALE,
        "identical": identical,
        "configs": {
            row.label: {
                "rows": row.rows,
                "seconds": row.seconds,
                "moved_bytes": row.moved_bytes,
                "shuffle_bytes": row.shuffle_bytes,
            }
            for row in join_rows
        },
    }

    dag_result = dag_bench.run_dag_bench(_DAG_SCALE, _DAG_SEED)
    dag_doc: Dict[str, object] = {
        "scale": _DAG_SCALE,
        "trials": len(dag_result.trials),
        "p50_off_s": dag_result.p50_off_s,
        "p99_off_s": dag_result.p99_off_s,
        "p50_on_s": dag_result.p50_on_s,
        "p99_on_s": dag_result.p99_on_s,
        "p99_speedup": dag_result.p99_speedup,
        "identical": dag_result.identical,
        "replay_identical": dag_result.replay_identical,
        "digest": dag_result.digest,
    }

    cache_result = cache_bench.run_cache_bench(_CACHE_SCALE, _CACHE_SEED)
    cache_doc: Dict[str, object] = {
        "scale": _CACHE_SCALE,
        "levels": {
            f"r{level.reuse:.1f}": {
                "queries": level.queries,
                "distinct": level.distinct,
                "result_hits": level.result_hits,
                "moved_bytes": level.bytes_moved,
                "p50_s": level.p50_s,
                "p99_s": level.p99_s,
            }
            for level in cache_result.levels
        },
        "digest": cache_result.digest,
        "digests_identical": cache_result.digests_identical,
        "bytes_strictly_decreasing": cache_result.bytes_strictly_decreasing,
        "p99_improves": cache_result.p99_improves,
    }

    rewrite_result = rewrite_bench.run_rewrite_bench(_REWRITE_SCALE, _REWRITE_SEED)
    rewrite_doc: Dict[str, object] = {
        "scale": _REWRITE_SCALE,
        "semi": {
            row.label: {
                "rows": row.rows,
                "static_moved_bytes": row.static_bytes,
                "dynamic_moved_bytes": row.dynamic_bytes,
                "pruned": row.pruned_rows,
            }
            for row in rewrite_result.semi
        },
        "digest": rewrite_result.digest,
        "parity_identical": rewrite_result.parity_identical,
        "semi_digests_identical": rewrite_result.semi_digests_identical,
        "semi_moves_fewer_bytes": rewrite_result.semi_moves_fewer_bytes,
    }

    return {
        "snapshot": SNAPSHOT_VERSION,
        "kernels": kernels.to_json_dict(),
        "table3": table3_doc,
        "join": join_doc,
        "service": _collect_service(),
        "dag": dag_doc,
        "cache": cache_doc,
        "rewrite": rewrite_doc,
    }


def _walk_numeric(doc: object, prefix: str, out: Dict[str, float]) -> None:
    if isinstance(doc, dict):
        for key in sorted(doc):
            _walk_numeric(doc[key], f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(doc, bool):
        return
    elif isinstance(doc, (int, float)):
        out[prefix] = float(doc)


#: Metric-path suffixes gated as lower-is-better simulated quantities.
_LOWER_IS_BETTER = ("_s", "_bytes", ".seconds")
#: Machine-dependent paths excluded from the 10% gate (the wall-clock
#: speedup ratio is gated separately).
_WALL_CLOCK_PATHS = (
    "kernels.tree_wall_s",
    "kernels.fused_wall_s",
    "kernels.formats.encode_wall_s",
    "kernels.formats.decode_wall_s",
    "kernels.formats.parent.encode_wall_s",
    "kernels.formats.parent.decode_wall_s",
)


def compare(baseline: Dict[str, object], current: Dict[str, object]) -> List[str]:
    """Regression check; returns a list of violations (empty = pass)."""
    violations: List[str] = []

    base_metrics: Dict[str, float] = {}
    cur_metrics: Dict[str, float] = {}
    _walk_numeric(baseline, "", base_metrics)
    _walk_numeric(current, "", cur_metrics)
    for path, base_value in sorted(base_metrics.items()):
        if path in _WALL_CLOCK_PATHS or not path.endswith(_LOWER_IS_BETTER):
            continue
        cur_value = cur_metrics.get(path)
        if cur_value is None:
            violations.append(f"metric {path} missing from current snapshot")
            continue
        if cur_value > base_value * (1.0 + TOLERANCE):
            violations.append(
                f"regression: {path} = {cur_value:.6g} vs baseline "
                f"{base_value:.6g} (>{TOLERANCE:.0%} worse)"
            )

    def digests(doc: Dict[str, object], prefix: str, out: Dict[str, str]) -> None:
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, dict):
                digests(value, path, out)
            elif key.endswith("digest"):
                out[path] = str(value)

    base_digests: Dict[str, str] = {}
    cur_digests: Dict[str, str] = {}
    digests(baseline, "", base_digests)
    digests(current, "", cur_digests)
    for path, base_value in sorted(base_digests.items()):
        cur_value = cur_digests.get(path)
        if cur_value != base_value:
            violations.append(
                f"result digest changed: {path} ({base_value[:16]} -> "
                f"{str(cur_value)[:16]}); regenerate the snapshot if intended"
            )

    # Wall-clock jitter between reruns exceeds 10% even best-of-N, so the
    # baseline speedup is informational; the gate is the absolute floor.
    base_speedup = base_metrics.get("kernels.wall_speedup", MIN_WALL_SPEEDUP)
    cur_speedup = cur_metrics.get("kernels.wall_speedup", 0.0)
    if cur_speedup < MIN_WALL_SPEEDUP:
        violations.append(
            f"fused wall-clock speedup {cur_speedup:.2f}x below the "
            f"{MIN_WALL_SPEEDUP:.1f}x floor (baseline {base_speedup:.2f}x)"
        )

    dag = current.get("dag")
    if isinstance(dag, dict):
        p99_on = float(dag.get("p99_on_s", 0.0))
        p99_off = float(dag.get("p99_off_s", 0.0))
        if p99_on >= p99_off:
            violations.append(
                f"dag: speculation p99 {p99_on:.6g}s does not beat "
                f"no-speculation p99 {p99_off:.6g}s"
            )
        if not dag.get("identical", False):
            violations.append("dag: speculation changed a result digest")
        if not dag.get("replay_identical", False):
            violations.append(
                "dag: seeded speculation reruns were not byte-identical"
            )

    cache = current.get("cache")
    if isinstance(cache, dict):
        if not cache.get("digests_identical", False):
            violations.append("cache: a served result's digest changed")
        if not cache.get("bytes_strictly_decreasing", False):
            violations.append(
                "cache: bytes moved did not strictly decrease as reuse rose"
            )
        if not cache.get("p99_improves", False):
            violations.append(
                "cache: p99 at the highest reuse level did not beat zero reuse"
            )

    rewrite = current.get("rewrite")
    if isinstance(rewrite, dict):
        if not rewrite.get("parity_identical", False):
            violations.append(
                "rewrite: a rewrite-off/on digest pair disagreed"
            )
        if not rewrite.get("semi_digests_identical", False):
            violations.append(
                "rewrite: a semi-join digest drifted between pushdown modes"
            )
        if not rewrite.get("semi_moves_fewer_bytes", False):
            violations.append(
                "rewrite: semi-join dynamic filters did not move strictly "
                "fewer bytes than static pushdown"
            )
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the freshly collected snapshot to PATH",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="compare the fresh snapshot against a committed baseline; "
        "exit non-zero on regression",
    )
    args = parser.parse_args(argv)
    if not args.out and not args.check:
        parser.error("nothing to do: pass --out and/or --check")
    snapshot = collect()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"snapshot written to {args.out}")
    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        violations = compare(baseline, snapshot)
        for violation in violations:
            print(f"FAIL: {violation}")
        if violations:
            return 1
        kernels = snapshot["kernels"]
        assert isinstance(kernels, dict)
        print(
            f"snapshot check vs {args.check}: clean "
            f"(fused wall speedup {kernels['wall_speedup']:.2f}x)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
