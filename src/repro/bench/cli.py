"""Unified CLI for regenerating the paper's evaluation artifacts.

    python -m repro.bench all            # everything, small scale
    python -m repro.bench figure5 --scale medium
    python -m repro.bench figure6
    python -m repro.bench table2
    python -m repro.bench table3
    python -m repro.bench lossy          # extension: pushdown over SZ data
    python -m repro.bench service --queries 32 --seed 0
                                         # multi-tenant concurrent load (SLOs)
    python -m repro.bench join --seed 0  # distributed join: no-pushdown vs
                                         # static vs dynamic-filter pushdown
    python -m repro.bench kernels        # fused vs tree-walk kernel bench
    python -m repro.bench dag --seed 0   # straggler bench: speculative
                                         # split re-execution on/off
    python -m repro.bench cache --seed 0 # hybrid-cache reuse sweep:
                                         # hit rate vs bytes moved / p99
    python -m repro.bench rewrite --seed 0
                                         # rewriter parity + semi-join
                                         # dynamic-filter movement
    python -m repro.bench snapshot --check BENCH_15.json
                                         # per-PR perf-regression gate
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.bench import figure5, figure6, lossy, table2, table3

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> None:
    if argv is None:
        import sys

        argv = sys.argv[1:]
    if argv and argv[0] == "service":
        # The service bench has its own flag set (queries, seed, policy,
        # admission limits); hand through before the artifact parser.
        from repro.bench import service as service_bench

        service_bench.main(argv[1:])
        return
    if argv and argv[0] == "join":
        # Same: the join bench takes --scale/--query/--seed.
        from repro.bench import join as join_bench

        join_bench.main(argv[1:])
        return
    if argv and argv[0] == "dag":
        # Same: the straggler bench takes --scale/--seed.
        from repro.bench import dag as dag_bench

        dag_bench.main(argv[1:])
        return
    if argv and argv[0] == "cache":
        # Same: the cache bench takes --scale/--seed.
        from repro.bench import cache as cache_bench

        cache_bench.main(argv[1:])
        return
    if argv and argv[0] == "rewrite":
        # Same: the rewrite bench takes --scale/--seed.
        from repro.bench import rewrite as rewrite_bench

        rewrite_bench.main(argv[1:])
        return
    if argv and argv[0] == "kernels":
        # Same: the kernel bench takes --scale/--json.
        from repro.bench import kernels as kernels_bench

        kernels_bench.main(argv[1:])
        return
    if argv and argv[0] == "snapshot":
        # Same: the snapshot tool takes --out/--check and sets exit code.
        import sys

        from repro.bench import snapshot as snapshot_bench

        sys.exit(snapshot_bench.main(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "artifact",
        choices=["all", "figure5", "figure6", "table2", "table3", "lossy"],
    )
    parser.add_argument("--scale", choices=["small", "medium"], default="small")
    args = parser.parse_args(argv)

    runners = {
        "figure5": lambda: figure5.main(["--scale", args.scale]),
        "figure6": lambda: figure6.main(["--scale", args.scale]),
        "table2": lambda: table2.main(["--scale", args.scale]),
        "table3": lambda: table3.main([]),
        "lossy": lambda: lossy.main([]),
    }
    wanted = list(runners) if args.artifact == "all" else [args.artifact]
    for i, name in enumerate(wanted):
        if i:
            print()
        runners[name]()


if __name__ == "__main__":
    main()
