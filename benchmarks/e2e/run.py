"""The benchmark's one command.

    python3 benchmarks/e2e/run.py --workload all --seed 0
    python3 benchmarks/e2e/run.py --workload scan_pushdown --seed 3 --seconds 10 --trace 1
    python3 benchmarks/e2e/run.py --aa 2

Each workload runs in its own child process (``harness.py``), single-threaded,
with hash randomisation off, so one workload's heap and caches never reach
the next one's ``peak_rss_mb`` or timings.  The child prints every metric by
name with its unit, checks every result against a no-pushdown reference, and
ends with one JSON line; with ``--workload all`` a final JSON line carries
every workload's metrics as ``<metric>@<workload>``.

``--aa K`` runs the whole suite K times on the same code and prints, per
metric and workload, min / median / max and the spread as a share of the
metric's regression bound.  It fails if a host metric's spread exceeds its
bound or a simulated metric differs at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import END_TO_END, HOST_METRICS  # noqa: E402

WORKLOAD_NAMES = (
    "scan_pushdown", "scan_baseline", "join_exchange", "codec_ingest", "service_mix",
)
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170


def child_environment() -> Dict[str, str]:
    """Noise hygiene: one thread, fixed hashing, nothing inherited that tunes numpy."""
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int,
              trace_out: Optional[str], capture: bool) -> "subprocess.CompletedProcess":
    command = [
        sys.executable, os.path.join(HERE, "harness.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    # subprocess.run kills the child and waits for it when the timeout fires.
    return subprocess.run(
        command, env=child_environment(), timeout=CHILD_TIMEOUT_S,
        stdout=subprocess.PIPE if capture else None, text=True,
    )


def run_suite(seed: int, seconds: float, trace: int, echo: bool) -> Optional[Dict[str, dict]]:
    """Every workload once; workload -> its JSON result (None if one failed)."""
    results: Dict[str, dict] = {}
    healthy = True
    for workload in WORKLOAD_NAMES:
        done = run_child(workload, seed, seconds, trace, None, capture=True)
        lines = done.stdout.splitlines()
        if echo:
            print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"workload {workload} exited with code {done.returncode}",
                  file=sys.stderr)
            healthy = False
            continue
        results[workload] = json.loads(lines[-1])
    return results if healthy else None


def combined_line(results: Dict[str, dict]) -> str:
    return json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}@{workload}": metric
            for workload, r in results.items()
            for name, metric in r["metrics"].items()
        },
    })


def a_a(runs: int, seed: int, seconds: float) -> int:
    """Same code, same seed, ``runs`` times: is the benchmark steady enough?"""
    suites: List[Dict[str, dict]] = []
    for index in range(runs):
        print(f"# A/A suite {index + 1}/{runs}", flush=True)
        suite = run_suite(seed, seconds, 0, echo=False)
        if suite is None:
            return 1
        suites.append(suite)
    print(f"{'metric':<20}{'workload':<16}{'min':>16}{'median':>16}{'max':>16}"
          f"{'spread/bound':>14}")
    steady = True
    for name, _, _, bound in END_TO_END:
        for workload in WORKLOAD_NAMES:
            values = [s[workload]["metrics"][name]["value"] for s in suites]
            low, high, middle = min(values), max(values), statistics.median(values)
            if name in HOST_METRICS:
                share = (high - low) / middle / bound
                verdict = f"{share:>13.2f}" + (" " if share <= 1.0 else "!")
                steady = steady and share <= 1.0
            else:
                verdict = f"{'exact':>13} " if low == high else f"{'DIFFERS':>13}!"
                steady = steady and low == high
            print(f"{name:<20}{workload:<16}{low:>16.6g}{middle:>16.6g}{high:>16.6g}"
                  f"{verdict}")
    for workload in WORKLOAD_NAMES:
        if any(s[workload]["failed"] or not s[workload]["correct"] for s in suites):
            print(f"{workload}: failed or incorrect operations", file=sys.stderr)
            steady = False
    print("A/A " + ("holds" if steady else "DOES NOT HOLD"))
    return 0 if steady else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="host seconds of timed passes per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--trace-out", default=None,
                        help="with --trace 1 and one workload, write spans here")
    parser.add_argument("--aa", type=int, default=0, metavar="K",
                        help="run the whole suite K times and compare the runs")
    args = parser.parse_args(argv)

    if args.aa:
        return a_a(args.aa, args.seed, args.seconds)
    if args.workload != "all":
        return run_child(args.workload, args.seed, args.seconds, args.trace,
                         args.trace_out, capture=False).returncode
    results = run_suite(args.seed, args.seconds, args.trace, echo=True)
    if results is None:
        return 1
    line = combined_line(results)
    print(line)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as exc:
        print(f"benchmark child timed out: {exc}", file=sys.stderr)
        sys.exit(3)
