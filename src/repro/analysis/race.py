"""SimTSan CLI: run the smoke benches under the race sanitizer.

``python -m repro.analysis.race`` does two things:

1. **Self-test** — a seeded synthetic cluster of racy actors (two
   same-instant writers to one shared key with no happens-before edge,
   plus a read/write pair) runs under a sink-mode
   :class:`~repro.analysis.sanitizer.SimTSan`.  The sanitizer *must*
   report both races with the planted access sites; a detector that
   stays silent here is broken, so the harness fails closed.
2. **Bench sweep** — the table3, join, dag, cache, and service smoke
   benches run with ``strict_sanitize`` on.  These are the repo's own
   workloads; any report means a same-instant access to shared
   simulated state whose outcome rides the kernel tie-break policy.

Exit status is 0 only when the self-test races are caught *and* every
bench suite comes back clean.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.analysis.runtime import set_strict_sanitize
from repro.errors import SanitizerError

__all__ = ["SuiteRow", "run_self_test", "run_bench_suites", "main"]


@dataclass(frozen=True, kw_only=True)
class SuiteRow:
    """Outcome of one sanitized suite."""

    name: str
    clean: bool
    detail: str


# --------------------------------------------------------------------------
# Self-test: planted races the sanitizer must catch
# --------------------------------------------------------------------------


def run_self_test(seed: int = 0) -> List[SuiteRow]:
    """Plant two races in a synthetic actor cluster; both must be caught.

    ``seed`` shifts the racing instant (binary-exact multiples of 0.25)
    so replays under different seeds still collide at one timestamp.
    """
    from repro.analysis.sanitizer import RaceReport, SimTSan
    from repro.sim.kernel import ProcessGenerator, Simulator

    instant = 0.25 * (1 + seed % 4)
    sim = Simulator()
    reports: List[RaceReport] = []
    sanitizer = SimTSan(sim, sink=reports).install()
    try:
        shared = {"hits": 0}

        def writer(tag: str) -> ProcessGenerator:
            yield sim.timeout(instant)
            sanitizer.record_write(("self-test", "counter"), f"self_test.{tag}")
            shared["hits"] += 1

        def reader() -> ProcessGenerator:
            yield sim.timeout(2 * instant)
            sanitizer.record_read(("self-test", "window"), "self_test.reader")
            return shared["hits"]

        def appender() -> ProcessGenerator:
            yield sim.timeout(2 * instant)
            sanitizer.record_write(("self-test", "window"), "self_test.appender")

        sim.process(writer("writer_a"), name="writer-a")
        sim.process(writer("writer_b"), name="writer-b")
        sim.process(reader(), name="reader")
        sim.process(appender(), name="appender")
        sim.run()
    finally:
        sanitizer.uninstall()

    sites = {(r.first.site, r.second.site) for r in reports}

    def caught(a: str, b: str) -> bool:
        return (a, b) in sites or (b, a) in sites

    rows = [
        SuiteRow(
            name="self-test w/w",
            clean=caught("self_test.writer_a", "self_test.writer_b"),
            detail="two same-instant writers, no happens-before edge",
        ),
        SuiteRow(
            name="self-test r/w",
            clean=caught("self_test.reader", "self_test.appender"),
            detail="same-instant read racing a write on one key",
        ),
    ]
    return rows


# --------------------------------------------------------------------------
# Bench sweep: the repo's own workloads must come back clean
# --------------------------------------------------------------------------


def _sanitized(name: str, fn: Callable[[], object]) -> SuiteRow:
    """Run ``fn`` with the process-wide sanitizer default forced on."""
    previous = set_strict_sanitize(True)
    try:
        fn()
    except SanitizerError as exc:
        return SuiteRow(name=name, clean=False, detail=str(exc))
    finally:
        set_strict_sanitize(previous)
    return SuiteRow(name=name, clean=True, detail="no races")


def run_bench_suites(rows: int = 8192, seed: int = 0) -> List[SuiteRow]:
    """Each bench's own definition of its workload, at its smallest size."""
    from repro.bench import cache, dag, join, service, table3
    from repro.config import ServiceSpec

    def straggler() -> None:
        env, config = dag.straggler_trial(seed)
        env.run(dag.SQL, config, "tpch")

    def two_tenants() -> None:
        spec = ServiceSpec(max_active_queries=2, max_queue_depth=8)
        # Submitting schedules arrivals only; draining is what runs them.
        service.submit_two_tenant_load(spec, queries=8, seed=seed).drain()

    return [
        _sanitized("table3", lambda: table3.run_table3(rows=rows)),
        _sanitized("join", lambda: join.run("smoke", seed=0)),
        _sanitized("dag", straggler),
        # The tier drill fills and hits every shared cache tier.
        _sanitized("cache", lambda: cache.run_tier_drill("smoke", seed)),
        _sanitized("service", two_tenants),
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.race",
        description="run the smoke benches under the SimTSan race sanitizer",
    )
    parser.add_argument(
        "--rows", type=int, default=8192, help="table3 rows (default 8192)"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    args = parser.parse_args(argv)

    self_rows = run_self_test(args.seed)
    ok = True
    for row in self_rows:
        status = "caught" if row.clean else "MISSED"
        ok = ok and row.clean
        print(f"{row.name:<14} {status:<8} {row.detail}")

    bench_rows = run_bench_suites(rows=args.rows, seed=args.seed)
    for row in bench_rows:
        status = "clean" if row.clean else "RACES"
        ok = ok and row.clean
        print(f"{row.name:<14} {status:<8} {row.detail}")

    print()
    if ok:
        print("race harness: self-test races caught, benches clean")
        return 0
    print("race harness: FAILED")
    return 1


if __name__ == "__main__":
    sys.exit(main())
