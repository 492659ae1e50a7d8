"""``SimNode.execute_spread`` against the per-core-process spread it replaced.

The reference below is the earlier implementation, kept as the referee:
one ``execute`` process per core under an ``AllOf``, inside a spreading
process.  Under the production FIFO tie-break the callback chain must
reproduce it exactly on contended pools — every completion instant and
the order of same-instant completions, the pool's utilization and the
node's charged CPU seconds — while dispatching fewer events.  (Under
LIFO the two order same-instant events differently, as any two event
schedules may; the determinism harness checks that no result rides on
that order.)
"""

from __future__ import annotations

from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NodeSpec
from repro.sim import AllOf, SimNode, Simulator


def reference_spread(node: SimNode, cycles: float):
    """The per-core version: one process per core, joined by ``AllOf``."""

    def spread():
        width = node.spec.cores
        tasks = [node.execute(cycles / width) for _ in range(width)]
        yield AllOf(node.sim, tasks)
        return cycles

    return node.sim.process(spread(), name=f"{node.name}:spread")


#: (arrival delay, "spread" | "task", cycles, follow-up cycles or 0)
Job = Tuple[float, str, float, float]


def _run(jobs: List[Job], cores: int, tie_break: str, spread) -> dict:
    sim = Simulator(tie_break=tie_break)
    node = SimNode(sim, NodeSpec(
        name="n", cores=cores, clock_ghz=1.0, memory_gb=1, disk_bandwidth_bps=1e9,
    ))
    finished: List[Tuple[int, float, object]] = []

    def job(index: int, delay: float, kind: str, cycles: float, then: float):
        yield sim.timeout(delay)
        work = spread(node, cycles) if kind == "spread" else node.execute(cycles)
        value = yield work
        finished.append((index, sim.now, value))
        if then:
            value = yield spread(node, then)
            finished.append((index, sim.now, value))

    for index, (delay, kind, cycles, then) in enumerate(jobs):
        sim.process(job(index, delay, kind, cycles, then))
    sim.run()
    return {
        "finished": finished,
        "utilization": node.core_utilization(),
        "cpu_seconds": node.cpu_seconds_charged,
        "now": sim.now,
        "events": sim.events_dispatched,
    }


def _spread(node: SimNode, cycles: float):
    return node.execute_spread(cycles)


jobs = st.lists(
    st.tuples(
        # Coarse arrival grid: many same-instant arrivals.
        st.integers(0, 4).map(lambda k: k * 0.5),
        st.sampled_from(["spread", "spread", "task"]),
        st.sampled_from([0.0, 1e9, 2e9, 3e9, 1.5e9]),
        st.sampled_from([0.0, 0.0, 1e9, 4e9]),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(jobs=jobs, cores=st.integers(1, 5))
def test_spread_matches_per_core_processes(jobs, cores):
    got = _run(jobs, cores, "fifo", _spread)
    want = _run(jobs, cores, "fifo", reference_spread)
    assert got["finished"] == want["finished"]
    assert got["utilization"] == want["utilization"]
    assert got["cpu_seconds"] == want["cpu_seconds"]
    assert got["now"] == want["now"]
    assert got["events"] <= want["events"]


def test_spread_over_free_cores_is_a_handful_of_events():
    jobs = [(0.0, "spread", 64e9, 0.0)]
    got = _run(jobs, 64, "fifo", _spread)
    want = _run(jobs, 64, "fifo", reference_spread)
    assert got["finished"] == want["finished"] == [(0, 1.0, 64e9)]
    # The job: start-up, arrival timeout, end.  The spread: one start-up,
    # one claim, one grant and one timeout instead of a start-up, grant,
    # timeout and end per core, then the same three completion hops.
    assert got["events"] == 3 + 4 + 3
    assert want["events"] == 3 + 1 + 4 * 64 + 2


def test_negative_cycles_are_refused():
    from repro.errors import SimulationError

    sim = Simulator()
    node = SimNode(sim, NodeSpec(
        name="n", cores=2, clock_ghz=1.0, memory_gb=1, disk_bandwidth_bps=1e9,
    ))
    with pytest.raises(SimulationError):
        node.execute_spread(-1.0)
