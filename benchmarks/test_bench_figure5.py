"""Figure 5 benchmarks: one benchmark per (panel, pushdown configuration).

Each benchmark measures the wall time of one full query execution on the
simulated testbed and records the *simulated* execution time and data
movement in ``extra_info`` — those are the numbers that correspond to the
paper's bars and red lines (see ``python -m repro.bench figure5`` for the
formatted paper-vs-measured report).
"""

import pytest

from repro.bench.figure5 import FIGURE5_SPECS

_CASES = [
    (dataset, index, config.label)
    for dataset, spec in FIGURE5_SPECS.items()
    for index, (config, _, _) in enumerate(spec["configs"])
]


@pytest.mark.parametrize(
    "dataset,config_index,label",
    _CASES,
    ids=[f"{d}-{label}" for d, _, label in _CASES],
)
def test_figure5_configuration(benchmark, figure5_env, dataset, config_index, label):
    spec = FIGURE5_SPECS[dataset]
    config, paper_seconds, paper_bytes = spec["configs"][config_index]

    def run():
        return figure5_env.run(spec["query"], config, schema=spec["schema"])

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["simulated_seconds"] = result.execution_seconds
    benchmark.extra_info["data_moved_bytes"] = result.data_moved_bytes
    benchmark.extra_info["paper_seconds"] = paper_seconds
    benchmark.extra_info["paper_moved_bytes"] = paper_bytes
    benchmark.extra_info["rows"] = result.rows
    assert result.rows > 0


@pytest.mark.parametrize("dataset", list(FIGURE5_SPECS))
def test_figure5_speedup_ordering(benchmark, figure5_env, dataset):
    """The paper's headline: every added pushdown operator beats filter-only
    (and everything beats no pushdown) — asserted on simulated time."""
    spec = FIGURE5_SPECS[dataset]

    def run():
        times = {}
        for config, _, _ in spec["configs"]:
            result = figure5_env.run(spec["query"], config, schema=spec["schema"])
            times[config.label] = result.execution_seconds
        return times

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    labels = [c.label for c, _, _ in spec["configs"]]
    none, filter_only, final = times[labels[0]], times[labels[1]], times[labels[-1]]
    benchmark.extra_info["speedup_vs_none"] = none / final
    benchmark.extra_info["speedup_vs_filter_only"] = filter_only / final
    assert none > filter_only, "filter pushdown must beat no pushdown"
    assert filter_only > final, "full pushdown must beat filter-only"
    if "+projection" in times:
        # Figure 5(b)/(c): pushing the projection without the aggregation
        # that consumes it is slower than pushing the filter alone.
        projection = times["+projection"]
        benchmark.extra_info["projection_over_filter_only"] = projection / filter_only
        assert projection > filter_only, "+projection must be slower than filter-only"
