"""Scaling benchmark: OCS storage-node count sweep.

The paper evaluates a single storage node ("For our experiments, we used
a single storage node") but the OCS design is hierarchical.  This sweep
measures the same Laghos query across 1/2/4 storage nodes: aggregation
pushes as partial states, the residual final aggregation merges them, and
the scan parallelizes across nodes.
"""

import pytest

from repro.bench.env import Environment, RunConfig, paper_environment
from repro.bench.scales import SCALES
from repro.config import TestbedSpec
from repro.workloads import LAGHOS_QUERY


@pytest.fixture(scope="module")
def scaling_env():
    return paper_environment({"laghos": SCALES["figure5"]["small"]["laghos"]})


@pytest.mark.parametrize("nodes", [1, 2, 4])
def test_storage_node_scaling(benchmark, scaling_env, nodes):
    env = Environment(
        testbed=TestbedSpec(storage_node_count=nodes),
        store=scaling_env.store,
        metastore=scaling_env.metastore,
    )
    config = RunConfig.ocs("agg", "filter", "aggregate")

    def run():
        return env.run(LAGHOS_QUERY, config, schema="hpc")

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["simulated_seconds"] = result.execution_seconds
    benchmark.extra_info["splits"] = result.splits
    benchmark.extra_info["data_moved_bytes"] = result.data_moved_bytes
    assert result.splits <= nodes
    assert result.rows == 100


def test_scaling_results_identical(benchmark, scaling_env):
    config = RunConfig.ocs("agg", "filter", "aggregate")

    def run():
        outputs = []
        for nodes in (1, 2, 4):
            env = Environment(
                testbed=TestbedSpec(storage_node_count=nodes),
                store=scaling_env.store,
                metastore=scaling_env.metastore,
            )
            outputs.append(env.run(LAGHOS_QUERY, config, schema="hpc"))
        return outputs

    outputs = benchmark.pedantic(run, rounds=1, iterations=1)
    reference = outputs[0].batch
    for result in outputs[1:]:
        assert result.batch.approx_equals(reference)
