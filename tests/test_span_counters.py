"""Counters live on the span that did the work.

``QueryResult.metrics`` is summed once, when the query ends, from the
query's own trace (:func:`repro.trace.counter_totals`).  So:

* a count carries the labels of the span it sits on (here: the storage
  node of the ``pushdown`` span that scanned the rows);
* on a shared service cluster a query is charged only its own work (its
  exchange retries, not a concurrent query's);
* a returned result never changes, even while a speculative loser of
  that query is still running and counting.
"""

import dataclasses

from repro.bench.env import Environment, RunConfig
from repro.config import DEFAULT_TESTBED, FaultSpec, ServiceSpec
from repro.core import PushdownPolicy
from repro.engine.gateway import place_key
from repro.engine.scheduler import SchedulerSpec
from repro.rpc.retry import RetryPolicy
from repro.service import QueryService
from repro.trace import counter_totals
from repro.workloads import TPCH_Q12, DatasetSpec, generate_lineitem, generate_orders

FILES = 8
ROWS = 2_000


def _four_node_env(rows=ROWS):
    testbed = dataclasses.replace(DEFAULT_TESTBED, storage_node_count=4)
    env = Environment(testbed=testbed)
    env.add_dataset(
        DatasetSpec(
            schema_name="tpch",
            table_name="lineitem",
            bucket="data",
            file_count=FILES,
            generator=lambda i: generate_lineitem(rows, seed=17, start_row=i * rows),
            row_group_rows=512,
        )
    )
    return env


def _enclosing(trace, span, name):
    """``span`` itself or its nearest ancestor called ``name``."""
    while span is not None and span.name != name:
        span = trace.get(span.parent_id)
    return span


def test_rows_scanned_group_by_the_pushdown_spans_node():
    env = _four_node_env()
    # Every discount is >= 0: the filter prunes no row group.
    sql = "SELECT COUNT(*) AS n FROM lineitem WHERE discount >= 0.0"
    result = env.run(sql, RunConfig.filter_only(), schema="tpch")
    assert result.metrics.value("ocs_row_groups_pruned") == 0

    by_node = {}
    for span in result.trace:
        rows = (span.counters or {}).get("ocs_rows_scanned")
        if rows is None:
            continue
        node = _enclosing(result.trace, span, "pushdown").attributes["node"]
        by_node[node] = by_node.get(node, 0) + rows

    files = env.metastore.get_table("tpch", "lineitem").files
    expected = {}
    for key in files:
        node = place_key(key, 4)
        expected[node] = expected.get(node, 0) + ROWS
    assert len(expected) > 1  # the placement really spreads the files
    assert by_node == expected
    assert sum(by_node.values()) == result.metrics.value("ocs_rows_scanned")
    assert result.metrics.value("ocs_rows_scanned") == FILES * ROWS


def test_exchange_retries_are_charged_to_the_query_that_retried():
    env = Environment()
    for table, generator, start in (
        ("lineitem", generate_lineitem, "start_row"),
        ("orders", generate_orders, "start_key"),
    ):
        env.add_dataset(
            DatasetSpec(
                schema_name="tpch",
                table_name=table,
                bucket="data",
                file_count=2,
                generator=lambda i, g=generator, k=start: g(4_000, seed=19, **{k: i * 4_000}),
                row_group_rows=2048,
            )
        )
    config = RunConfig(
        label="drops",
        mode="ocs",
        policy=PushdownPolicy.filter_only(),
        faults=FaultSpec(link_drop_probability=0.2, seed=3),
        retry=RetryPolicy(max_attempts=12, initial_backoff_s=0.001),
    )
    service = QueryService(env, ServiceSpec(), base_config=config, default_schema="tpch")
    handles = [service.submit(TPCH_Q12, at=0.0), service.submit(TPCH_Q12, at=0.0)]
    service.drain()

    results = [handle.result() for handle in handles]
    first, second = (r.trace.first("query") for r in results)
    assert first.start < second.end and second.start < first.end  # they overlap
    for result in results:
        retried = [
            span for span in result.trace.find("rpc:exchange.put")
            if span.attributes["attempt"] > 1
        ]
        assert result.metrics.value("exchange_retries") == len(retried)
    # The drops really hit the shuffle.
    assert sum(r.metrics.value("exchange_retries") for r in results) > 0


def test_a_returned_result_stops_changing():
    env = _four_node_env()
    config = RunConfig(
        label="degraded",
        mode="ocs",
        policy=PushdownPolicy.filter_only(),
        split_granularity="file",
        faults=FaultSpec(storage_latency_multipliers={0: 200.0}, seed=5),
        scheduler=SchedulerSpec(speculation=True, speculation_quorum=0.25),
    )
    service = QueryService(env, ServiceSpec(), base_config=config, default_schema="tpch")
    handle = service.submit(
        "SELECT returnflag, COUNT(*) AS n FROM lineitem WHERE discount > 0.02 "
        "GROUP BY returnflag"
    )
    result = handle.result()  # runs the simulation up to the query's end
    at_completion = result.metrics.snapshot()
    assert result.metrics.value("speculative_wins") > 0

    service.drain()  # the losing primaries' page sources run on
    assert handle.result().metrics.snapshot() == at_completion
    # The losers really did count after the query ended: their spans
    # are in the trace, and summing it again now sees their late work.
    assert counter_totals(result.trace).snapshot() != at_completion

