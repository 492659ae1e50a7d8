"""The coordinator's layers: lowering, stage accounting, cache keys, spans.

* stage accounting — span-derived stage totals equal ``stage_seconds``
  and the stages partition the wall clock, for every query shape the
  lowering produces (including nested sub-executions);
* failed statements close every span they opened, with a status on the
  root;
* lowering is pure — it builds graphs from stub stage bodies with no
  ``Cluster`` — and the import graph keeps it (and the connectors) that
  way;
* a branch's pushed-plan fingerprint is computed once per query.
"""

import ast
import dataclasses
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.bench import RunConfig
from repro.config import MB, CacheSpec
from repro.connectors.hive import HiveConnector
from repro.core import PushdownPolicy
from repro.engine import Cluster, Coordinator, Session, Stage
from repro.engine.lowering import lower
from repro.engine.spi import Connector, ConnectorSplit
from repro.errors import ReproError, StatusCode
from repro.plan.nodes import TableScanNode
from repro.plan.optimizer import GlobalOptimizer
from repro.plan.planner import plan_query
from repro.rewrite import RewriteContext, rewrite_statement
from repro.sql.analyzer import analyze
from repro.sql.parser import parse
from repro.trace import stage_totals
from repro.workloads import (
    TPCH_Q1,
    TPCH_Q3,
    TPCH_Q3_FULL,
    TPCH_Q4,
    TPCH_Q12,
    TPCH_Q18,
)
from repro.workloads.tpch import customer_schema, lineitem_schema, orders_schema

FULL = RunConfig(label="full", mode="ocs", policy=PushdownPolicy.all_operators())
DYNAMIC = RunConfig(
    label="dynamic", mode="ocs",
    policy=PushdownPolicy(enabled=frozenset({"filter"}), dynamic_filters=True),
)
#: A budget no other test uses, so the session-shared environment hands
#: this module its own (initially cold) cache manager.
SPLIT_CACHE = CacheSpec(enable_results=False, split_budget_bytes=127 * MB)

SCALAR = (
    "SELECT COUNT(*) AS n FROM orders "
    "WHERE totalprice > (SELECT AVG(totalprice) FROM orders)"
)
BIG = "WITH big AS (SELECT orderkey, SUM(quantity) AS q FROM lineitem GROUP BY orderkey) "
CTE = BIG + "SELECT COUNT(*) AS n FROM big WHERE q > 100.0"
CTE_JOIN = BIG + (
    "SELECT COUNT(*) AS n FROM orders JOIN big ON orders.orderkey = big.orderkey "
    "WHERE q > 100.0"
)


# -- (a) stage accounting ------------------------------------------------------


@pytest.mark.parametrize(
    "sql, config",
    [
        pytest.param(TPCH_Q1, FULL, id="q1"),
        pytest.param(TPCH_Q3, FULL, id="q3"),
        pytest.param(TPCH_Q3_FULL, FULL, id="q3-full"),
        pytest.param(TPCH_Q4, FULL, id="q4"),
        pytest.param(TPCH_Q12, FULL, id="q12"),
        pytest.param(TPCH_Q18, FULL, id="q18"),
        pytest.param(TPCH_Q3, DYNAMIC, id="q3-dynamic"),
        pytest.param(TPCH_Q18, DYNAMIC, id="q18-dynamic"),
        pytest.param(
            TPCH_Q3, dataclasses.replace(FULL, cache=SPLIT_CACHE), id="q3-split-cache"
        ),
        pytest.param(SCALAR, FULL, id="scalar-subquery"),
        pytest.param(CTE, FULL, id="materialized-cte"),
        pytest.param(CTE_JOIN, FULL, id="cte-join"),
    ],
)
def test_stages_partition_the_wall_clock_and_match_spans(small_env, sql, config):
    # A cached configuration is checked cold, then warm (hybrid plan).
    for _ in range(2 if config.cache is not None else 1):
        result = small_env.run(sql, config, schema="tpch")
        result.trace.validate()
        # ``stage_seconds`` *is* the span-derived ledger, to the bit.
        assert stage_totals(result.trace) == result.stage_seconds
        assert sum(result.stage_seconds.values()) == pytest.approx(
            result.execution_seconds, abs=1e-12
        )
    if config.cache is not None:
        assert result.metrics.value("split_cache_hits") > 0


@pytest.mark.parametrize("sql", [SCALAR, CTE], ids=["scalar-subquery", "materialized-cte"])
def test_sub_executions_land_on_the_parent_ledger(small_env, sql):
    result = small_env.run(sql, FULL, schema="tpch")
    # The nested query's scan is this query's data movement and splits
    # (the materialized CTE's outer query scans nothing itself).
    assert result.metrics.value("bytes_received") > 0
    assert result.metrics.value("splits") > result.splits


# -- (b) failed statements close their spans -----------------------------------


def test_failed_statements_leave_no_open_span(small_env):
    cluster = Cluster(small_env.store, small_env.testbed, small_env.costs)
    coordinator = Coordinator(
        cluster, {"repro": HiveConnector(cluster, small_env.metastore)}
    )
    session = Session(catalog="repro", schema="tpch")
    failing = [
        "SELECT nope FROM orders",
        "SELECT orderkey FROM nowhere",
        "SELECT FROM WHERE",
        "SELECT COUNT(*) AS n FROM orders "
        "WHERE totalprice > (SELECT totalprice FROM orders)",
    ]
    for sql in failing:
        with pytest.raises(ReproError):
            coordinator.execute(sql, session)
    spans = cluster.tracer.spans()
    assert [s.name for s in spans if s.end is None] == []
    roots = [s for s in spans if s.parent_id is None]
    assert len(roots) == len(failing)
    assert all(s.name == "query" and s.status is not StatusCode.OK for s in roots)


# -- (c) lowering builds graphs with no cluster --------------------------------

SCHEMAS = {
    "lineitem": lineitem_schema(),
    "orders": orders_schema(),
    "customer": customer_schema(),
}
ROW_COUNTS = {"lineitem": 60_000, "orders": 15_000, "customer": 1_500}


def _noop(ctx, inputs):
    return None
    yield  # makes the body a generator; never reached


class _StubBodies:
    """Every stage body lowering asks for is the same no-op."""

    def __getattr__(self, name):
        return lambda *args, **kwargs: _noop


class _StubConnector:
    retry_policy = Connector.retry_policy  # the SPI attribute lower() reads

    def __init__(self, dynamic_filters=False):
        self.policy = SimpleNamespace(dynamic_filters=dynamic_filters)

    def plan_optimizer(self):
        return None

    def get_splits(self, handle):
        return [ConnectorSplit(split_id=i, keys=(f"{handle.name}/{i}",)) for i in range(2)]


def _add_branch(graph, connector, branch, finish, gate):
    graph.add(
        Stage(
            stage_id=branch.stage_id,
            kind="scan",
            run=_noop,
            inputs=(gate,) if gate is not None else (),
            output_schema=(
                branch.plan.output_schema() if finish else branch.physical.split_schema
            ),
        )
    )
    return branch.stage_id


def _plan(sql):
    """parse -> rewrite -> analyze -> plan -> optimize against bare schemas."""
    ctx = RewriteContext(resolve=lambda name: SCHEMAS[name.table], scalar_value=None)
    statement = rewrite_statement(parse(sql), ctx, budget=32).statement
    joined = [
        (clause.subquery.from_table if clause.subquery is not None else clause.table)
        for clause in statement.joins
    ]
    query = analyze(
        statement,
        SCHEMAS[statement.from_table.table],
        join_schemas=[SCHEMAS[name.table] for name in joined],
    )
    plan = GlobalOptimizer().optimize(plan_query(query))

    def attach(node):
        if isinstance(node, TableScanNode):
            table = node.table.table
            node.connector_handle = SimpleNamespace(
                name=table,
                table_schema=SCHEMAS[table],
                descriptor=SimpleNamespace(row_count=ROW_COUNTS[table]),
                pushed=object(),
            )
        for child in node.children():
            attach(child)

    attach(plan)
    return plan


def _edges(sql, connector):
    lowered = lower(_plan(sql), connector, None, _StubBodies(), _add_branch, 4)
    assert lowered.result_stage == "merge"
    return lowered, [(s.stage_id, s.kind, s.inputs) for s in lowered.graph.topological()]


def test_lowering_single_table_is_the_zero_join_chain():
    lowered, edges = _edges(TPCH_Q1, _StubConnector())
    assert edges == [
        ("scan:0:lineitem", "scan", ()),
        ("aggregate", "aggregate", ("scan:0:lineitem",)),
        ("merge", "merge", ("aggregate",)),
    ]
    assert (lowered.total_splits, lowered.has_exchange) == (2, False)


def test_lowering_two_level_join_chain_with_dynamic_filter():
    lowered, edges = _edges(TPCH_Q3_FULL, _StubConnector(dynamic_filters=True))
    assert edges == [
        ("scan:1:lineitem", "scan", ()),
        ("scan:2:customer", "scan", ()),
        ("dynamic-filter:0", "filter", ("scan:1:lineitem",)),
        ("exchange:build:0", "exchange", ("scan:1:lineitem",)),
        ("exchange:build:1", "exchange", ("scan:2:customer",)),
        ("scan:0:orders", "scan", ("dynamic-filter:0",)),
        # 60k build rows x 4 workers outweigh shuffling both sides once;
        # the 1.5k-row customer build is cheaper to broadcast.
        ("exchange:probe:0", "exchange", ("scan:0:orders",)),
        ("join:0", "join", ("exchange:build:0", "exchange:probe:0")),
        ("join:1", "join", ("exchange:build:1", "join:0")),
        ("aggregate", "aggregate", ("join:1",)),
        ("merge", "merge", ("aggregate",)),
    ]
    assert (lowered.total_splits, lowered.has_exchange) == (6, True)
    assert [b.stage_id for b in lowered.branches] == [
        "scan:0:orders", "scan:1:lineitem", "scan:2:customer",
    ]


def test_lowering_semi_join_without_dynamic_filters_or_aggregate():
    _, edges = _edges(TPCH_Q18, _StubConnector())
    assert edges == [
        ("scan:0:orders", "scan", ()),
        ("scan:1:lineitem", "scan", ()),
        ("exchange:build:0", "exchange", ("scan:1:lineitem",)),
        ("exchange:probe:0", "exchange", ("scan:0:orders",)),
        ("join:0", "join", ("exchange:build:0", "exchange:probe:0")),
        ("merge", "merge", ("join:0",)),
    ]


# -- (d) the import graph ------------------------------------------------------

SRC = Path(repro.__file__).parent


def _imports(path):
    """Every module name a file imports, at any nesting depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _reaches(names, package):
    return sorted(n for n in names if n == package or n.startswith(package + "."))


def test_lowering_imports_neither_the_simulator_nor_the_tracer():
    names = _imports(SRC / "engine" / "lowering.py")
    assert _reaches(names, "repro.sim") == []
    assert _reaches(names, "repro.trace") == []


def test_lower_layers_do_not_import_the_coordinator():
    offenders = {
        str(path.relative_to(SRC)): _reaches(_imports(path), "repro.engine.coordinator")
        for package in ("core", "connectors")
        for path in sorted((SRC / package).rglob("*.py"))
    }
    assert {path: hits for path, hits in offenders.items() if hits} == {}


# -- (e) one fingerprint per branch per query ----------------------------------


def test_pushed_plan_is_fingerprinted_once_per_branch(small_env, monkeypatch):
    from repro.substrait import fingerprint

    # Both coordinator tiers on.  The counted run is a result-tier hit:
    # lowering, the lookup ledger and the result key all need every
    # branch's fingerprint, and no pushdown request reaches the OCS side
    # (which fingerprints for its own tier) to blur the count.
    config = dataclasses.replace(
        FULL, cache=CacheSpec(enable_storage=False, split_budget_bytes=126 * MB)
    )
    small_env.run(TPCH_Q3_FULL, config, schema="tpch")
    calls = []
    original = fingerprint.fingerprint_plan
    monkeypatch.setattr(
        fingerprint, "fingerprint_plan",
        lambda plan: calls.append(plan) or original(plan),
    )
    result = small_env.run(TPCH_Q3_FULL, config, schema="tpch")
    assert result.metrics.value("result_cache_hits") == 1
    assert len(calls) == 3  # orders, lineitem, customer
