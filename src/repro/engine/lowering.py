"""Lowering: optimized logical plan -> typed :class:`StageGraph`.

Pure — no simulator, no tracer, no simulated time — so EXPLAIN can lower
without executing and the same graph value is then run by the
scheduler.  What each stage *does* is supplied by the caller: ``bodies``
(:class:`repro.engine.stages.StageBodies` in production, stubs in the
lowering tests) builds the ``dynamic_filter``, ``exchange``, ``join``,
``aggregate`` and ``merge`` bodies, and one ``add_branch`` call realizes
each scan branch as whatever stage(s) it needs (plain scan, materialized
scan, or the cached/residual/``cache-union`` hybrid of
:mod:`repro.engine.caching`) and answers with the stage id downstream
edges read from.

Every plan is a chain of N >= 0 equi-joins down the left-deep spine.
It lowers to N+1 scan branches (each locally optimized, so pushdown
applies per table), per-join exchange stages (two for a partitioned
join, one for broadcast — the probe side of a broadcast join feeds the
join stage directly), one join stage per level running the fragment
between this join and the next, an optional ``dynamic-filter`` stage
gating the base scan on the first build side, and the
``aggregate``/``merge`` tail.  A single-table query is the N = 0 case:
``scan -> [aggregate] -> merge``, with the scan's final operators left
to the tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.runtime import strict_verify_enabled
from repro.arrowsim.record_batch import RecordBatch
from repro.arrowsim.schema import Schema
from repro.engine.costing import choose_join_distribution
from repro.engine.dag import Stage, StageContext, StageGraph
from repro.engine.physical import PhysicalPlan, fragment_plan
from repro.engine.spi import Connector, ConnectorSplit
from repro.errors import PlanError
from repro.plan.nodes import (
    JoinNode,
    OutputNode,
    PlanNode,
    TableScanNode,
    format_plan,
)
from repro.rpc.retry import RetryPolicy
from repro.sql.ast_nodes import TableName

__all__ = [
    "Branch",
    "Lowered",
    "MaterializedHandle",
    "PreparedBranch",
    "StageBody",
    "lower",
]

#: A stage's DES generator function (see :class:`~repro.engine.dag.Stage`).
StageBody = Callable[[StageContext, Dict[str, Any]], Any]


@dataclass
class MaterializedHandle:
    """Connector-handle stand-in for a rewriter-materialized CTE.

    The coordinator executes the CTE body once and parks the result
    here; every reference then scans ``batches`` locally instead of
    pushing to storage.  The handle deliberately has no ``descriptor``
    and no ``pushed`` plan, so split/result caching and pushdown both
    disable themselves for materialized branches (there is no object
    version signature to invalidate against).
    """

    name: str
    table_schema: Schema
    batches: List[RecordBatch] = field(default_factory=list)


@dataclass(frozen=True)
class PreparedBranch:
    """One scan branch's planning output, as the plan tier keeps it.

    Nothing here is mutated by a query that runs it: the plan tier stores
    no plan whose pushed operators change at run time (a dynamic-filter
    target).
    """

    #: The branch plan after the connector's local optimizer.
    plan: PlanNode
    #: The handle the branch scans through; for a pushed branch a copy
    #: carrying its serialized Substrait.
    handle: Any
    #: Canonical fingerprint of the pushed plan ("-" when nothing is
    #: pushed).
    fingerprint: str


@dataclass
class Branch:
    """One scan branch of the lowered graph (base table or join build)."""

    stage_id: str
    table: str
    plan: PlanNode
    physical: PhysicalPlan
    handle: Any
    splits: List[ConnectorSplit]
    #: Owned by whatever ``add_branch`` realized the branch: identity it
    #: derived once at lowering and needs again on the run path.
    keys: Any = None
    #: The planning output the branch was lowered from (a plan-tier hit).
    prepared: Optional[PreparedBranch] = None


@dataclass
class Lowered:
    """Everything :func:`lower` produced for one query."""

    graph: StageGraph
    plan_after: str
    branches: List[Branch]
    total_splits: int
    #: Plan-node count driving the local-optimization cycle charge
    #: (0 when the connector has no local optimizer).
    analysis_nodes: int
    output_schema: Schema
    result_stage: str
    has_exchange: bool
    #: A dynamic filter gates the base scan: its pushed plan is completed
    #: at run time, from the build side's data.
    dynamic_filter: bool = False


def lower(
    plan: PlanNode,
    connector: Connector,
    span: Any,
    bodies: Any,
    add_branch: Callable[[StageGraph, Connector, Branch, bool, Optional[str]], str],
    workers: int,
    prepared: Optional[Sequence[PreparedBranch]] = None,
) -> Lowered:
    """Lower an optimized logical plan to a typed stage graph.

    ``add_branch(graph, connector, branch, finish, gate) -> source id``
    adds the stage(s) realizing one scan branch: ``finish`` runs the
    branch plan's final operators inside the branch (join branches),
    ``gate`` names a stage the scan must wait for (the dynamic-filter
    handshake).  ``span`` is handed to the connector's local optimizer,
    which counts its decisions on it; ``workers`` is the exchange
    partition count (join tasks per level).  ``prepared`` holds each
    scan branch's locally optimized plan from an earlier lowering of the
    same statement; the optimizer then does not run (no analysis nodes).
    """
    graph = StageGraph()
    joins = _join_chain(plan)

    if prepared is None:
        branches, analysis_nodes = _scan_branches(plan, joins, connector, span)
    else:
        branches = [
            _branch(index, entry.plan, entry.handle, connector, entry)
            for index, entry in enumerate(prepared)
        ]
        analysis_nodes = 0
    if not joins:
        plan = branches[0].plan

    # Downstream edges read from whatever stage ``add_branch`` answers
    # with — a branch may lower to several stages.
    gate = _dynamic_filter_gate(connector, joins, branches)
    sources = [
        add_branch(graph, connector, branch, bool(joins), gate if index == 0 else None)
        for index, branch in enumerate(branches)
    ]
    if gate is not None:
        build_schema = branches[1].plan.output_schema()
        graph.add(
            Stage(
                stage_id=gate,
                kind="filter",
                run=bodies.dynamic_filter(joins[0], branches[0], sources[1]),
                inputs=(sources[1],),
                input_schemas={sources[1]: build_schema},
                output_schema=build_schema,
                attributes={
                    "target": branches[0].stage_id,
                    # Verified against DYNAMIC_FILTER_JOIN_KINDS by
                    # verify_stage_graph: anti/left joins must never
                    # publish pushed probe pruning.
                    "join_kind": joins[0].kind,
                },
            )
        )

    # Per-join exchange + join stages up the left-deep spine.  The
    # fragment each join's tasks run is the chain between this join
    # and the next (residual filters), or — at the top — the
    # split-operator half of the fragment above the whole chain.
    tail_physical = branches[0].physical
    probe_source = sources[0]
    if joins:
        tail_physical, segments = _fragment_above(plan, joins)
        segments.append(tail_physical)
        for index, join in enumerate(joins):
            probe_source = _add_join_level(
                graph, bodies, index, join, segments[index], probe_source,
                sources[index + 1], workers, connector.retry_policy,
            )

    result_stage = _add_tail_stages(
        graph, bodies, tail_physical, probe_source, plan.output_schema()
    )
    lowered = Lowered(
        graph=graph,
        plan_after=format_plan(plan),
        branches=branches,
        total_splits=sum(len(b.splits) for b in branches),
        analysis_nodes=analysis_nodes,
        output_schema=plan.output_schema(),
        result_stage=result_stage,
        has_exchange=bool(joins),
        dynamic_filter=gate is not None,
    )
    if strict_verify_enabled():
        from repro.analysis.verifier import verify_stage_graph

        verify_stage_graph(graph)
    return lowered


def _scan_branches(
    plan: PlanNode, joins: List[JoinNode], connector: Connector, span: Any
) -> Tuple[List[Branch], int]:
    """The scan branches plus the plan-node count the optimizer walked.

    The base table (probe of join 0) plus one build branch per join
    level.  Each join branch is wrapped in an OutputNode and locally
    optimized as its own linear plan, so per-table pushdown (and later
    the dynamic filter) applies normally; with no join the whole plan
    is the one branch.
    """
    branch_plans: List[PlanNode] = [plan]
    if joins:
        branch_plans = [
            OutputNode(source, source.output_schema().names())
            for source in [joins[0].left] + [join.right for join in joins]
        ]
    branches: List[Branch] = []
    analysis_nodes = 0
    for index, branch_plan in enumerate(branch_plans):
        optimizer = connector.plan_optimizer()
        material = isinstance(
            _leftmost_scan(branch_plan).connector_handle, MaterializedHandle
        )
        if optimizer is not None and not material:
            analysis_nodes += _count_nodes(branch_plan)
            branch_plan = optimizer.optimize(branch_plan, span)
        branches.append(
            _branch(index, branch_plan, _leftmost_scan(branch_plan).connector_handle,
                    connector)
        )
    return branches, analysis_nodes


def _branch(
    index: int,
    plan: PlanNode,
    handle: Any,
    connector: Connector,
    prepared: Optional[PreparedBranch] = None,
) -> Branch:
    """The scan branch over ``plan``'s scan, read through ``handle``."""
    physical = fragment_plan(plan)
    material = isinstance(handle, MaterializedHandle)
    return Branch(
        stage_id=f"scan:{index}:{physical.scan.table.table}",
        table=physical.scan.table.table,
        plan=plan,
        physical=physical,
        handle=handle,
        splits=[] if material else connector.get_splits(handle),
        prepared=prepared,
    )


def _dynamic_filter_gate(
    connector: Connector, joins: List[JoinNode], branches: List[Branch]
) -> Optional[str]:
    """Stage id of the dynamic-filter handshake, when the query gets one.

    The first join's finished build side prunes the base scan at
    storage.  Only for an inner or semi join (an outer join preserves
    the probe side, so pushed pruning would drop rows that must surface
    NULL-extended; an anti join keeps exactly the rows it would prune)
    and only when the base scan has a pushed plan to fold the filter
    into.
    """
    from repro.analysis.verifier import DYNAMIC_FILTER_JOIN_KINDS

    policy = getattr(connector, "policy", None)
    if (
        joins
        and policy is not None
        and getattr(policy, "dynamic_filters", False)
        and getattr(branches[0].handle, "pushed", None) is not None
        and joins[0].kind in DYNAMIC_FILTER_JOIN_KINDS
    ):
        return "dynamic-filter:0"
    return None


def _add_join_level(
    graph: StageGraph,
    bodies: Any,
    index: int,
    join: JoinNode,
    segment: PhysicalPlan,
    probe_source: str,
    build_source: str,
    workers: int,
    retry: RetryPolicy,
) -> str:
    """Add one join level's exchange and join stages; returns the join id."""
    distribution = join.distribution
    if distribution == "auto":
        distribution = choose_join_distribution(
            build_rows=_subtree_row_count(join.right),
            probe_rows=_subtree_row_count(join.left),
            workers=workers,
        )
    join.distribution = distribution

    def add_exchange(side: str, source: str, keys: List[str]) -> str:
        schema = graph.stage(source).output_schema
        assert schema is not None
        stage_id = f"exchange:{side}:{index}"
        graph.add(
            Stage(
                stage_id=stage_id,
                kind="exchange",
                run=bodies.exchange(
                    source=source, keys=list(keys), workers=workers,
                    distribution=distribution, retry=retry, side=side,
                ),
                inputs=(source,),
                input_schemas={source: schema},
                output_schema=schema,
                attributes={"distribution": distribution, "partitions": workers},
            )
        )
        return stage_id

    build_input = add_exchange("build", build_source, join.right_keys)
    # A broadcast join's probe side stays local: join tasks read their
    # round-robin share of the probe output directly.
    probe_input = (
        probe_source
        if distribution == "broadcast"
        else add_exchange("probe", probe_source, join.left_keys)
    )
    build_schema = graph.stage(build_input).output_schema
    probe_schema = graph.stage(probe_input).output_schema
    assert build_schema is not None and probe_schema is not None
    join_stage = f"join:{index}"
    graph.add(
        Stage(
            stage_id=join_stage,
            kind="join",
            run=bodies.join(
                join=join, index=index, workers=workers,
                distribution=distribution, build_schema=build_schema,
                build_source=build_input, probe_source=probe_input,
                segment=segment,
            ),
            inputs=(build_input, probe_input),
            input_schemas={build_input: build_schema, probe_input: probe_schema},
            output_schema=segment.split_schema,
            attributes={
                "kind": join.kind, "distribution": distribution, "tasks": workers,
            },
        )
    )
    return join_stage


def _add_tail_stages(
    graph: StageGraph,
    bodies: Any,
    physical: PhysicalPlan,
    source: str,
    output_schema: Schema,
) -> str:
    """Add the aggregate (if any) and merge stages; returns the sink id."""
    merge_input = source
    merge_schema = graph.stage(source).output_schema
    assert merge_schema is not None
    if physical.agg_schema is not None:
        graph.add(
            Stage(
                stage_id="aggregate",
                kind="aggregate",
                run=bodies.aggregate(physical),
                inputs=(source,),
                input_schemas={source: merge_schema},
                output_schema=physical.agg_schema,
            )
        )
        merge_input = "aggregate"
        merge_schema = physical.agg_schema
    graph.add(
        Stage(
            stage_id="merge",
            kind="merge",
            run=bodies.merge(physical),
            inputs=(merge_input,),
            input_schemas={merge_input: merge_schema},
            output_schema=output_schema,
        )
    )
    return "merge"


def _fragment_above(
    plan: PlanNode, joins: List[JoinNode]
) -> Tuple[PhysicalPlan, List[PhysicalPlan]]:
    """Physical fragments for everything above each join level.

    Returns ``(above_physical, segment_physicals)``: the fragment
    above the *top* join (its split half runs in the top join's
    tasks; its final half becomes the aggregate/merge stages) and,
    for each join below the top, the residual chain between it and
    the next join (filters the planner left above that join), each
    hung off a handle-free synthetic scan typed with the join's
    output schema.
    """
    segment_physicals: List[PhysicalPlan] = []
    for index in range(len(joins) - 1):
        lower_join, upper = joins[index], joins[index + 1]
        node: PlanNode = upper.left
        segment: List[PlanNode] = []
        while node is not lower_join:
            segment.append(node)
            children = node.children()
            if len(children) != 1:
                raise PlanError(
                    f"non-linear fragment between join {index} and "
                    f"{index + 1}: {node.name}"
                )
            node = children[0]
        rebuilt: PlanNode = _synthetic_scan(lower_join, index)
        for seg_node in reversed(segment):
            rebuilt = seg_node.with_source(rebuilt)
        segment_physicals.append(fragment_plan(rebuilt))
    synthetic = _synthetic_scan(joins[-1], len(joins) - 1)
    return fragment_plan(_replace_join(plan, synthetic)), segment_physicals


def _synthetic_scan(join: JoinNode, index: int) -> TableScanNode:
    """A handle-free scan standing in for ``join``'s exchanged output.

    The fragment above a join hangs off this synthetic scan; it stays
    handle-free because nothing can be pushed to storage through an
    exchange boundary (the exchange carries engine pages, not objects).
    """
    join_schema = join.output_schema()
    synthetic = TableScanNode(
        table=TableName(table=f"$join:{index}"),
        table_schema=join_schema,
        columns=join_schema.names(),
    )
    if strict_verify_enabled():
        from repro.analysis.verifier import verify_exchange_boundary

        verify_exchange_boundary(synthetic)
    return synthetic


def _leftmost_scan(plan: PlanNode) -> TableScanNode:
    """The scan at the bottom of a branch's (join-free) operator chain."""
    node: PlanNode = plan
    while not isinstance(node, TableScanNode):
        node = node.children()[0]
    return node


def _count_nodes(plan: PlanNode) -> int:
    return 1 + sum(_count_nodes(child) for child in plan.children())


def _join_chain(plan: PlanNode) -> List[JoinNode]:
    """All joins down the left-deep spine, bottom-up (join 0 first)."""
    joins: List[JoinNode] = []
    node = _find_join(plan)
    while node is not None:
        joins.append(node)
        node = _find_join(node.left)
    joins.reverse()
    return joins


def _find_join(plan: PlanNode) -> Optional[JoinNode]:
    """The topmost join below a linear operator chain, if any."""
    node: Optional[PlanNode] = plan
    while node is not None:
        if isinstance(node, JoinNode):
            return node
        children = node.children()
        node = children[0] if children else None
    return None


def _replace_join(plan: PlanNode, new_node: PlanNode) -> PlanNode:
    """Rebuild ``plan`` with its topmost join substituted by ``new_node``."""
    if isinstance(plan, JoinNode):
        return new_node
    children = plan.children()
    if not children:
        raise PlanError("plan contains no join to replace")
    return plan.with_source(_replace_join(children[0], new_node))


def _subtree_row_count(plan: PlanNode) -> int:
    """Metastore row-count estimate for a join input: the sum over every
    scan in the subtree (a joined subtree can only shrink below that —
    a usable upper bound for the broadcast-vs-partitioned choice)."""
    if isinstance(plan, TableScanNode):
        descriptor = getattr(plan.connector_handle, "descriptor", None)
        return int(getattr(descriptor, "row_count", 0) or 0)
    return sum(_subtree_row_count(child) for child in plan.children())
