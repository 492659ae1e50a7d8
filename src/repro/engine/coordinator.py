"""The coordinator: the paper's Figure 3 pipeline end to end.

``execute`` runs one SQL statement: parse -> rewrite -> analyze ->
logical plan -> global optimize -> connector local optimize -> **lower
to a stage graph** -> hand the graph to the DAG scheduler -> gather
results.  All real computation happens inline; all timing comes from
the DES.

With a plan tier configured, a statement already planned against
unchanged tables skips everything from parse through the local
optimizer: the query process looks its prepared plan up first and
lowers it as stored (:meth:`repro.engine.caching.QueryCache.lookup_plan`).

This module owns the front half of that pipeline, the query process
that strings the phases together, and EXPLAIN rendering.  The rest lives
beside it: :mod:`repro.engine.lowering` turns every plan — single-table
scans and chains of equi-joins alike — into a typed
:class:`~repro.engine.dag.StageGraph` (pure, so EXPLAIN lowers without
executing); :mod:`repro.engine.stages` holds what each stage does on the
simulated cluster and the Table 3 stage attribution;
:mod:`repro.engine.caching` is the only code that knows what a cache
tier is; and :class:`~repro.engine.scheduler.DagScheduler` runs any
stage the moment its inputs complete, each under an (untagged)
``stage:<id>`` span below the query's root span.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Hashable, List, Optional

from repro.analysis.runtime import strict_verify_enabled
from repro.arrowsim.record_batch import RecordBatch, concat_batches
from repro.arrowsim.schema import Schema
from repro.engine.caching import QueryCache
from repro.engine.cluster import Cluster
from repro.engine.dag import StageGraph
from repro.engine.lowering import Lowered, MaterializedHandle, lower
from repro.engine.scheduler import DagScheduler, SchedulerSpec
from repro.engine.session import Session
from repro.engine.spi import Connector
from repro.engine.stages import (
    STAGE_ANALYSIS,
    STAGE_EXCHANGE,
    STAGE_EXECUTION,
    STAGE_OTHERS,
    STAGE_SUBSTRAIT,
    STAGE_TRANSFER,
    StageBodies,
)
from repro.errors import AnalysisError, EngineError, NoSuchCatalogError, PlanError
from repro.plan.nodes import PlanNode, TableScanNode, format_plan
from repro.plan.optimizer import GlobalOptimizer
from repro.plan.planner import plan_query
from repro.rewrite import (
    RewriteContext,
    RuleFiring,
    derived_schema,
    rewrite_statement,
)
from repro.sql.analyzer import analyze as analyze_statement
from repro.sql.ast_nodes import (
    CommonTableExpr,
    DateLiteral,
    Expression,
    Literal,
    SelectStatement,
    TableName,
)
from repro.sql.lexer import normalize_whitespace
from repro.sql.parser import parse
from repro.trace import CounterTotals, Trace, counter_totals, render_tree, stage_totals

__all__ = ["Coordinator", "QueryResult"]

#: Rewriter fixpoint budget: max rule applications per statement.
REWRITE_BUDGET = 32


@dataclass
class QueryResult:
    """Everything one query run produced and measured."""

    batch: RecordBatch
    execution_seconds: float
    #: Bytes that crossed from the storage layer into the compute node.
    data_moved_bytes: int
    splits: int
    plan_before: str
    plan_after: str
    #: The query's span tree (the stage and counter ledgers' source).
    trace: Trace
    #: Per-stage simulated seconds, derived from ``trace``
    #: (:func:`repro.trace.stage_totals`); they partition the wall time.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Mean busy fraction per resource over the query's lifetime, e.g.
    #: {"compute_cores": 0.02, "storage_cores[0]": 0.61, "link": 0.05}.
    utilization: Dict[str, float] = field(default_factory=dict)
    #: The stage graph the query ran through (EXPLAIN renders this).
    stage_graph: Optional[StageGraph] = None
    #: Per-counter totals over ``trace`` (:func:`repro.trace.counter_totals`),
    #: summed once when the query ends: a later add by a process that
    #: outlived the query (a speculative loser) does not change them.
    metrics: CounterTotals = field(init=False)

    def __post_init__(self) -> None:
        self.metrics = counter_totals(self.trace)

    @property
    def rows(self) -> int:
        return self.batch.num_rows

    def to_pydict(self) -> Dict[str, list]:
        return self.batch.to_pydict()


@dataclass
class _Prepared:
    """parse -> rewrite output for one statement.

    ``statement`` is the rewritten form with the WITH clause stripped
    (every surviving CTE is listed in ``cte_jobs`` for one-shot
    materialization); ``scalar_jobs`` are the uncorrelated scalar
    subqueries the run path must execute before the deterministic
    second rewrite pass substitutes their values.
    """

    original: SelectStatement
    statement: SelectStatement
    firings: List[RuleFiring]
    scalar_jobs: List[SelectStatement]
    cte_jobs: List[CommonTableExpr]
    cte_schemas: Dict[str, Schema]


class Coordinator:
    """Plans and runs queries against registered catalogs on one cluster."""

    def __init__(
        self,
        cluster: Cluster,
        catalogs: Dict[str, Connector],
        scheduler: Optional[SchedulerSpec] = None,
        rewrite: bool = True,
    ) -> None:
        self.cluster = cluster
        self.catalogs = dict(catalogs)
        #: Restart/speculation policy handed to every query's scheduler.
        self.scheduler_spec = scheduler if scheduler is not None else SchedulerSpec()
        #: What each lowered stage does on ``cluster``.
        self.bodies = StageBodies(cluster, self.scheduler_spec)
        #: Exchange partition count: join tasks per join level.
        self.join_workers = max(1, int(cluster.costs.exchange_partition_count))
        #: Run the rule-driven logical rewriter between parse and
        #: analysis.  Off, subquery expressions and WITH clauses reach
        #: the analyzer unrewritten and fail with a clear diagnostic.
        self.rewrite = rewrite

    def connector_for(self, name: str) -> Connector:
        try:
            return self.catalogs[name]
        except KeyError:
            raise NoSuchCatalogError(
                f"catalog {name!r}; registered: {sorted(self.catalogs)}"
            ) from None

    # -- public API ------------------------------------------------------------

    def execute(self, sql: str, session: Session) -> QueryResult:
        """Run one statement to completion; returns results + measurements."""
        sim = self.cluster.sim
        return sim.run(until=sim.process(self._run_query(sql, session), name="query"))

    def query_process(
        self,
        sql: str,
        session: Session,
        *,
        parent=None,
        query_id: Optional[str] = None,
    ):
        """The query as a schedulable DES generator (re-entrant form).

        :meth:`execute` drives one query to completion on an otherwise
        idle cluster; the multi-tenant query service instead spawns many
        of these concurrently on one shared cluster.  Each call gets its
        own span root (parented under ``parent`` when given, so a
        service-level trace nests the query) and sums its counters from
        the spans of that trace, and ``query_id`` tags resource claims
        for per-query accounting.
        """
        return self._run_query(sql, session, parent=parent, query_id=query_id)

    def explain(self, sql: str, session: Session, analyze: bool = False) -> str:
        """Plan (without executing) and describe what would happen.

        Shows the optimized logical plan, the plan after the connector's
        local optimizer, the operators merged into the scan handle with
        their selectivity estimates, the split structure, and the stage
        graph the scheduler would run — Presto's EXPLAIN, extended with
        the paper's pushdown vocabulary.

        With ``analyze=True`` the query actually runs and the output is
        the recorded span tree, the span-derived Table 3 stage
        breakdown, and the stage graph with
        per-stage timings — ``EXPLAIN ANALYZE``.
        """
        if analyze:
            return self._explain_analyze(sql, session)
        with self.cluster.tracer.span(
            "explain", attributes={"sql": " ".join(sql.split())}
        ) as root:
            plan, plan_before, connector, prepared = self._plan_statement(
                sql, session, root
            )
        lowered = lower(
            plan, connector, root, self.bodies,
            QueryCache(self.bodies).add_branch_stages, self.join_workers,
        )

        lines = [f"EXPLAIN {' '.join(sql.split())}", ""]
        if prepared.firings:
            # Omitted entirely when no rule fired: the section only
            # exists to explain a statement that actually changed.
            lines.append("Rewrite (rules fired):")
            for i, firing in enumerate(prepared.firings, start=1):
                lines.append(f"  {i}. {firing.rule}: {firing.detail}")
            lines.append("")
        local_optimizer = f"{type(connector).__name__} local optimizer:"
        lines += [
            "Logical plan (after global optimization):",
            plan_before,
            "",
            f"After {local_optimizer}",
            lowered.plan_after,
        ]
        if len(lowered.branches) == 1:
            # Single-table: the classic EXPLAIN shape.
            lines += self._pushed_lines(lowered.branches[0].handle)
        else:
            for branch in lowered.branches:
                lines += [
                    "",
                    f"Branch {branch.stage_id} after {local_optimizer}",
                    format_plan(branch.plan),
                ]
                lines += self._pushed_lines(branch.handle, label=branch.stage_id)
        lines.append("")
        lines.append("Stage graph:")
        lines.append(lowered.graph.render())
        lines.append("")
        lines.append(f"Splits: {lowered.total_splits}")
        return "\n".join(lines)

    @staticmethod
    def _pushed_lines(handle, label: Optional[str] = None) -> List[str]:
        pushed = getattr(handle, "pushed", None)
        if pushed is None:
            return []
        operators = pushed.operator_names() or ["(none)"]
        suffix = f" ({label})" if label else ""
        lines = ["", f"Pushed to storage{suffix}: {', '.join(operators)}"]
        if getattr(handle, "estimated_selectivity", None) is not None:
            lines.append(
                f"  estimated filter selectivity: "
                f"{handle.estimated_selectivity:.4%}"
            )
        if getattr(handle, "estimated_output_rows", None) is not None:
            lines.append(
                f"  estimated aggregation groups: "
                f"{handle.estimated_output_rows:,}"
            )
        return lines

    def _explain_analyze(self, sql: str, session: Session) -> str:
        """Run the query; render its span tree + stages."""
        result = self.execute(sql, session)
        lines = [
            f"EXPLAIN ANALYZE {' '.join(sql.split())}",
            "",
            f"wall time: {result.execution_seconds * 1e3:.3f} ms    "
            f"rows: {result.rows:,}    "
            f"data moved: {result.data_moved_bytes:,} B    "
            f"splits: {result.splits}",
            "",
            render_tree(result.trace),
            "",
            "Stage breakdown (derived from spans):",
        ]
        for stage in (
            STAGE_ANALYSIS,
            STAGE_SUBSTRAIT,
            STAGE_TRANSFER,
            STAGE_EXCHANGE,
            STAGE_EXECUTION,
            STAGE_OTHERS,
        ):
            seconds = result.stage_seconds.get(stage, 0.0)
            lines.append(f"  {stage:<24} {seconds * 1e3:10.3f} ms")
        if result.stage_graph is not None:
            timings: Dict[str, float] = {}
            for span in result.trace:
                if span.name.startswith("stage:") and span.end is not None:
                    sid = span.name[len("stage:"):]
                    timings[sid] = timings.get(sid, 0.0) + span.duration
            lines.append("")
            lines.append("Stage graph (per-stage wall time):")
            lines.append(result.stage_graph.render(timings=timings))
        return "\n".join(lines)

    # -- planning --------------------------------------------------------------

    def _schema_resolver(self, session: Session) -> Callable[[TableName], Schema]:
        """Catalog schema lookup for rewrite-rule guards."""

        def resolve(name: TableName) -> Schema:
            # Unknown catalogs/tables surface as SqlError so rules decline
            # and the planning path owns the real diagnostic (including
            # the cross-catalog-join rejection).
            try:
                connector = self.connector_for(name.catalog or session.catalog)
                handle = connector.get_table_handle(
                    name.schema or session.schema, name.table
                )
            except EngineError as exc:
                raise AnalysisError(str(exc)) from exc
            return handle.table_schema

        return resolve

    def _prepare_statement(
        self, sql: str, session: Session, tracer, startup
    ) -> _Prepared:
        """parse -> rewrite (rule fixpoint)."""
        with tracer.span("parse", parent=startup):
            original = parse(sql)
        return self._rewrite_statement(original, session, tracer, startup)

    def _rewrite_statement(
        self,
        original: SelectStatement,
        session: Session,
        tracer,
        startup,
        scalar_results: Optional[Dict[str, Expression]] = None,
    ) -> _Prepared:
        """The rewrite half of :meth:`_prepare_statement`.

        ``scalar_results`` maps a scalar subquery's SQL to its computed
        literal; absent entries get a typed placeholder and are recorded
        in ``scalar_jobs`` so the run path can execute them and re-run
        this (deterministic) pass with the real values.
        """
        if not self.rewrite:
            return _Prepared(original, original, [], [], [], {})

        scalar_jobs: List[SelectStatement] = []

        def scalar_value(sub: SelectStatement) -> Expression:
            key = sub.to_sql()
            if scalar_results is not None and key in scalar_results:
                return scalar_results[key]
            scalar_jobs.append(sub)
            return self._placeholder_literal(sub, ctx)

        ctx = RewriteContext(
            resolve=self._schema_resolver(session), scalar_value=scalar_value
        )
        result = rewrite_statement(
            original, ctx, budget=REWRITE_BUDGET, tracer=tracer, parent=startup
        )
        statement = result.statement
        cte_jobs = [cte for cte in statement.ctes if cte.materialized]
        if statement.ctes and all(c.materialized for c in statement.ctes):
            # Every binding is pinned for one-shot materialization; the
            # analyzer never sees the WITH clause.  (A residual
            # non-materialized CTE stays put so the analyzer reports it.)
            statement = replace(statement, ctes=())
        cte_schemas = {
            cte.name: derived_schema(cte.query, ctx) for cte in cte_jobs
        }
        return _Prepared(
            original=original,
            statement=statement,
            firings=list(result.firings),
            scalar_jobs=scalar_jobs,
            cte_jobs=cte_jobs,
            cte_schemas=cte_schemas,
        )

    def _placeholder_literal(
        self, sub: SelectStatement, ctx: RewriteContext
    ) -> Expression:
        """Typed stand-in for a scalar subquery on the pure (EXPLAIN) path."""
        dtype = derived_schema(sub, ctx).fields[0].dtype
        name = dtype.name
        if name == "date32":
            return DateLiteral("1970-01-01")
        if name in ("float32", "float64"):
            return Literal(0.0)
        if name == "bool":
            return Literal(False)
        if name == "string":
            return Literal("")
        return Literal(0)

    @staticmethod
    def _scalar_literal(batch: RecordBatch) -> Expression:
        """Literal AST node for an executed scalar subquery's result.

        A NULL result (e.g. ``avg`` over no rows) is the NULL literal: the
        enclosing comparison is then unknown, as SQL requires.
        """
        if batch.num_rows != 1:
            raise PlanError(
                f"scalar subquery returned {batch.num_rows} rows "
                f"(must return exactly 1)"
            )
        field_ = batch.schema.fields[0]
        value = batch.columns[0].to_pylist()[0]
        if value is not None and field_.dtype.name == "date32":
            import datetime

            iso = (
                datetime.date(1970, 1, 1) + datetime.timedelta(days=int(value))
            ).isoformat()
            return DateLiteral(iso)
        return Literal(value)

    def _resolve_handle(
        self,
        table: TableName,
        session: Session,
        materialized: Dict[str, MaterializedHandle],
    ) -> Any:
        """Table handle: rewriter-materialized CTEs first, then the catalog."""
        if (
            table.catalog is None
            and table.schema is None
            and table.table in materialized
        ):
            return materialized[table.table]
        connector = self.connector_for(table.catalog or session.catalog)
        return connector.get_table_handle(
            table.schema or session.schema, table.table
        )

    def _plan_prepared(
        self,
        prepared: _Prepared,
        session: Session,
        tracer,
        startup,
        materialized: Dict[str, MaterializedHandle],
    ):
        """analyze -> logical plan -> global optimize (post-rewrite).

        Returns the optimized plan, its rendering, and the resolved
        connector.  A semi/anti join clause contributes the schema of
        its *subquery's* FROM table (the analyzer plans the derived
        table itself); handles key by scanned-table name, which covers
        both catalog tables and materialized CTE temporaries.
        """
        statement = prepared.statement
        catalog_name = statement.from_table.catalog or session.catalog
        connector = self.connector_for(catalog_name)
        handle = self._resolve_handle(statement.from_table, session, materialized)
        join_handles: List[Any] = []
        join_schemas: List[Schema] = []
        handle_keys: List[str] = []
        for clause in statement.joins:
            source = (
                clause.subquery.from_table
                if clause.subquery is not None
                else clause.table
            )
            is_materialized = (
                source.catalog is None
                and source.schema is None
                and source.table in materialized
            )
            if not is_materialized:
                join_catalog = source.catalog or session.catalog
                if join_catalog != catalog_name:
                    raise PlanError(
                        f"cross-catalog joins are not supported "
                        f"({catalog_name} vs {join_catalog})"
                    )
            join_handle = self._resolve_handle(source, session, materialized)
            join_handles.append(join_handle)
            join_schemas.append(join_handle.table_schema)
            handle_keys.append(source.table)
        with tracer.span("analyze", parent=startup):
            query = analyze_statement(
                statement, handle.table_schema, join_schemas=join_schemas
            )
        with tracer.span("plan.logical", parent=startup):
            plan: PlanNode = plan_query(query)
            handles_by_table = {statement.from_table.table: handle}
            for key, join_handle in zip(handle_keys, join_handles):
                handles_by_table[key] = join_handle
            self._attach_handles(plan, handles_by_table)
        with tracer.span("optimize.global", parent=startup):
            if strict_verify_enabled():
                # Global rewrites must preserve the analyzed plan's output
                # schema; verify both sides under strict verification.
                from repro.analysis.verifier import verify_logical_plan

                pre_schema = verify_logical_plan(plan)
                plan = GlobalOptimizer().optimize(plan)
                post_schema = verify_logical_plan(plan)
                if pre_schema.names() != post_schema.names() or any(
                    a.dtype is not b.dtype for a, b in zip(pre_schema, post_schema)
                ):
                    from repro.errors import VerificationError

                    raise VerificationError(
                        f"global optimization changed the output schema from "
                        f"{pre_schema.names()} to {post_schema.names()}"
                    )
            else:
                plan = GlobalOptimizer().optimize(plan)
        if strict_verify_enabled() and prepared.firings:
            # The rewritten plan must still produce the output shape the
            # pre-rewrite statement declared.
            from repro.analysis.verifier import verify_rewrite

            verify_rewrite(prepared.original, plan)
        return plan, format_plan(plan), connector

    def _plan_statement(self, sql: str, session: Session, root):
        """parse -> rewrite -> analyze -> logical plan -> global optimize.

        EXPLAIN's pure planning path: scalar subqueries keep their typed
        placeholders and materialized CTEs lower against schema-only
        (batch-less) handles, so no simulated time passes.  Returns the
        plan, its rendering, the connector, and the :class:`_Prepared`
        record (for the Rewrite section).  Spans record under ``root``.
        """
        tracer = self.cluster.tracer
        prepared = self._prepare_statement(sql, session, tracer, root)
        materialized = {
            name: MaterializedHandle(name=name, table_schema=schema)
            for name, schema in prepared.cte_schemas.items()
        }
        plan, plan_before, connector = self._plan_prepared(
            prepared, session, tracer, root, materialized
        )
        return plan, plan_before, connector, prepared

    # -- the query process ----------------------------------------------------------

    def _run_query(
        self,
        sql: str,
        session: Session,
        *,
        parent=None,
        query_id: Optional[str] = None,
    ):
        cluster = self.cluster
        sim = cluster.sim
        costs = cluster.costs
        tracer = cluster.tracer
        cache = QueryCache(self.bodies)
        query_start = sim.now
        bytes_start = cluster.bytes_to_compute()

        with tracer.span(
            "query", parent=parent, attributes={"sql": " ".join(sql.split())}
        ) as root:
            # (0) Coordination overhead ("others" in Table 3), then the
            # plan tier, and on a miss (1-3) parse, rewrite, analyze,
            # logical plan, global optimization.  These run inline
            # (instantaneous in simulated time) — their spans are
            # zero-width markers recording pipeline structure.
            with tracer.span("startup", parent=root, stage=STAGE_OTHERS) as startup:
                home = self.catalogs.get(session.catalog)
                lookup = cache.cache is not None and home is not None and cache.plan_probe(
                    normalize_whitespace(sql), session, self._plan_identity(home)
                )
                # The lookup is charged with the coordination, in one
                # request: an extra hop here would reverse same-instant
                # queries under the LIFO tie-break.
                yield cluster.compute.execute(
                    costs.coordinator_fixed_cycles
                    + (costs.cache_lookup_cycles if lookup else 0),
                    name="coordinate",
                )
                entry = cache.lookup_plan(home, startup) if lookup else None
                if entry is None:
                    prepared = self._prepare_statement(sql, session, tracer, startup)
                    subqueries = bool(prepared.scalar_jobs or prepared.cte_jobs)
                    if not subqueries:
                        planned = self._plan_prepared(
                            prepared, session, tracer, startup, materialized={}
                        )
            if entry is not None:
                plan, plan_before, connector = entry.plan, entry.plan_before, home
            else:
                if subqueries:
                    planned = yield from self._plan_with_subqueries(
                        prepared, session, root, query_id
                    )
                plan, plan_before, connector = planned

            # (4) Connector-specific (local) optimization + lowering to
            # the stage graph.  The lowering itself is pure (no
            # simulated time); the traversal cost it reports is charged
            # here.  A prepared plan lowers as stored: no optimizer runs,
            # and its recorded decision counters are added instead.
            with tracer.span("optimize.local", parent=root, stage=STAGE_ANALYSIS) as local:
                lowered = lower(
                    plan, connector, local, self.bodies,
                    cache.add_branch_stages, self.join_workers,
                    prepared=None if entry is None else entry.branches,
                )
                if entry is not None:
                    for name, amount in entry.counters:
                        local.add(name, amount)
                elif lowered.analysis_nodes:
                    yield cluster.compute.execute(
                        lowered.analysis_nodes * costs.plan_analysis_cycles_per_node,
                        name="local-opt",
                    )
            if entry is None and not subqueries and connector is home:
                cache.fill_plan(plan, plan_before, lowered, local, root)

            # (4b) Coordinator-tier result cache: a hit *is* the result.
            try:
                batch = yield from cache.lookup_result(lowered, root)
                hit = batch is not None
                if not hit:
                    batch = yield from self._run_graph(
                        lowered, root, query_id, cache.unpaid_lookup_cycles
                    )
            finally:
                for branch in lowered.branches:
                    connector.end_query(branch.handle)
            elapsed = sim.now - query_start
            if not hit:
                cache.fill_result(batch, root)
            # Captured while the root is open, so ring retention cannot
            # have evicted it; the root span closes in this same copy.
            trace = tracer.trace(root=root)
        return QueryResult(
            batch=batch,
            execution_seconds=elapsed,
            # Delta over the link ledger: exact for a dedicated cluster;
            # on a shared cluster concurrent queries interleave on the
            # link, and the per-query figure is the ``bytes_received``
            # counter.
            data_moved_bytes=cluster.bytes_to_compute() - bytes_start,
            splits=0 if hit else lowered.total_splits,
            plan_before=plan_before,
            plan_after=lowered.plan_after,
            trace=trace,
            # The stage spans partition the wall time (a nested
            # sub-execution shares its parent's trace, so its stages and
            # counts are the parent's too).
            stage_seconds=stage_totals(trace, elapsed),
            utilization=self._utilization(lowered.has_exchange and not hit),
            stage_graph=lowered.graph,
        )

    def _plan_identity(self, connector: Connector) -> Optional[Hashable]:
        """What shapes a plan through ``connector`` besides the statement
        and its tables: the connector's settings, the rewriter switch and
        the join fan-out; ``None`` when the connector declares no identity."""
        identity = connector.plan_identity()
        if identity is None:
            return None
        return (identity, self.rewrite, self.join_workers)

    def _plan_with_subqueries(
        self,
        prepared: _Prepared,
        session: Session,
        root,
        query_id: Optional[str],
    ):
        """(1b) Rewriter-requested sub-executions, then planning.

        Uncorrelated scalar subqueries and materialized CTE bodies run
        as nested queries on this same cluster, in the parent's trace and
        under its query id: their transfers, splits, counts and stage
        time are this query's.
        """

        def run(statement: SelectStatement):
            return self._run_query(
                statement.to_sql(), session, parent=root, query_id=query_id
            )

        if prepared.scalar_jobs:
            scalar_results: Dict[str, Expression] = {}
            for sub in prepared.scalar_jobs:
                sub_result = yield from run(sub)
                scalar_results[sub.to_sql()] = self._scalar_literal(sub_result.batch)
            # Deterministic second pass over the parsed statement: the
            # same rules fire in the same order, now substituting the
            # computed values.
            prepared = self._rewrite_statement(
                prepared.original, session, self.cluster.tracer, root, scalar_results
            )
        materialized: Dict[str, MaterializedHandle] = {}
        for cte in prepared.cte_jobs:
            sub_result = yield from run(cte.query)
            materialized[cte.name] = MaterializedHandle(
                name=cte.name,
                table_schema=prepared.cte_schemas[cte.name],
                batches=[sub_result.batch],
            )
        tracer = self.cluster.tracer
        with tracer.span("planning", parent=root, stage=STAGE_OTHERS) as planning:
            return self._plan_prepared(
                prepared, session, tracer, planning, materialized=materialized
            )

    def _run_graph(
        self,
        lowered: Lowered,
        root,
        query_id: Optional[str],
        lookup_cycles: float = 0.0,
    ):
        """(5-6) Charge split scheduling, run the graph, gather the result.

        ``lookup_cycles`` (a result-tier miss) join the scheduling charge
        in one request (:meth:`QueryCache.lookup_result`).
        """
        cluster = self.cluster
        with cluster.tracer.span("schedule", parent=root, stage=STAGE_OTHERS) as schedule:
            schedule.set("stages", len(lowered.graph))
            yield cluster.compute.execute(
                lookup_cycles
                + lowered.total_splits * cluster.costs.schedule_cycles_per_split,
                name="schedule",
            )
        root.add("splits", lowered.total_splits)

        # Any ready stage launches the instant its inputs complete;
        # stage-level restart and split speculation are the scheduler's
        # business, not the lowering's.
        scheduler = DagScheduler(
            cluster.sim,
            lowered.graph,
            self.scheduler_spec,
            tracer=cluster.tracer,
            parent=root,
            query_id=query_id,
        )
        try:
            stage_results = yield from scheduler.run()
        except BaseException as exc:
            # A build that failed before publishing its dynamic filter
            # fails the handshake: the probe splits waiting on it raise
            # too, and unwind (closing their spans) before this query does.
            handshake = lowered.handshake
            if handshake is not None and handshake.fail(exc):
                yield cluster.sim.barrier()
            raise
        results = stage_results[lowered.result_stage]
        if not results:
            return RecordBatch.empty(lowered.output_schema)
        return concat_batches(results)

    def _utilization(self, exchange: bool) -> Dict[str, float]:
        """Mean busy fraction per resource over the cluster's lifetime."""
        cluster = self.cluster
        utilization = {
            "compute_cores": cluster.compute.core_utilization(),
            "frontend_cores": cluster.frontend.core_utilization(),
            "link": cluster.link_cf.utilization(),
            "scan_drivers": cluster.scan_drivers.utilization(),
        }
        if exchange:
            utilization["exchange_link"] = cluster.link_exchange.utilization()
        for i, node in enumerate(cluster.storage):
            utilization[f"storage_cores[{i}]"] = node.core_utilization()
        return utilization

    # -- handle resolution -------------------------------------------------------

    @staticmethod
    def _attach_handles(plan: PlanNode, handles_by_table: Dict[str, Any]) -> None:
        """Bind each scan to its table's handle (keyed by table name —
        the analyzer rejects duplicate table names, so names are ids)."""
        attached = False

        def visit(node: PlanNode) -> None:
            nonlocal attached
            if isinstance(node, TableScanNode):
                try:
                    node.connector_handle = handles_by_table[node.table.table]
                except KeyError:
                    raise NoSuchCatalogError(
                        f"no handle resolved for scanned table "
                        f"{node.table.table!r}"
                    ) from None
                attached = True
                return
            for child in node.children():
                visit(child)

        visit(plan)
        if not attached:
            raise NoSuchCatalogError("plan has no table scan to attach a handle to")
