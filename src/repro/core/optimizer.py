"""The connector's local optimizer: policy, pushdown decisions, rewrite.

Runs at Figure 3 step 4: takes the globally-optimized plan, asks the
extractor for candidates, consults the selectivity analyzer, merges the
chosen prefix of operators into an enriched TableScan handle, and emits
the residual plan the workers will execute.

Soundness rules encoded here:

* Operators push in plan order; the first refusal stops pushdown (an
  operator cannot jump over an unpushed one).
* With multiple storage nodes, aggregation pushes as **partial** states
  and a residual final aggregation merges them; nothing may push above a
  partial aggregation (per-node top-N over partial states would be
  wrong).  With one node, aggregation pushes single-phase and top-N may
  follow — the paper's full-pushdown configuration.
* Pushed top-N / sort / limit keep a residual merge copy (per-split
  results still need combining); pushed filters and projections vanish
  from the residual plan entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List

from repro.analysis.runtime import strict_verify_enabled
from repro.core.extractor import OperatorExtractor, PushdownCandidate
from repro.core.handle import OcsTableHandle, PushedAggregation, PushedOperators
from repro.core.selectivity import SelectivityAnalyzer
from repro.engine.spi import ConnectorPlanOptimizer
from repro.errors import PlanError
from repro.plan.nodes import (
    AggregationNode,
    PlanNode,
    TableScanNode,
)
from repro.trace import Span

__all__ = ["PushdownPolicy", "OcsPlanOptimizer"]

ALL_OPS = frozenset({"filter", "project", "aggregate", "topn", "sort", "limit"})


@dataclass(frozen=True)
class PushdownPolicy:
    """Which operators may push down, and whether statistics gate them."""

    enabled: FrozenSet[str] = ALL_OPS
    #: When True, estimates gate decisions against the thresholds below
    #: (paper: "user-configurable thresholds"); when False, every enabled
    #: operator pushes — how the evaluation's progressive configs work.
    use_statistics: bool = False
    #: Push a filter only if it is estimated to drop enough rows.
    filter_selectivity_threshold: float = 0.9
    #: Push an aggregation only if groups/rows is below this.
    aggregation_selectivity_threshold: float = 0.5
    #: Statistical model for range filters ("normal" per the paper).
    distribution: str = "normal"
    #: When True, the coordinator publishes build-side join-key summaries
    #: (min/max + Bloom) into the probe scan's pushed filter, so storage
    #: prunes probe rows before they are shuffled.
    dynamic_filters: bool = False

    def __post_init__(self) -> None:
        unknown = set(self.enabled) - ALL_OPS
        if unknown:
            raise PlanError(f"unknown pushdown operators {sorted(unknown)}")

    @classmethod
    def none(cls) -> "PushdownPolicy":
        return cls(enabled=frozenset())

    @classmethod
    def filter_only(cls) -> "PushdownPolicy":
        return cls(enabled=frozenset({"filter"}))

    @classmethod
    def all_operators(cls) -> "PushdownPolicy":
        return cls(enabled=ALL_OPS)

    @classmethod
    def operators(cls, *names: str, **kwargs) -> "PushdownPolicy":
        return cls(enabled=frozenset(names), **kwargs)


class OcsPlanOptimizer(ConnectorPlanOptimizer):
    """ConnectorPlanOptimizer implementation for the Presto-OCS connector.

    ``split_count`` is how many pushdown requests the scan will fan out
    into (one per storage node for table-granularity splits, one per file
    for file granularity): with more than one, aggregation must ship as
    mergeable partial states.
    """

    def __init__(
        self,
        policy: PushdownPolicy,
        storage_node_count: int,
        split_granularity: str = "node",
    ) -> None:
        if split_granularity not in ("node", "file"):
            raise PlanError(f"unknown split granularity {split_granularity!r}")
        self.policy = policy
        self.storage_node_count = storage_node_count
        self.split_granularity = split_granularity
        self.extractor = OperatorExtractor()

    def _split_count(self, descriptor) -> int:
        files = max(1, len(descriptor.files))
        if self.split_granularity == "file":
            return files
        return min(self.storage_node_count, files)

    # -- entry point ------------------------------------------------------------

    def optimize(self, plan: PlanNode, span: Span) -> PlanNode:
        scan, candidates = self.extractor.extract(plan)
        base_handle = scan.connector_handle
        descriptor = base_handle.descriptor
        analyzer = SelectivityAnalyzer(descriptor, distribution=self.policy.distribution)

        pushed = PushedOperators(columns=list(scan.columns))
        handle = OcsTableHandle(descriptor=descriptor, pushed=pushed)
        self._table_schema = descriptor.table_schema

        pushed_candidates: List[PushdownCandidate] = []
        still_pushing = True
        for candidate in candidates:
            if not still_pushing:
                break
            if self._try_push(candidate, pushed, handle, analyzer, span):
                pushed_candidates.append(candidate)
            else:
                still_pushing = False

        self._finalize(pushed)
        span.add("pushdown_operators", len(pushed.operator_names()))
        residual = self._rebuild_residual(scan, candidates, pushed_candidates, handle)
        if strict_verify_enabled():
            # Equivalence check at the optimizer's exit: pushed + residual
            # must re-type-check and agree with the input plan's schema.
            from repro.analysis.verifier import verify_optimized_plan

            verify_optimized_plan(plan, residual, self._split_count(descriptor))
        return residual

    # -- decision logic -----------------------------------------------------------

    def _try_push(
        self,
        candidate: PushdownCandidate,
        pushed: PushedOperators,
        handle: OcsTableHandle,
        analyzer: SelectivityAnalyzer,
        span: Span,
    ) -> bool:
        policy = self.policy
        kind = candidate.kind

        if kind == "filter":
            # Only a scan-adjacent WHERE filter pushes; a filter above an
            # aggregation is HAVING and stays residual.
            if pushed.aggregation is not None or pushed.projections is not None:
                return False
            if "filter" not in policy.enabled:
                return False
            estimate = analyzer.filter_selectivity(candidate.conditions["predicate"])
            span.add("estimated_filter_output_rows", estimate.output_rows)
            handle.estimated_selectivity = estimate.selectivity
            if policy.use_statistics and (
                estimate.selectivity > policy.filter_selectivity_threshold
            ):
                return False
            pushed.filter = candidate.conditions["predicate"]
            return True

        if kind in ("project", "rename"):
            projections = candidate.conditions["projections"]
            if pushed.aggregation is None:
                # Pre-aggregation (expression) projection.
                if kind == "rename" or "project" in policy.enabled:
                    pushed.projections = list(projections)
                    return True
                return False
            # Post-aggregation: nothing rides above *partial* states (the
            # residual final aggregation must see them verbatim); above a
            # single-phase aggregation, renames ride along for free and
            # expression projections need the project capability.
            if pushed.aggregation.phase == "partial":
                return False
            if kind == "rename" or "project" in policy.enabled:
                pushed.final_project = list(projections)
                return True
            return False

        if kind == "aggregation":
            if "aggregate" not in policy.enabled or pushed.aggregation is not None:
                return False
            node = candidate.node
            assert isinstance(node, AggregationNode)
            if node.phase != "single":
                return False
            estimate = analyzer.aggregation_cardinality(node.key_names)
            span.add("estimated_groups", estimate.output_rows)
            handle.estimated_output_rows = estimate.output_rows
            if policy.use_statistics and (
                estimate.selectivity > policy.aggregation_selectivity_threshold
            ):
                return False
            phase = "single" if self._split_count(handle.descriptor) <= 1 else "partial"
            aggregation = PushedAggregation(
                key_names=list(node.key_names),
                specs=list(node.specs),
                phase=phase,
            )
            self._fuse_projection(pushed, aggregation)
            pushed.aggregation = aggregation
            return True

        if kind == "topn":
            if "topn" not in policy.enabled:
                return False
            if pushed.aggregation is not None and pushed.aggregation.phase == "partial":
                # Per-node top-N over partial aggregates is unsound.
                return False
            estimate = analyzer.topn_selectivity(candidate.conditions["limit"])
            span.add("estimated_topn_rows", candidate.conditions["limit"])
            pushed.topn = (
                candidate.conditions["limit"],
                list(candidate.conditions["sort_keys"]),
            )
            return True

        if kind == "sort":
            if "sort" not in policy.enabled:
                return False
            if pushed.aggregation is not None and pushed.aggregation.phase == "partial":
                return False
            pushed.sort = list(candidate.conditions["sort_keys"])
            return True

        if kind == "limit":
            if "limit" not in policy.enabled:
                return False
            if pushed.aggregation is not None and pushed.aggregation.phase == "partial":
                return False
            pushed.limit = candidate.conditions["limit"]
            return True

        # OutputNode and anything unrecognized stay on the compute side.
        return False

    # -- OCS result-materialization semantics ----------------------------------

    @staticmethod
    def _fuse_projection(pushed: PushedOperators, aggregation: PushedAggregation) -> None:
        """Fold a pushed expression projection into the aggregation.

        The aggregation's embedded-engine path evaluates measure argument
        expressions vectorized, so fusing avoids both the interpreter
        cost of a standalone ProjectRel and the materialization of
        computed columns — matching the paper's observation that
        aggregation pushdown recovers the projection regression.
        Fusion requires every group key to be a plain column under its own
        name: the residual plan (a final aggregation, or whatever reads
        the groups) names the keys as the projection did, so a renaming
        key (``SELECT DISTINCT s AS c0``) keeps its projection.
        """
        from repro.exec.expressions import ColumnExpr

        if pushed.projections is None:
            return
        by_name = dict(pushed.projections)
        if not all(
            key in by_name and by_name[key] == ColumnExpr(key, by_name[key].dtype)
            for key in aggregation.key_names
        ):
            return
        arg_expressions = []
        for spec in aggregation.specs:
            if spec.arg is None:
                arg_expressions.append(None)
            else:
                expr = by_name.get(spec.arg)
                if expr is None:
                    return  # argument not produced by the projection: bail
                arg_expressions.append(expr)
        aggregation.arg_expressions = arg_expressions
        pushed.projections = None

    def _finalize(self, pushed: PushedOperators) -> None:
        """Apply OCS result-materialization semantics (paper Figure 5 Q2).

        A standalone expression projection returns the computed columns
        *alongside* the scanned ones (``SELECT exprs, *`` semantics) — so
        projection pushdown provides no data-movement reduction, exactly
        the flat movement line at "+Projection" in Figures 5(b)/(c).
        Only a downstream aggregation (which consumes the expressions
        in-storage) collapses the result.
        """
        from repro.exec.expressions import ColumnExpr

        if pushed.aggregation is not None or pushed.projections is None:
            return
        names = {name for name, _ in pushed.projections}
        extras = [name for name in pushed.columns if name not in names]
        if extras:
            pushed.projections = list(pushed.projections) + [
                (name, ColumnExpr(name, self._table_schema.field(name).dtype))
                for name in extras
            ]

    # -- residual plan ---------------------------------------------------------------

    def _rebuild_residual(
        self,
        scan: TableScanNode,
        candidates: List[PushdownCandidate],
        pushed_candidates: List[PushdownCandidate],
        handle: OcsTableHandle,
    ) -> PlanNode:
        pushed = handle.pushed
        output_schema = pushed.output_schema(handle.descriptor.table_schema)
        node: PlanNode = TableScanNode(
            table=scan.table,
            table_schema=output_schema,
            columns=output_schema.names(),
            connector_handle=handle,
        )
        pushed_set = {id(c) for c in pushed_candidates}
        for candidate in candidates:
            if id(candidate) in pushed_set:
                if candidate.kind in ("filter", "project", "rename"):
                    continue  # fully handled in storage
                if candidate.kind == "aggregation":
                    if pushed.aggregation is not None and pushed.aggregation.phase == "partial":
                        agg = candidate.node
                        assert isinstance(agg, AggregationNode)
                        node = AggregationNode(
                            node, list(agg.key_names), list(agg.specs), phase="final"
                        )
                    continue  # single-phase: storage returned final groups
                # topn / sort / limit: keep a merge copy over split results.
                node = candidate.node.with_source(node)
                continue
            node = candidate.node.with_source(node)
        return node
