"""The enriched table handle: pushed operators merged into the scan.

Paper Section 4: "Selected operators are recorded in the connector's
table metadata structure along with their dependency relationships and
execution order constraints. The corresponding PlanNodes are merged into
a modified TableScan operator."  :class:`PushedOperators` is that
structure; the fixed field order (columns -> filter -> projections ->
aggregation -> final_project -> topn/sort/limit) *is* the execution-order
constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.arrowsim.schema import Field, Schema
from repro.engine.spi import ConnectorTableHandle
from repro.exec.aggregates import AggregateSpec
from repro.exec.expressions import Expr

if TYPE_CHECKING:
    from repro.substrait.plan import SubstraitPlan

__all__ = ["PushedAggregation", "PushedOperators", "OcsTableHandle"]


@dataclass
class PushedAggregation:
    """Aggregation shipped to storage.

    ``phase == "single"`` means storage returns final per-group values
    (sound with one pushdown split); ``"partial"`` means mergeable states
    that the worker's residual final aggregation combines.

    ``arg_expressions`` holds one expression per spec (None for
    COUNT(*)), evaluated over the pushed pipeline's columns.  When a
    preceding expression projection is *fused* into the aggregation, the
    projection's expressions land here — evaluated vectorized inside the
    aggregation, which is why aggregation pushdown does not pay the
    paper's Q2 interpreter penalty that standalone projection pushdown
    does.
    """

    key_names: List[str]
    specs: List[AggregateSpec]
    arg_expressions: List[Optional[Expr]] = field(default_factory=list)
    phase: str = "single"

    def __post_init__(self) -> None:
        if not self.arg_expressions:
            from repro.exec.expressions import ColumnExpr

            self.arg_expressions = [
                ColumnExpr(s.arg, s.input_dtype) if s.arg is not None else None
                for s in self.specs
            ]


@dataclass
class PushedOperators:
    """The operator chain OCS will execute, in execution order."""

    #: Scan projection (column pushdown) — always present.
    columns: List[str]
    #: WHERE predicate over the scanned columns.
    filter: Optional[Expr] = None
    #: Join dynamic filter (min/max + Bloom over build keys), published by
    #: the coordinator after the build side finishes — not by the local
    #: optimizer.  Applied right above the ReadRel, before the static
    #: filter's projections.
    dynamic_filter: Optional[Expr] = None
    #: Expression projection evaluated before aggregation.
    projections: Optional[List[Tuple[str, Expr]]] = None
    aggregation: Optional[PushedAggregation] = None
    #: Post-aggregation projection (select-item expressions / renames).
    final_project: Optional[List[Tuple[str, Expr]]] = None
    #: (count, [(column, descending)]) — ORDER BY + LIMIT fused.
    topn: Optional[Tuple[int, List[Tuple[str, bool]]]] = None
    sort: Optional[List[Tuple[str, bool]]] = None
    limit: Optional[int] = None

    def operator_names(self) -> List[str]:
        """Human-readable list of what is pushed (for monitoring)."""
        names = []
        if self.filter is not None:
            names.append("filter")
        if self.dynamic_filter is not None:
            names.append("dynamic_filter")
        if self.projections is not None:
            names.append("project")
        if self.aggregation is not None:
            names.append("aggregation")
        if self.topn is not None:
            names.append("topn")
        if self.sort is not None:
            names.append("sort")
        if self.limit is not None:
            names.append("limit")
        return names

    @property
    def any_pushdown(self) -> bool:
        return bool(self.operator_names())

    def output_schema(self, table_schema: Schema) -> Schema:
        """Schema of what OCS returns (the residual plan's scan schema)."""
        schema = table_schema.select(self.columns)
        if self.projections is not None:
            schema = Schema([Field(n, e.dtype) for n, e in self.projections])
        if self.aggregation is not None:
            fields = [schema.field(k) for k in self.aggregation.key_names]
            for spec in self.aggregation.specs:
                if self.aggregation.phase == "partial":
                    fields.extend(spec.partial_fields())
                else:
                    fields.append(
                        Field(spec.output, spec.output_dtype, nullable=spec.func != "count")
                    )
            schema = Schema(fields)
        if self.final_project is not None:
            schema = Schema([Field(n, e.dtype) for n, e in self.final_project])
        return schema


@dataclass
class OcsTableHandle(ConnectorTableHandle):
    """The modified TableScan handle the local optimizer produces."""

    pushed: PushedOperators = None  # type: ignore[assignment]
    #: Selectivity estimates recorded at decision time (monitoring).
    estimated_selectivity: Optional[float] = None
    estimated_output_rows: Optional[int] = None
    #: Serialized Substrait of ``pushed``, set only on the copy a plan-tier
    #: hit hands its scan branch: the page source ships these bytes as they
    #: are and charges no generation.
    substrait: Optional[bytes] = None
    #: ``(plan, bytes)`` :func:`repro.core.translator.pushed_plan` built
    #: for this query's splits, without the dynamic filter ...
    built: Optional[Tuple[SubstraitPlan, bytes]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: ... and :func:`repro.core.translator.spliced_plan`'s, with it.  Both
    #: live for one query (the connector drops them when it ends) and are
    #: not carried by copies (``dataclasses.replace`` resets them).
    spliced: Optional[Tuple[SubstraitPlan, bytes]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.pushed is None:
            self.pushed = PushedOperators(
                columns=self.descriptor.table_schema.names()
            )
