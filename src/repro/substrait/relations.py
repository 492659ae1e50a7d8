"""Substrait relation nodes.

``ReadRel`` carries an optional *best-effort filter* like real Substrait —
the OCS storage node uses it for row-group pruning against Parcel chunk
statistics before decoding anything.

``ProjectRel`` uses emit-replace semantics (output = the expression list
only), a simplification of Substrait's emit mapping documented here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.arrowsim.dtypes import DataType
from repro.arrowsim.schema import Field, Schema
from repro.errors import SubstraitError
from repro.exec.aggregates import AggregateSpec
from repro.substrait.expressions import SExpression

__all__ = [
    "NamedStruct",
    "Relation",
    "ReadRel",
    "FilterRel",
    "ProjectRel",
    "AggregateMeasure",
    "AggregateRel",
    "SortField",
    "SortRel",
    "FetchRel",
]


@dataclass(frozen=True)
class NamedStruct:
    """Schema as Substrait sees it: parallel name/type/nullability lists."""

    names: Tuple[str, ...]
    types: Tuple[DataType, ...]
    nullability: Tuple[bool, ...]

    @classmethod
    def from_schema(cls, schema: Schema) -> "NamedStruct":
        return cls(
            names=tuple(f.name for f in schema),
            types=tuple(f.dtype for f in schema),
            nullability=tuple(f.nullable for f in schema),
        )

    def to_schema(self) -> Schema:
        return Schema(
            [Field(n, t, nullable=u) for n, t, u in zip(self.names, self.types, self.nullability)]
        )

    def __len__(self) -> int:
        return len(self.names)


class Relation:
    """Base class; each relation knows its output field types."""

    def inputs(self) -> Tuple["Relation", ...]:
        source = getattr(self, "input", None)
        return (source,) if source is not None else ()

    def output_types(self) -> List[DataType]:  # pragma: no cover - abstract
        raise NotImplementedError

    def relation_count(self) -> int:
        return 1 + sum(r.relation_count() for r in self.inputs())

    def expression_node_count(self) -> int:
        own = sum(e.node_count() for e in self.expressions())
        return own + sum(r.expression_node_count() for r in self.inputs())

    def expressions(self) -> Tuple[SExpression, ...]:
        return ()


@dataclass(frozen=True)
class ReadRel(Relation):
    """Scan of a named table, projected to ``projection`` ordinals."""

    table: str  # dotted name, e.g. "hpc.laghos"
    base_schema: NamedStruct
    projection: Tuple[int, ...]
    #: Best-effort filter the storage side may use for chunk pruning.
    best_effort_filter: Optional[SExpression] = None

    def output_types(self) -> List[DataType]:
        return [self.base_schema.types[i] for i in self.projection]

    def output_names(self) -> List[str]:
        return [self.base_schema.names[i] for i in self.projection]

    def expressions(self) -> Tuple[SExpression, ...]:
        return (self.best_effort_filter,) if self.best_effort_filter else ()


@dataclass(frozen=True)
class FilterRel(Relation):
    input: Relation
    condition: SExpression

    def output_types(self) -> List[DataType]:
        return self.input.output_types()

    def expressions(self) -> Tuple[SExpression, ...]:
        return (self.condition,)


@dataclass(frozen=True)
class ProjectRel(Relation):
    """Emit-replace projection: output fields are exactly ``expressions_``."""

    input: Relation
    expressions_: Tuple[SExpression, ...]

    def output_types(self) -> List[DataType]:
        return [e.dtype for e in self.expressions_]

    def expressions(self) -> Tuple[SExpression, ...]:
        return self.expressions_


@dataclass(frozen=True)
class AggregateMeasure:
    """One aggregate function application.

    ``function`` carries the bare name alongside the registry ``anchor``;
    the validator cross-checks the two (real Substrait only ships the
    anchor, but the redundancy keeps relation schemas self-computable).
    """

    anchor: int  # into the plan's function registry
    function: str  # count | sum | avg | min | max
    args: Tuple[SExpression, ...]
    output_dtype: DataType
    distinct: bool = False
    #: "single" | "partial" — what the storage side should emit.
    phase: str = "single"

    def spec(self) -> AggregateSpec:
        """This measure as the aggregate kernel runs it, its argument typed
        as declared."""
        arg = self.args[0] if self.args else None
        return AggregateSpec(
            self.function,
            None if arg is None else "$arg",
            "$m",
            None if arg is None else arg.dtype,
            self.distinct,
        )

    def output_types(self) -> List[DataType]:
        """The columns this measure emits: its value, or its partial state."""
        if self.phase == "partial":
            return [f.dtype for f in self.spec().partial_fields()]
        return [self.output_dtype]


@dataclass(frozen=True)
class AggregateRel(Relation):
    """Grouping by input ordinals + measures. Output = keys ++ measures."""

    input: Relation
    grouping: Tuple[int, ...]
    measures: Tuple[AggregateMeasure, ...]

    def output_types(self) -> List[DataType]:
        types = [self.input.output_types()[i] for i in self.grouping]
        for m in self.measures:
            types.extend(m.output_types())
        return types

    def expressions(self) -> Tuple[SExpression, ...]:
        out: List[SExpression] = []
        for m in self.measures:
            out.extend(m.args)
        return tuple(out)


@dataclass(frozen=True)
class SortField:
    ordinal: int
    descending: bool = False


@dataclass(frozen=True)
class SortRel(Relation):
    input: Relation
    sort_fields: Tuple[SortField, ...]

    def output_types(self) -> List[DataType]:
        return self.input.output_types()


@dataclass(frozen=True)
class FetchRel(Relation):
    """OFFSET/LIMIT. FetchRel over SortRel is top-N."""

    input: Relation
    offset: int
    count: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.count < 0:
            raise SubstraitError("FetchRel offset/count must be non-negative")

    def output_types(self) -> List[DataType]:
        return self.input.output_types()
