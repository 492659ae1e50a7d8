"""The storage node's embedded SQL engine: executes Substrait plans.

Lowers relations back onto the shared vectorized kernels
(:mod:`repro.exec`) against Parcel objects.  Field references are
positional, so after every relation the intermediate batch is renamed to
``c0..cN``; ``ReadRel``'s best-effort filter drives row-group pruning
against chunk statistics before any chunk is decoded.  A ``FilterRel``
directly on a ``ReadRel`` is evaluated inside the read (late
materialisation): each row group decodes the condition's columns, then
the other columns only at the rows it keeps.

Execution is real; the returned :class:`OcsCostReport` itemizes the
virtual work (stored bytes streamed, decompression, per-operator cycles)
for the storage node to charge against its simulated cores and disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrowsim.dtypes import DataType
from repro.arrowsim.record_batch import RecordBatch, concat_batches
from repro.arrowsim.schema import Field, Schema
from repro.errors import OcsPlanRejectedError, SubstraitError
from repro.exchange.filters import BloomProbeExpr
from repro.exec.aggregates import AggregateSpec
from repro.exec.expressions import (
    AndExpr,
    ColumnExpr,
    CompareExpr,
    Expr,
    LiteralExpr,
)
from repro.exec.operators import (
    FilterOperator,
    LimitOperator,
    SortOperator,
    TopNOperator,
    run_operators,
)
from repro.formats.reader import ParcelReader
from repro.objectstore.store import ObjectStore
from repro.sim.costmodel import CostParams
from repro.substrait.expressions import SExpression
from repro.substrait.functions import FunctionRegistry
from repro.substrait.plan import SubstraitPlan
from repro.substrait.relations import (
    AggregateRel,
    FetchRel,
    FilterRel,
    ProjectRel,
    ReadRel,
    Relation,
    SortRel,
)

__all__ = ["EmbeddedEngine", "OcsCostReport"]

@dataclass
class OcsCostReport:
    """Virtual work performed while executing one plan."""

    stored_bytes_read: int = 0
    uncompressed_bytes: int = 0
    decompress_cycles: float = 0.0
    scan_cycles: float = 0.0
    compute_cycles: float = 0.0
    rows_scanned: int = 0
    rows_returned: int = 0
    row_groups_pruned: int = 0
    row_groups_read: int = 0
    #: Rows eliminated by dynamic-filter (Bloom) predicates at the store.
    dynamic_rows_pruned: int = 0
    #: Requests served from the storage node's page cache (no disk read,
    #: no engine CPU — only the cache-serve charge).
    page_cache_hits: int = 0

    @property
    def total_cpu_cycles(self) -> float:
        return self.decompress_cycles + self.scan_cycles + self.compute_cycles

    def merge(self, other: "OcsCostReport") -> None:
        self.stored_bytes_read += other.stored_bytes_read
        self.uncompressed_bytes += other.uncompressed_bytes
        self.decompress_cycles += other.decompress_cycles
        self.scan_cycles += other.scan_cycles
        self.compute_cycles += other.compute_cycles
        self.rows_scanned += other.rows_scanned
        self.rows_returned += other.rows_returned
        self.row_groups_pruned += other.row_groups_pruned
        self.row_groups_read += other.row_groups_read
        self.dynamic_rows_pruned += other.dynamic_rows_pruned
        self.page_cache_hits += other.page_cache_hits


def _positional(batch: RecordBatch) -> RecordBatch:
    """Rename columns to c0..cN (Substrait field refs are ordinals)."""
    fields = [
        Field(f"c{i}", f.dtype, f.nullable) for i, f in enumerate(batch.schema)
    ]
    return RecordBatch(Schema(fields), batch.columns)


def lower_expression(
    sexpr: SExpression, input_types: Sequence[DataType], registry: FunctionRegistry
) -> Expr:
    """Substrait expression -> evaluable expression over c0..cN columns."""
    from repro.substrait.convert import substrait_to_expression

    names = [f"c{i}" for i in range(len(input_types))]
    try:
        return substrait_to_expression(sexpr, names, list(input_types), registry)
    except SubstraitError as exc:
        raise OcsPlanRejectedError(str(exc)) from exc


def _extract_range_bounds(
    condition: Expr,
) -> Dict[str, Tuple[Optional[object], Optional[object]]]:
    """Per-column [low, high] bounds from a conjunction of comparisons.

    Used for row-group pruning: only simple ``column op literal`` terms
    contribute; anything else is ignored (pruning stays conservative).
    """
    bounds: Dict[str, Tuple[Optional[object], Optional[object]]] = {}
    terms = condition.operands if isinstance(condition, AndExpr) else (condition,)
    for term in terms:
        if not isinstance(term, CompareExpr):
            continue
        left, right, op = term.left, term.right, term.op
        if isinstance(right, ColumnExpr) and isinstance(left, LiteralExpr):
            left, right = right, left
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        if not (isinstance(left, ColumnExpr) and isinstance(right, LiteralExpr)):
            continue
        if right.value is None:
            continue
        low, high = bounds.get(left.name, (None, None))
        value = right.value
        if op in (">", ">="):
            low = value if low is None else max(low, value)
        elif op in ("<", "<="):
            high = value if high is None else min(high, value)
        elif op == "=":
            low = value if low is None else max(low, value)
            high = value if high is None else min(high, value)
        bounds[left.name] = (low, high)
    return bounds


class EmbeddedEngine:
    """Executes one Substrait plan over Parcel objects in a local store."""

    def __init__(self, store: ObjectStore, costs: CostParams) -> None:
        self.store = store
        self.costs = costs

    def execute(
        self, plan: SubstraitPlan, bucket: str, keys: Sequence[str]
    ) -> Tuple[List[RecordBatch], OcsCostReport]:
        """Run ``plan`` over the listed objects; returns (batches, costs).

        ``plan`` is trusted: the frontend ran
        :func:`~repro.substrait.validator.validate_plan` on arrival, and a
        compute-side fallback runs a plan the compute side built.  What is
        left to refuse depends on the stored objects: a column they lack,
        a result whose width disagrees with the plan's root names.
        """
        report = OcsCostReport()
        batches = self._execute_rel(plan.root, plan.registry, bucket, keys, report)
        total = concat_batches(batches) if batches else None
        if total is not None and plan.root_names:
            if len(plan.root_names) != len(total.schema):
                raise OcsPlanRejectedError(
                    f"plan names {len(plan.root_names)} columns, result has "
                    f"{len(total.schema)}"
                )
            renamed = Schema(
                [
                    Field(name, f.dtype, f.nullable)
                    for name, f in zip(plan.root_names, total.schema)
                ]
            )
            total = RecordBatch(renamed, total.columns)
        out = [total] if total is not None else []
        report.rows_returned = total.num_rows if total is not None else 0
        return out, report

    # -- relation execution -------------------------------------------------------

    def _execute_rel(
        self,
        rel: Relation,
        registry: FunctionRegistry,
        bucket: str,
        keys: Sequence[str],
        report: OcsCostReport,
    ) -> List[RecordBatch]:
        costs = self.costs

        if isinstance(rel, ReadRel):
            return self._execute_read(rel, registry, bucket, keys, report)

        if isinstance(rel, FilterRel):
            types = rel.input.output_types()
            predicate = lower_expression(rel.condition, types, registry)
            op = FilterOperator(predicate)
            if isinstance(rel.input, ReadRel):
                # Late materialisation: the read evaluates the filter.
                out = self._execute_read(rel.input, registry, bucket, keys, report, op)
            else:
                inputs = self._execute_rel(rel.input, registry, bucket, keys, report)
                out = run_operators(inputs, [op])
            report.compute_cycles += (
                op.rows_in * predicate.node_count() * costs.vector_op_cycles_per_value
            )
            if any(isinstance(node, BloomProbeExpr) for node in predicate.walk()):
                # This FilterRel carries a dynamic join filter: attribute
                # its eliminations so the monitor can report what the
                # build side saved the network.
                report.dynamic_rows_pruned += op.rows_in - op.rows_out
            return [_positional(b) for b in out]

        if isinstance(rel, ProjectRel):
            inputs = self._execute_rel(rel.input, registry, bucket, keys, report)
            types = rel.input.output_types()
            exprs = [lower_expression(e, types, registry) for e in rel.expressions_]
            nodes = sum(e.node_count() for e in exprs)
            out = []
            rows = 0
            for batch in inputs:
                rows += batch.num_rows
                columns = [e.evaluate(batch) for e in exprs]
                schema = Schema(
                    [Field(f"c{i}", e.dtype) for i, e in enumerate(exprs)]
                )
                out.append(RecordBatch(schema, columns))
            # Projection expressions run through the (slow, row-oriented)
            # interpreter — the paper's Q2 regression.
            report.compute_cycles += (
                rows * nodes * costs.ocs_project_cycles_per_row_per_node
            )
            return out

        if isinstance(rel, AggregateRel):
            return self._execute_aggregate(rel, registry, bucket, keys, report)

        if isinstance(rel, FetchRel) and isinstance(rel.input, SortRel):
            # Top-N: fuse sort + fetch, as the paper's OCS does.
            sort_rel = rel.input
            inputs = self._execute_rel(sort_rel.input, registry, bucket, keys, report)
            sort_keys = [(f"c{sf.ordinal}", sf.descending) for sf in sort_rel.sort_fields]
            op = TopNOperator(rel.offset + rel.count, sort_keys)
            out = run_operators(inputs, [op])
            if rel.offset:
                out = run_operators(out, [_OffsetTrim(rel.offset)])
            report.compute_cycles += op.rows_in * costs.topn_cycles_per_row
            return [_positional(b) for b in out]

        if isinstance(rel, SortRel):
            inputs = self._execute_rel(rel.input, registry, bucket, keys, report)
            sort_keys = [(f"c{sf.ordinal}", sf.descending) for sf in rel.sort_fields]
            op = SortOperator(sort_keys)
            out = run_operators(inputs, [op])
            report.compute_cycles += costs.sort_cycles(op.rows_in)
            return [_positional(b) for b in out]

        if isinstance(rel, FetchRel):
            inputs = self._execute_rel(rel.input, registry, bucket, keys, report)
            if rel.offset:
                inputs = run_operators(inputs, [_OffsetTrim(rel.offset)])
            op = LimitOperator(rel.count)
            return [_positional(b) for b in run_operators(inputs, [op])]

        raise OcsPlanRejectedError(f"unsupported relation {type(rel).__name__}")

    def _execute_read(
        self,
        rel: ReadRel,
        registry: FunctionRegistry,
        bucket: str,
        keys: Sequence[str],
        report: OcsCostReport,
        filter_op: Optional[FilterOperator] = None,
    ) -> List[RecordBatch]:
        """Decode the surviving row groups, filtered by ``filter_op`` if given.

        With a filter each row group is decoded in two steps: the columns
        the condition reads, for every row, then the other columns only
        at the rows it keeps.  Decode is charged per value materialised.
        """
        costs = self.costs
        columns = rel.output_names()
        bounds = {}
        if rel.best_effort_filter is not None:
            lowered = lower_expression(
                rel.best_effort_filter, rel.output_types(), registry
            )
            raw_bounds = _extract_range_bounds(lowered)
            # Bounds are keyed by positional name; map back to real names.
            for pos_name, bound in raw_bounds.items():
                ordinal = int(pos_name[1:])
                bounds[columns[ordinal]] = bound
        if filter_op is not None:
            refs = filter_op.predicate.column_refs()
            # A condition reading no column is evaluated beside the first.
            read_first = [i for i in range(len(columns)) if f"c{i}" in refs] or list(
                range(len(columns))
            )[:1]

        out: List[RecordBatch] = []
        for key in keys:
            obj = self.store.bucket(bucket).get(key)
            # Each stored object's footer is parsed once, on first read.
            reader = ParcelReader(obj.data, obj.footer)
            obj.footer = reader.meta
            for name in columns:
                if name not in reader.schema:
                    raise OcsPlanRejectedError(
                        f"object {key!r} lacks column {name!r}"
                    )
            for rg_index in range(reader.num_row_groups):
                pruned = False
                for column, (low, high) in bounds.items():
                    stats = reader.row_group_stats(rg_index, column)
                    if not stats.range_may_overlap(low, high):
                        pruned = True
                        break
                if pruned:
                    report.row_groups_pruned += 1
                    continue
                report.row_groups_read += 1
                if filter_op is None:
                    batch = _positional(reader.read_row_group(rg_index, columns))
                    rows = batch.num_rows
                    decoded = rows * len(columns)
                else:
                    batch, rows = self._read_filtered(
                        reader, rg_index, columns, read_first, filter_op
                    )
                    decoded = rows * len(read_first) + batch.num_rows * (
                        len(columns) - len(read_first)
                    )
                stored = reader.chunk_bytes(rg_index, columns)
                uncompressed = reader.uncompressed_chunk_bytes(rg_index, columns)
                codec = reader.meta.row_groups[rg_index].chunks[0].codec
                report.stored_bytes_read += stored
                report.uncompressed_bytes += uncompressed
                report.scan_cycles += (
                    stored * costs.ocs_scan_cycles_per_stored_byte
                    + decoded * costs.ocs_decode_cycles_per_value
                )
                report.decompress_cycles += costs.decompress_cycles(codec, uncompressed)
                report.rows_scanned += rows
                out.append(batch)
        if not out:
            schema = Schema(
                [Field(f"c{i}", t) for i, t in enumerate(rel.output_types())]
            )
            out.append(RecordBatch.empty(schema))
        return out

    @staticmethod
    def _read_filtered(
        reader: ParcelReader,
        rg_index: int,
        columns: Sequence[str],
        read_first: Sequence[int],
        filter_op: FilterOperator,
    ) -> Tuple[RecordBatch, int]:
        """One row group through ``filter_op``: (kept rows, rows scanned).

        The ``read_first`` columns (by ordinal) are decoded in full and
        the condition evaluated on them; the others are decoded only at
        the positions it keeps.
        """
        fields = [
            Field(f"c{i}", f.dtype, f.nullable)
            for i, f in enumerate(reader.schema.select(columns))
        ]
        head = reader.read_row_group(rg_index, [columns[i] for i in read_first])
        head = RecordBatch(Schema([fields[i] for i in read_first]), head.columns)
        keep = np.flatnonzero(filter_op.mask(head))
        filter_op.rows_in += head.num_rows
        filter_op.rows_out += len(keep)
        read_later = [i for i in range(len(columns)) if i not in read_first]
        tail = reader.read_row_group(rg_index, [columns[i] for i in read_later], keep)
        kept = dict(zip(read_first, head.take(keep).columns))
        kept.update(zip(read_later, tail.columns))
        batch = RecordBatch(Schema(fields), [kept[i] for i in range(len(columns))])
        return batch, head.num_rows

    def _execute_aggregate(
        self,
        rel: AggregateRel,
        registry: FunctionRegistry,
        bucket: str,
        keys: Sequence[str],
        report: OcsCostReport,
    ) -> List[RecordBatch]:
        from repro.exec.aggregates import grouped_aggregate, global_aggregate

        costs = self.costs
        inputs = self._execute_rel(rel.input, registry, bucket, keys, report)
        types = rel.input.output_types()
        batch = concat_batches(inputs)

        # Materialize measure arguments as extra columns.
        specs: List[AggregateSpec] = []
        extra_fields: List[Field] = []
        extra_columns = []
        phase = rel.measures[0].phase if rel.measures else "single"
        arg_nodes = 0
        for j, measure in enumerate(rel.measures):
            arg_name = None
            input_dtype = None
            if measure.args:
                expr = lower_expression(measure.args[0], types, registry)
                arg_nodes += expr.node_count()
                arg_name = f"$m{j}_arg"
                input_dtype = expr.dtype
                extra_fields.append(Field(arg_name, expr.dtype))
                extra_columns.append(expr.evaluate(batch))
            specs.append(
                AggregateSpec(
                    func=measure.function,
                    arg=arg_name,
                    output=f"$m{j}",
                    input_dtype=input_dtype,
                    distinct=measure.distinct,
                )
            )
        if extra_columns:
            batch = RecordBatch(
                Schema(list(batch.schema.fields) + extra_fields),
                batch.columns + extra_columns,
            )

        key_names = [f"c{i}" for i in rel.grouping]
        if key_names:
            result = grouped_aggregate(batch, key_names, specs, phase=phase)
        else:
            result = global_aggregate(batch, specs, phase=phase)

        report.compute_cycles += batch.num_rows * (
            costs.group_hash_cycles_per_row
            + len(specs) * costs.agg_update_cycles_per_row_per_func
            + arg_nodes * costs.vector_op_cycles_per_value
        )
        return [_positional(result)]


class _OffsetTrim(LimitOperator):
    """Drop the first N rows (FetchRel offset support)."""

    name = "offset"

    def __init__(self, offset: int) -> None:
        super().__init__(offset)
        self._dropping = offset

    def _process(self, batch: RecordBatch):
        if self._dropping <= 0:
            return batch
        if batch.num_rows <= self._dropping:
            self._dropping -= batch.num_rows
            return None
        out = batch.slice(self._dropping, batch.num_rows - self._dropping)
        self._dropping = 0
        return out
