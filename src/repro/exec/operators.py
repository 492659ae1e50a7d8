"""Page-at-a-time vectorized operators.

Each operator consumes :class:`RecordBatch` pages via ``process`` and
emits any buffered remainder from ``finish`` — the classic push-based
pipeline.  Operators count rows in/out; the engines read those counters
to charge simulated CPU and the connector's EventListener reads them for
pushdown monitoring.

Sorting uses rank codes per key (strings by lexicographic rank, floats by
IEEE-754 total order) so multi-key ASC/DESC sorts are a single stable
``np.lexsort``.  NULLs sort last in both directions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrowsim.array import ColumnArray
from repro.arrowsim.record_batch import RecordBatch, concat_batches
from repro.arrowsim.schema import Field, Schema
from repro.errors import ExecutionError
from repro.exec.aggregates import AggregateSpec, grouped_aggregate
from repro.exec.expressions import Expr, positive_zero

__all__ = [
    "Operator",
    "ProjectOperator",
    "FilterOperator",
    "HashAggregationOperator",
    "HashJoinOperator",
    "SortOperator",
    "TopNOperator",
    "LimitOperator",
    "sort_indices",
    "run_operators",
]

SortKey = Tuple[str, bool]  # (column name, descending)


def _sortable_bits(values: np.ndarray) -> np.ndarray:
    """Map floats to uint64 whose unsigned order is IEEE total order."""
    if values.dtype == np.float32:
        bits = np.ascontiguousarray(values).view(np.uint32).astype(np.uint64)
        sign = np.uint64(1) << np.uint64(31)
        full = np.uint64(0xFFFFFFFF)
    else:
        bits = np.ascontiguousarray(values.astype(np.float64)).view(np.uint64)
        sign = np.uint64(1) << np.uint64(63)
        full = np.uint64(0xFFFFFFFFFFFFFFFF)
    negative = (bits & sign) != 0
    return np.where(negative, full - bits, bits | sign)


def _rank_codes(col: ColumnArray) -> np.ndarray:
    """Dense int64 ranks whose order matches the column's sort order."""
    values = col.values
    if col.dtype.name == "string":
        values = values.astype(str)
    elif col.dtype.is_floating:
        values = _sortable_bits(values)
    _, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.int64).reshape(-1)


def sort_indices(batch: RecordBatch, sort_keys: Sequence[SortKey]) -> np.ndarray:
    """Stable argsort by multiple keys; NULLs last regardless of direction."""
    if not sort_keys:
        raise ExecutionError("sort requires at least one key")
    arrays = []
    big = np.iinfo(np.int64).max
    for name, descending in sort_keys:
        col = batch.column(name)
        codes = _rank_codes(col)
        if descending:
            codes = -codes
        null_mask = ~col.is_valid()
        if null_mask.any():
            codes = np.where(null_mask, big, codes)
        arrays.append(codes)
    # np.lexsort treats the LAST key as primary.
    return np.lexsort(list(reversed(arrays)))


class Operator:
    """Base push-based operator with row accounting."""

    name = "operator"

    def __init__(self) -> None:
        self.rows_in = 0
        self.rows_out = 0

    def process(self, batch: RecordBatch) -> Optional[RecordBatch]:
        """Consume one page; return an output page or None (buffered)."""
        self.rows_in += batch.num_rows
        out = self._process(batch)
        if out is not None:
            self.rows_out += out.num_rows
        return out

    def finish(self) -> Optional[RecordBatch]:
        """Flush any buffered output at end of stream."""
        out = self._finish()
        if out is not None:
            self.rows_out += out.num_rows
        return out

    def _process(self, batch: RecordBatch) -> Optional[RecordBatch]:  # pragma: no cover
        raise NotImplementedError

    def _finish(self) -> Optional[RecordBatch]:
        return None


class ProjectOperator(Operator):
    """Evaluate named expressions into a new page (column & expression project)."""

    name = "project"

    def __init__(self, projections: Sequence[Tuple[str, Expr]]) -> None:
        super().__init__()
        if not projections:
            raise ExecutionError("projection needs at least one expression")
        self.projections = list(projections)

    @property
    def expression_node_count(self) -> int:
        """Total expression-tree size (drives per-row CPU cost)."""
        return sum(expr.node_count() for _, expr in self.projections)

    def output_schema(self) -> Schema:
        return Schema([Field(name, expr.dtype) for name, expr in self.projections])

    def _process(self, batch: RecordBatch) -> RecordBatch:
        columns = [expr.evaluate(batch) for _, expr in self.projections]
        return RecordBatch(self.output_schema(), columns)


class FilterOperator(Operator):
    """Keep rows whose predicate is definitely TRUE (SQL 3VL at WHERE)."""

    name = "filter"

    def __init__(self, predicate: Expr) -> None:
        super().__init__()
        if predicate.dtype.name != "bool":
            raise ExecutionError(
                f"filter predicate must be boolean, got {predicate.dtype}"
            )
        self.predicate = predicate

    def _process(self, batch: RecordBatch) -> RecordBatch:
        result = self.predicate.evaluate(batch)
        mask = result.values.astype(bool) & result.is_valid()
        return batch.filter(mask)


class HashAggregationOperator(Operator):
    """GROUP BY aggregation (single / partial / final phase)."""

    name = "aggregate"

    def __init__(
        self,
        key_names: Sequence[str],
        specs: Sequence[AggregateSpec],
        phase: str = "single",
    ) -> None:
        super().__init__()
        self.key_names = list(key_names)
        self.specs = list(specs)
        self.phase = phase
        self._pages: List[RecordBatch] = []

    def _process(self, batch: RecordBatch) -> None:
        self._pages.append(batch)
        return None

    def _finish(self) -> Optional[RecordBatch]:
        if not self._pages:
            return None
        merged = concat_batches(self._pages)
        self._pages.clear()
        return grouped_aggregate(merged, self.key_names, self.specs, phase=self.phase)


class HashJoinOperator(Operator):
    """Vectorized equi-join: build on the right input, probe with the left.

    ``add_build`` accepts the (smaller / broadcast / co-partitioned) right
    side; ``process`` then streams left pages through.  Matching is exact:
    per probe page the build and probe key columns are dictionary-encoded
    together (``np.unique`` over their concatenation) and matched with a
    sorted-codes ``searchsorted``, so there are no hash-collision false
    positives.  Rows whose key is NULL never match (SQL equi-join
    semantics); a LEFT join emits unmatched probe rows with NULL-extended
    build columns.  Output rows stay in probe order (build duplicates in
    build order), which keeps multi-stage replays byte-identical.

    ``"semi"`` emits each probe row at most once when a build match
    exists; ``"anti"`` emits exactly the probe rows with *no* build match
    (NOT EXISTS semantics: a NULL probe key never matches, so it *is*
    emitted by anti).  Both publish the probe schema unchanged — no
    build column is materialized.
    """

    name = "hashjoin"

    def __init__(
        self,
        kind: str,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        right_schema: Schema,
        right_renames: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__()
        if kind not in ("inner", "left", "semi", "anti"):
            raise ExecutionError(f"unsupported join kind {kind!r}")
        if not left_keys or len(left_keys) != len(right_keys):
            raise ExecutionError("join needs positionally paired key columns")
        self.kind = kind
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.right_schema = right_schema
        self.right_renames = dict(right_renames or {})
        self.build_rows = 0
        self._build_pages: List[RecordBatch] = []
        self._build: Optional[RecordBatch] = None

    # -- build side ----------------------------------------------------------

    def add_build(self, batch: RecordBatch) -> None:
        if self._build is not None:
            raise ExecutionError("build side already finished")
        self.build_rows += batch.num_rows
        self._build_pages.append(batch)

    def finish_build(self) -> None:
        if self._build is not None:
            return
        if self._build_pages:
            self._build = concat_batches(self._build_pages)
        else:
            self._build = RecordBatch.empty(self.right_schema)
        self._build_pages.clear()

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _comparable(col: ColumnArray) -> np.ndarray:
        values = col.values
        if col.dtype.name == "string":
            return values.astype(str)
        if col.dtype.is_floating:
            return _sortable_bits(positive_zero(values))
        return values

    def _key_codes(
        self, probe: RecordBatch
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Joint dictionary codes for build/probe keys; NULL keys -> -1."""
        assert self._build is not None
        build = self._build
        nb, npr = build.num_rows, probe.num_rows
        build_codes = np.zeros(nb, dtype=np.int64)
        probe_codes = np.zeros(npr, dtype=np.int64)
        build_null = np.zeros(nb, dtype=bool)
        probe_null = np.zeros(npr, dtype=bool)
        bound = 1
        int64_max = np.iinfo(np.int64).max
        for left_name, right_name in zip(self.left_keys, self.right_keys):
            bcol = build.column(right_name)
            pcol = probe.column(left_name)
            combined = np.concatenate(
                [self._comparable(bcol), self._comparable(pcol)]
            )
            uniq, inverse = np.unique(combined, return_inverse=True)
            inverse = inverse.reshape(-1).astype(np.int64)
            radix = int(len(uniq)) + 1
            if bound > int64_max // radix:
                # The mixed-radix combine would wrap int64 (several
                # high-cardinality keys): wrapped codes go negative (rows
                # silently treated as NULL keys) or collide (false matches).
                # Re-encode build+probe codes *jointly* to dense codes —
                # joint encoding preserves cross-array equality, density
                # bounds the radix by total row count.
                codes = np.concatenate([build_codes, probe_codes])
                _, dense = np.unique(codes, return_inverse=True)
                dense = dense.astype(np.int64).reshape(-1)
                build_codes, probe_codes = dense[:nb], dense[nb:]
                bound = int(dense.max()) + 1 if len(dense) else 1
            build_codes = build_codes * radix + inverse[:nb]
            probe_codes = probe_codes * radix + inverse[nb:]
            bound *= radix
            build_null |= ~bcol.is_valid()
            probe_null |= ~pcol.is_valid()
        build_codes[build_null] = -1
        probe_codes[probe_null] = -1
        return build_codes, probe_codes

    def output_schema(self, probe_schema: Schema) -> Schema:
        if self.kind in ("semi", "anti"):
            return probe_schema
        fields = list(probe_schema.fields)
        force_nullable = self.kind == "left"
        for f in self.right_schema.fields:
            fields.append(
                Field(
                    self.right_renames.get(f.name, f.name),
                    f.dtype,
                    nullable=f.nullable or force_nullable,
                )
            )
        return Schema(fields)

    # -- probe side ----------------------------------------------------------

    def _process(self, batch: RecordBatch) -> Optional[RecordBatch]:
        if self._build is None:
            self.finish_build()
        assert self._build is not None
        build = self._build
        build_codes, probe_codes = self._key_codes(batch)
        keep = build_codes >= 0
        order = np.argsort(build_codes[keep], kind="stable")
        build_index = np.flatnonzero(keep)[order]
        sorted_codes = build_codes[keep][order]
        lo = np.searchsorted(sorted_codes, probe_codes, side="left")
        hi = np.searchsorted(sorted_codes, probe_codes, side="right")
        counts = (hi - lo).astype(np.int64)
        counts[probe_codes < 0] = 0
        if self.kind in ("semi", "anti"):
            mask = counts > 0 if self.kind == "semi" else counts == 0
            return batch.take(np.flatnonzero(mask))
        if self.kind == "left":
            emit = np.maximum(counts, 1)
        else:
            emit = counts
        total = int(emit.sum())
        if total == 0:
            return RecordBatch.empty(self.output_schema(batch.schema))
        probe_idx = np.repeat(np.arange(batch.num_rows, dtype=np.int64), emit)
        starts = np.cumsum(emit) - emit
        pos_in_group = np.arange(total, dtype=np.int64) - np.repeat(starts, emit)
        matched = np.repeat(counts > 0, emit)
        build_pos = np.repeat(lo, emit) + pos_in_group
        if build_index.size:
            safe_pos = np.where(matched, build_pos, 0)
            build_idx = build_index[np.minimum(safe_pos, build_index.size - 1)]
        else:
            build_idx = np.zeros(total, dtype=np.int64)
        columns: List[ColumnArray] = list(batch.take(probe_idx).columns)
        for f in build.schema.fields:
            col = build.column(f.name)
            if build.num_rows:
                values = col.values[np.where(matched, build_idx, 0)]
                validity = col.is_valid()[np.where(matched, build_idx, 0)]
            else:
                values = f.dtype.empty_array(total)
                validity = np.zeros(total, dtype=bool)
            validity = validity & matched
            columns.append(ColumnArray(f.dtype, values, validity))
        return RecordBatch(self.output_schema(batch.schema), columns)


class SortOperator(Operator):
    """Full sort; buffers the entire input."""

    name = "sort"

    def __init__(self, sort_keys: Sequence[SortKey]) -> None:
        super().__init__()
        self.sort_keys = list(sort_keys)
        self._pages: List[RecordBatch] = []

    def _process(self, batch: RecordBatch) -> None:
        self._pages.append(batch)
        return None

    def _finish(self) -> Optional[RecordBatch]:
        if not self._pages:
            return None
        merged = concat_batches(self._pages)
        self._pages.clear()
        if merged.num_rows == 0:
            return merged
        return merged.take(sort_indices(merged, self.sort_keys))


class TopNOperator(Operator):
    """ORDER BY + LIMIT fused: keeps only the current best N rows."""

    name = "topn"

    def __init__(self, n: int, sort_keys: Sequence[SortKey]) -> None:
        super().__init__()
        if n < 0:
            raise ExecutionError(f"top-N bound must be >= 0, got {n}")
        self.n = n
        self.sort_keys = list(sort_keys)
        self._best: Optional[RecordBatch] = None

    def _process(self, batch: RecordBatch) -> None:
        if self.n == 0:
            return None
        merged = batch if self._best is None else concat_batches([self._best, batch])
        if merged.num_rows > 0:
            order = sort_indices(merged, self.sort_keys)[: self.n]
            merged = merged.take(order)
        self._best = merged
        return None

    def _finish(self) -> Optional[RecordBatch]:
        best, self._best = self._best, None
        return best


class LimitOperator(Operator):
    """Pass through the first N rows."""

    name = "limit"

    def __init__(self, n: int) -> None:
        super().__init__()
        if n < 0:
            raise ExecutionError(f"limit must be >= 0, got {n}")
        self.n = n
        self._remaining = n

    def _process(self, batch: RecordBatch) -> Optional[RecordBatch]:
        if self._remaining <= 0:
            return None
        if batch.num_rows <= self._remaining:
            self._remaining -= batch.num_rows
            return batch
        out = batch.slice(0, self._remaining)
        self._remaining = 0
        return out


def run_operators(
    batches: Sequence[RecordBatch], operators: Sequence[Operator]
) -> List[RecordBatch]:
    """Push every page through the chain, then flush finishes in order."""
    streams: List[List[RecordBatch]] = [list(batches)]
    for op in operators:
        out: List[RecordBatch] = []
        for page in streams[-1]:
            result = op.process(page)
            if result is not None:
                out.append(result)
        tail = op.finish()
        if tail is not None:
            out.append(tail)
        streams.append(out)
    return streams[-1]
