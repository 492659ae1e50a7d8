"""Vectorized hash aggregation with two-phase (partial/final) support.

Distributed execution needs aggregation split in two: each split (or each
OCS storage-node plan) produces *partial* states, and the downstream
worker merges them into *final* results — that merge is exactly the
"residual operator" the paper leaves on the compute node when aggregation
is pushed down.

Group ids are built by factorizing each key column (NULL is its own
group; float keys group by bit pattern so NaN == NaN, after -0.0 is made
+0.0 as SQL ``=`` requires) and fusing the
per-column codes with a mixed-radix combine.  Per-group reduction uses
``np.bincount`` / ``ufunc.at`` — no Python-level per-row loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.arrowsim.array import ColumnArray
from repro.arrowsim.dtypes import DataType, FLOAT64, INT64, STRING
from repro.arrowsim.record_batch import RecordBatch
from repro.arrowsim.schema import Field, Schema
from repro.errors import ExecutionError
from repro.exec.expressions import positive_zero

__all__ = ["AggregateSpec", "grouped_aggregate", "global_aggregate"]

_AGG_FUNCS = ("count", "sum", "avg", "min", "max", "variance", "stddev")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate call: ``func(arg)`` emitted as column ``output``."""

    func: str
    #: Input column name holding the (pre-projected) argument; None = COUNT(*).
    arg: Optional[str]
    output: str
    input_dtype: Optional[DataType] = None
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.func not in _AGG_FUNCS:
            raise ExecutionError(f"unknown aggregate function {self.func!r}")
        if self.func != "count" and self.arg is None:
            raise ExecutionError(f"{self.func}(*) is not defined")
        numeric = self.input_dtype is None or self.input_dtype.is_numeric
        if self.func in ("sum", "avg", "variance", "stddev") and not numeric:
            raise ExecutionError(
                f"{self.func} requires a numeric argument, got {self.input_dtype}"
            )

    @property
    def output_dtype(self) -> DataType:
        if self.func == "count":
            return INT64
        if self.func in ("avg", "variance", "stddev"):
            return FLOAT64
        if self.func == "sum":
            assert self.input_dtype is not None
            return FLOAT64 if self.input_dtype.is_floating else INT64
        assert self.input_dtype is not None
        return self.input_dtype

    def partial_fields(self) -> List[Field]:
        """Schema of this aggregate's partial state columns."""
        if self.func == "avg":
            return [
                Field(f"{self.output}$sum", FLOAT64),
                Field(f"{self.output}$count", INT64, nullable=False),
            ]
        if self.func in ("variance", "stddev"):
            return [
                Field(f"{self.output}$sum", FLOAT64),
                Field(f"{self.output}$sumsq", FLOAT64),
                Field(f"{self.output}$count", INT64, nullable=False),
            ]
        if self.func == "count":
            return [Field(self.output, INT64, nullable=False)]
        return [Field(self.output, self.output_dtype)]


# --------------------------------------------------------------------------
# Group-id construction
# --------------------------------------------------------------------------


def _factorize(col: ColumnArray) -> Tuple[np.ndarray, int]:
    """Dense codes per row; NULL gets its own code. Returns (codes, size)."""
    values = col.values
    if col.dtype is STRING:
        values = values.astype(str)
    elif col.dtype.is_floating:
        # Bit-pattern identity: NaNs with equal bits share a group, and
        # -0.0 joins +0.0's group because SQL ``=`` holds them equal.
        bits = np.uint64 if values.dtype == np.float64 else np.uint32
        values = positive_zero(values, values.dtype).view(bits)
    _, codes = np.unique(values, return_inverse=True)
    codes = codes.astype(np.int64).reshape(-1)
    size = int(codes.max()) + 1 if len(codes) else 0
    if col.validity is not None:
        codes = codes.copy()
        codes[~col.validity] = size
        size += 1
    return codes, max(size, 1)


_INT64_MAX = np.iinfo(np.int64).max


def _combine_codes(
    combined: np.ndarray, bound: int, codes: np.ndarray, size: int
) -> Tuple[np.ndarray, int]:
    """Mixed-radix fuse of one more key column, with overflow protection.

    ``combined`` holds codes in ``[0, bound)``.  ``combined * size + codes``
    silently wraps int64 once the running radix product exceeds 2**63 —
    several high-cardinality keys can then merge distinct groups (or go
    negative).  When the next step would overflow, re-factorize ``combined``
    to dense codes first; density bounds the new radix by the row count, so
    the product stays representable.
    """
    size = max(size, 1)
    if bound > _INT64_MAX // size:
        _, combined = np.unique(combined, return_inverse=True)
        combined = combined.astype(np.int64).reshape(-1)
        bound = int(combined.max()) + 1 if len(combined) else 1
        if bound > _INT64_MAX // size:  # pragma: no cover - needs >3e9 rows
            raise ExecutionError("group-key cardinality overflows int64 radix")
    return combined * size + codes, bound * size


def _group_rows(
    batch: RecordBatch, key_names: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray, int]:
    """(group id per row, representative row per group, group count)."""
    combined = np.zeros(batch.num_rows, dtype=np.int64)
    bound = 1
    for name in key_names:
        codes, size = _factorize(batch.column(name))
        combined, bound = _combine_codes(combined, bound, codes, size)
    _, first_idx, inverse = np.unique(combined, return_index=True, return_inverse=True)
    return inverse.reshape(-1), first_idx, len(first_idx)


# --------------------------------------------------------------------------
# Per-aggregate reduction kernels
# --------------------------------------------------------------------------


def _dedup_for_distinct(
    gids: np.ndarray, col: ColumnArray
) -> Tuple[np.ndarray, ColumnArray]:
    """Keep one row per (group, value) pair, dropping NULLs."""
    valid = col.is_valid()
    codes, size = _factorize(col)
    bound = int(gids.max()) + 1 if len(gids) else 1
    pair, _ = _combine_codes(gids, bound, codes, size)
    _, keep = np.unique(pair, return_index=True)
    keep = keep[valid[keep]]
    return gids[keep], col.take(keep)


def _reduce_count(gids: np.ndarray, ngroups: int, col: Optional[ColumnArray]) -> Tuple[np.ndarray, None]:
    if col is None:
        counts = np.bincount(gids, minlength=ngroups)
    else:
        valid = col.is_valid()
        counts = np.bincount(gids[valid], minlength=ngroups)
    return counts.astype(np.int64), None


def _reduce_sum(
    gids: np.ndarray, ngroups: int, col: ColumnArray, out_dtype: DataType
) -> Tuple[np.ndarray, np.ndarray]:
    valid = col.is_valid()
    acc = np.zeros(ngroups, dtype=out_dtype.numpy_dtype)
    np.add.at(acc, gids[valid], col.values[valid].astype(out_dtype.numpy_dtype))
    seen = np.bincount(gids[valid], minlength=ngroups) > 0
    return acc, seen


def _reduce_minmax(
    gids: np.ndarray, ngroups: int, col: ColumnArray, func: str
) -> Tuple[np.ndarray, np.ndarray]:
    valid = col.is_valid()
    seen = np.bincount(gids[valid], minlength=ngroups) > 0
    if col.dtype is STRING:
        idx = np.flatnonzero(valid)
        out = np.empty(ngroups, dtype=object)
        out[:] = ""
        if len(idx):
            order = np.lexsort((col.values[idx].astype(str), gids[idx]))
            sorted_gids = gids[idx][order]
            uniq, first = np.unique(sorted_gids, return_index=True)
            if func == "min":
                chosen = first
            else:
                # Last occurrence per group = next group's first - 1.
                boundaries = np.append(first[1:], len(sorted_gids))
                chosen = boundaries - 1
            out[uniq] = col.values[idx][order][chosen]
        return out, seen
    np_dtype = col.dtype.numpy_dtype
    if col.dtype.is_floating:
        init = np.inf if func == "min" else -np.inf
    elif np_dtype == np.bool_:
        init = True if func == "min" else False
    else:
        info = np.iinfo(np_dtype)
        init = info.max if func == "min" else info.min
    acc = np.full(ngroups, init, dtype=np_dtype)
    ufunc = np.minimum if func == "min" else np.maximum
    values = col.values[valid]
    if col.dtype.is_floating:
        # NaN poisons ufunc.at reductions; SQL min/max ignore NaN order
        # issues by treating NaN as largest — drop NaNs like NULLs here.
        keep = ~np.isnan(values)
        ufunc.at(acc, gids[valid][keep], values[keep])
        seen = np.zeros(ngroups, dtype=bool)
        counted = np.bincount(gids[valid][keep], minlength=ngroups)
        seen = counted > 0
    else:
        ufunc.at(acc, gids[valid], values)
    return acc, seen


# --------------------------------------------------------------------------
# Phase drivers
# --------------------------------------------------------------------------


def _aggregate_states(
    batch: RecordBatch,
    gids: np.ndarray,
    ngroups: int,
    specs: Sequence[AggregateSpec],
    phase: str,
) -> Tuple[List[Field], List[ColumnArray]]:
    fields: List[Field] = []
    columns: List[ColumnArray] = []
    for spec in specs:
        col = (
            batch.column(spec.arg)
            if spec.arg is not None and phase != "final"
            else None
        )
        g = gids
        if spec.distinct and col is not None and phase in ("single", "partial"):
            g, col = _dedup_for_distinct(gids, col)

        if spec.func == "count":
            if phase == "final":
                # Partial counts are summed, not re-counted.
                acc, _ = _reduce_sum(g, ngroups, batch.column(spec.output), INT64)
                values, seen = acc, None
            else:
                values, seen = _reduce_count(g, ngroups, col)
            emit_dtype = INT64
        elif spec.func == "sum":
            source = col if phase != "final" else batch.column(spec.output)
            assert source is not None
            values, seen = _reduce_sum(g, ngroups, source, spec.output_dtype)
            emit_dtype = spec.output_dtype
        elif spec.func in ("min", "max"):
            source = col if phase != "final" else batch.column(spec.output)
            assert source is not None
            values, seen = _reduce_minmax(g, ngroups, source, spec.func)
            emit_dtype = spec.output_dtype
        elif spec.func == "avg":
            if phase == "final":
                sums, seen_s = _reduce_sum(
                    g, ngroups, batch.column(f"{spec.output}$sum"), FLOAT64
                )
                counts, _ = _reduce_sum(
                    g, ngroups, batch.column(f"{spec.output}$count"), INT64
                )
            else:
                assert col is not None
                sums, seen_s = _reduce_sum(g, ngroups, col, FLOAT64)
                counts, _ = _reduce_count(g, ngroups, col)
            if phase in ("single", "final"):
                with np.errstate(invalid="ignore", divide="ignore"):
                    values = sums / np.maximum(counts, 1)
                seen = counts > 0
                emit_dtype = FLOAT64
            else:  # partial: emit the two state columns
                fields.append(Field(f"{spec.output}$sum", FLOAT64))
                columns.append(ColumnArray(FLOAT64, sums, seen_s))
                fields.append(Field(f"{spec.output}$count", INT64, nullable=False))
                columns.append(ColumnArray(INT64, counts))
                continue
        else:  # variance / stddev: (sum, sum of squares, count) state
            if phase == "final":
                sums, seen_s = _reduce_sum(
                    g, ngroups, batch.column(f"{spec.output}$sum"), FLOAT64
                )
                sumsqs, _ = _reduce_sum(
                    g, ngroups, batch.column(f"{spec.output}$sumsq"), FLOAT64
                )
                counts, _ = _reduce_sum(
                    g, ngroups, batch.column(f"{spec.output}$count"), INT64
                )
            else:
                assert col is not None
                sums, seen_s = _reduce_sum(g, ngroups, col, FLOAT64)
                valid = col.is_valid()
                squared = ColumnArray(
                    FLOAT64, col.values.astype(np.float64) ** 2, col.validity
                )
                sumsqs, _ = _reduce_sum(g, ngroups, squared, FLOAT64)
                counts, _ = _reduce_count(g, ngroups, col)
            if phase in ("single", "final"):
                # Sample variance (Presto semantics): needs count >= 2.
                with np.errstate(invalid="ignore", divide="ignore"):
                    n = np.maximum(counts, 1).astype(np.float64)
                    mean = sums / n
                    values = (sumsqs - n * mean * mean) / np.maximum(n - 1, 1)
                    values = np.maximum(values, 0.0)  # clamp float cancellation
                    if spec.func == "stddev":
                        values = np.sqrt(values)
                seen = counts > 1
                emit_dtype = FLOAT64
            else:  # partial: emit the three state columns
                fields.append(Field(f"{spec.output}$sum", FLOAT64))
                columns.append(ColumnArray(FLOAT64, sums, seen_s))
                fields.append(Field(f"{spec.output}$sumsq", FLOAT64))
                columns.append(ColumnArray(FLOAT64, sumsqs, seen_s))
                fields.append(Field(f"{spec.output}$count", INT64, nullable=False))
                columns.append(ColumnArray(INT64, counts))
                continue

        validity = seen if seen is not None and not bool(np.all(seen)) else None
        # Nullability must not depend on the data seen in this batch, or
        # partial states from different splits would disagree on schema.
        fields.append(Field(spec.output, emit_dtype, nullable=spec.func != "count"))
        columns.append(ColumnArray(emit_dtype, values, validity))
    return fields, columns


def grouped_aggregate(
    batch: RecordBatch,
    key_names: Sequence[str],
    specs: Sequence[AggregateSpec],
    phase: str = "single",
) -> RecordBatch:
    """GROUP BY aggregation over one batch.

    ``phase``: "single" (complete), "partial" (emit mergeable states), or
    "final" (merge partial states — ``batch`` holds state columns).
    """
    if phase not in ("single", "partial", "final"):
        raise ExecutionError(f"unknown aggregation phase {phase!r}")
    if not key_names:
        return global_aggregate(batch, specs, phase=phase)
    gids, first_idx, ngroups = _group_rows(batch, key_names)
    key_fields = [batch.schema.field(n) for n in key_names]
    key_columns = [batch.column(n).take(first_idx) for n in key_names]
    agg_fields, agg_columns = _aggregate_states(batch, gids, ngroups, specs, phase)
    return RecordBatch(
        Schema(key_fields + agg_fields), key_columns + agg_columns
    )


def global_aggregate(
    batch: RecordBatch, specs: Sequence[AggregateSpec], phase: str = "single"
) -> RecordBatch:
    """Aggregation without GROUP BY: always exactly one output row."""
    gids = np.zeros(batch.num_rows, dtype=np.int64)
    fields, columns = _aggregate_states(batch, gids, 1, specs, phase)
    return RecordBatch(Schema(fields), columns)
