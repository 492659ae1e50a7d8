"""Per-chunk column statistics: min/max, null count, NDV.

These are the numbers the Presto-OCS connector's selectivity analyzer
feeds on: min/max bound range-filter selectivity, NDV bounds aggregation
output cardinality, and row counts give reduction ratios (paper
Section 4).  Statistics are computed exactly at write time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, List, Optional

import numpy as np

from repro.arrowsim.array import ColumnArray
from repro.arrowsim.buffers import str_items
from repro.arrowsim.dtypes import BOOL, DataType, STRING
from repro.wire import Reader

__all__ = ["ColumnStats", "Distinct"]


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a fixed-width array (NaN last, once).

    One ``np.sort`` and a neighbour comparison — what ``np.unique`` does
    on its sort path, without the hash-table path newer numpy takes for
    integers, which is 10-20x slower on high-cardinality chunks.
    """
    ordered = np.sort(values)
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    if len(ordered) and ordered.dtype.kind == "f" and np.isnan(ordered[-1]):
        # NaN != NaN kept every NaN; searchsorted orders NaN like the sort did.
        keep[np.searchsorted(ordered, np.nan) + 1 :] = False
    return ordered[keep]


class Distinct:
    """The distinct values of one column chunk — its one sort (or one set).

    Statistics and encoding choice both start from here: ``ndv``/``min``/
    ``max`` read it, the DICT eligibility test reads its size, and a DICT
    encoding uses it as the dictionary.

    ``every`` covers every slot, NULL slots included (the encoder stores
    those too); ``valid`` is the part held by non-NULL rows — the same
    object when the chunk has no NULLs.  Fixed-width columns hold sorted
    arrays (NaN last, once; ``-0.0 == 0.0`` once), string columns hold
    sets of ``str`` (only a DICT encoding needs them sorted).
    """

    __slots__ = ("every", "valid", "codes")

    def __init__(self, column: ColumnArray, items: Optional[List[str]] = None) -> None:
        #: Position of each slot's value in ``every``; fixed-width chunks
        #: with NULLs only (a DICT encoding of such a chunk reuses it).
        self.codes: Optional[np.ndarray] = None
        validity = column.validity
        if column.dtype is STRING:
            if items is None:
                items = str_items(column.values)
            if validity is None:
                self.every = self.valid = set(items)
            else:
                self.valid = set(str_items(column.values[validity]))
                self.every = self.valid.union(str_items(column.values[~validity]))
            return
        self.every = self.valid = _sorted_distinct(column.values)
        if validity is not None:
            self.codes = np.searchsorted(self.every, column.values)
            present = np.zeros(len(self.every), dtype=bool)
            present[self.codes[validity]] = True
            self.valid = self.every[present]


@dataclass(frozen=True)
class ColumnStats:
    """Summary of one column chunk (or a merge across chunks)."""

    row_count: int
    null_count: int
    #: Exact number of distinct non-null values at write time; merged
    #: stats keep the max-per-chunk lower bound and the sum upper bound's
    #: min — we store the conservative sum-capped estimate.
    ndv: int
    min_value: Optional[Any]
    max_value: Optional[Any]

    @classmethod
    def compute(
        cls, column: ColumnArray, distinct: Optional[Distinct] = None
    ) -> "ColumnStats":
        """Exact statistics over a column's non-null values.

        ``distinct`` hands over an analysis the caller already paid for.
        """
        row_count = len(column)
        null_count = column.null_count
        if null_count == row_count:
            return cls(row_count, null_count, 0, None, None)
        valid = (distinct if distinct is not None else Distinct(column)).valid
        ndv = len(valid)
        if column.dtype is STRING:
            return cls(row_count, null_count, ndv, min(valid), max(valid))
        if column.dtype.is_floating:
            # Bounds by reduction over the rows, not from ``valid``: which
            # sign a zero bound carries is the reduction's choice, and the
            # sort collapsed the two zeros.
            values = column.values
            if column.validity is not None:
                values = values[column.validity]
            if np.isnan(valid[-1]):
                values = values[~np.isnan(values)]
                if len(values) == 0:
                    return cls(row_count, null_count, 1, None, None)
            return cls(
                row_count, null_count, ndv, float(values.min()), float(values.max())
            )
        return cls(row_count, null_count, ndv, valid[0].item(), valid[-1].item())

    def merge(self, other: "ColumnStats") -> "ColumnStats":
        """Combine chunk stats into table-level stats (NDV is an upper bound)."""
        def opt_min(a, b):
            if a is None:
                return b
            if b is None:
                return a
            return min(a, b)

        def opt_max(a, b):
            if a is None:
                return b
            if b is None:
                return a
            return max(a, b)

        return ColumnStats(
            row_count=self.row_count + other.row_count,
            null_count=self.null_count + other.null_count,
            ndv=max(self.ndv, other.ndv, min(self.ndv + other.ndv, self.row_count + other.row_count)),
            min_value=opt_min(self.min_value, other.min_value),
            max_value=opt_max(self.max_value, other.max_value),
        )

    # -- range overlap (used for row-group pruning) -------------------------

    def range_may_overlap(self, low: Optional[Any], high: Optional[Any]) -> bool:
        """Could any value in this chunk fall within [low, high]?"""
        if self.min_value is None or self.max_value is None:
            # No bounds recorded (all null / all NaN): cannot prune.
            return self.row_count > self.null_count
        if low is not None and self.max_value < low:
            return False
        if high is not None and self.min_value > high:
            return False
        return True


# --------------------------------------------------------------------------
# Binary serde for stats values (dtype-tagged)
# --------------------------------------------------------------------------


def encode_stat_value(dtype: DataType, value: Optional[Any]) -> bytes:
    """Serialize one min/max bound; None encodes as absent."""
    if value is None:
        return b"\x00"
    if dtype is STRING:
        data = str(value).encode("utf-8")
        return b"\x01" + struct.pack("<I", len(data)) + data
    if dtype.is_floating:
        return b"\x01" + struct.pack("<d", float(value))
    return b"\x01" + struct.pack("<q", int(value))


def decode_stat_value(dtype: DataType, reader: Reader) -> Optional[Any]:
    """Inverse of :func:`encode_stat_value` at the cursor."""
    flag = reader.u8()
    if flag == 0:
        return None
    if flag != 1:
        reader.fail(f"bad stat value flag {flag}")
    if dtype is STRING:
        return reader.text(reader.u32())
    if dtype.is_floating:
        return reader.f64()
    value = reader.i64()
    return bool(value) if dtype is BOOL else value
