"""Dynamic join filters: min/max range + Bloom filter over build keys.

PushdownDB's bloom-join and Presto's dynamic filtering both hinge on the
same move: once the build side of a join has been read, the set of join
keys it produced is a *data-dependent* predicate on the probe side.  The
coordinator publishes that predicate as a :class:`DynamicFilter` — a
min/max range plus a :class:`BloomFilter` — and the connector folds it
into the probe scan's pushed Substrait filter, so storage nodes prune
probe rows before they are ever shuffled.

:class:`BloomProbeExpr` is the evaluable expression form: it rides the
normal expression pipeline (and its Substrait twin ``SBloomProbe`` rides
the wire), so the embedded engine needs no special casing to apply it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.arrowsim.array import ColumnArray
from repro.arrowsim.dtypes import BOOL, DataType
from repro.arrowsim.record_batch import RecordBatch
from repro.errors import JoinError
from repro.exec.expressions import (
    AndExpr,
    ColumnExpr,
    CompareExpr,
    Expr,
    LiteralExpr,
)
from repro.exchange.hashing import hash_column, mix64

__all__ = [
    "BloomFilter",
    "BloomProbeExpr",
    "DynamicFilter",
    "DynamicFilterHandshake",
    "build_dynamic_filter",
]

#: Bits budgeted per distinct build key (~1% false-positive rate at k=6).
BLOOM_BITS_PER_KEY = 10
#: Number of probe positions per membership test.
BLOOM_HASH_COUNT = 6
#: Smallest filter ever built, so tiny build sides still behave.
BLOOM_MIN_BITS = 1024


@dataclass(frozen=True)
class BloomFilter:
    """An immutable Bloom filter over 64-bit value hashes.

    ``bits`` is held as ``bytes`` (not an ndarray) so the filter is
    hashable and can live inside frozen expression nodes; ``num_bits``
    is always a power of two so probe positions reduce with a mask.
    """

    bits: bytes
    num_bits: int
    hashes: int

    @classmethod
    def build(cls, column: ColumnArray) -> "BloomFilter":
        """Size for the column's distinct values and populate."""
        hashed = np.unique(hash_column(column)[column.is_valid()])
        target = max(BLOOM_MIN_BITS, BLOOM_BITS_PER_KEY * max(1, len(hashed)))
        num_bits = 1 << int(target - 1).bit_length()
        # One boolean bitmap, packed little-endian: bit ``p`` lands in
        # byte ``p >> 3`` at bit ``p & 7``.
        bitmap = np.zeros(num_bits, dtype=bool)
        for position in cls._positions(hashed, num_bits):
            bitmap[position] = True
        bits = np.packbits(bitmap, bitorder="little").tobytes()
        return cls(bits=bits, num_bits=num_bits, hashes=BLOOM_HASH_COUNT)

    @staticmethod
    def _positions(hashed: np.ndarray, num_bits: int) -> "list[np.ndarray]":
        """The k probe positions per hash (double hashing, mask reduce)."""
        mask = np.uint64(num_bits - 1)
        h1 = hashed
        h2 = mix64(hashed ^ np.uint64(0xA076_1D64_78BD_642F)) | np.uint64(1)
        return [
            ((h1 + np.uint64(i) * h2) & mask) for i in range(BLOOM_HASH_COUNT)
        ]

    def contains_hashes(self, hashed: np.ndarray) -> np.ndarray:
        """Vectorized membership test over pre-hashed values."""
        array = np.frombuffer(self.bits, dtype=np.uint8)
        mask = np.uint64(self.num_bits - 1)
        h1 = hashed
        h2 = mix64(hashed ^ np.uint64(0xA076_1D64_78BD_642F)) | np.uint64(1)
        member = np.ones(len(hashed), dtype=bool)
        for i in range(self.hashes):
            position = (h1 + np.uint64(i) * h2) & mask
            member &= (
                array[position >> 3] >> (position & np.uint64(7)).astype(np.uint8)
            ) & 1 == 1
        return member

    def contains(self, column: ColumnArray) -> np.ndarray:
        """Membership mask for a column (NULL rows test as not-member)."""
        member = self.contains_hashes(hash_column(column))
        if column.validity is not None:
            member &= column.validity
        return member

    @property
    def fill_fraction(self) -> float:
        array = np.frombuffer(self.bits, dtype=np.uint8)
        return float(np.unpackbits(array).sum()) / self.num_bits


@dataclass(frozen=True)
class BloomProbeExpr(Expr):
    """``bloom_contains(operand)`` — membership in a build-side Bloom filter.

    Evaluates to BOOL per row; NULL operands evaluate to not-member
    (a join key that is NULL can never match, so pruning it is safe for
    the inner and probe-preserving joins this engine plans).
    """

    operand: Expr
    bloom: BloomFilter
    dtype: DataType = BOOL

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def evaluate(self, batch: RecordBatch) -> ColumnArray:
        column = self.operand.evaluate(batch)
        return ColumnArray(BOOL, self.bloom.contains(column))

    def __repr__(self) -> str:
        return (
            f"bloom_contains({self.operand!r}, "
            f"{self.bloom.num_bits}b/{self.bloom.hashes}h)"
        )


@dataclass(frozen=True)
class DynamicFilter:
    """A build-side summary of join-key values, publishable to the probe.

    ``min_value``/``max_value`` are None only when the build side was
    empty — the filter then rejects every probe row.
    """

    column: str
    dtype: DataType
    min_value: Optional[object]
    max_value: Optional[object]
    bloom: BloomFilter
    build_rows: int
    distinct_keys: int

    def to_expression(self, probe_column: str, probe_dtype: DataType) -> Expr:
        """The filter as a pushable predicate over the probe column.

        The range conjuncts double as row-group pruning bounds at the
        storage node; the Bloom probe prunes row-by-row inside surviving
        groups.
        """
        ref = ColumnExpr(probe_column, probe_dtype)
        if self.min_value is None or self.max_value is None:
            # Empty build side: nothing can join.  A contradiction keeps
            # the plan well-formed while rejecting every row.
            return CompareExpr("<", ref, ColumnExpr(probe_column, probe_dtype))
        return AndExpr(
            (
                CompareExpr(">=", ref, LiteralExpr(self.min_value, self.dtype)),
                CompareExpr("<=", ref, LiteralExpr(self.max_value, self.dtype)),
                BloomProbeExpr(ref, self.bloom),
            )
        )


def build_dynamic_filter(batches: "list[RecordBatch]", column: str) -> DynamicFilter:
    """Summarize the build side's ``column`` into a :class:`DynamicFilter`."""
    if not batches:
        raise JoinError("dynamic filter needs at least one (possibly empty) build page")
    dtype = batches[0].schema.field(column).dtype
    parts = [b.column(column) for b in batches]
    valid_values = np.concatenate(
        [p.values[p.is_valid()] for p in parts]
    )
    validity = np.ones(len(valid_values), dtype=bool)
    merged = ColumnArray(dtype, valid_values, validity if len(valid_values) else None)
    bloom = BloomFilter.build(merged)
    if len(valid_values) == 0:
        return DynamicFilter(
            column=column, dtype=dtype, min_value=None, max_value=None,
            bloom=bloom, build_rows=0, distinct_keys=0,
        )
    if valid_values.dtype == object:
        low = min(str(v) for v in valid_values)
        high = max(str(v) for v in valid_values)
        distinct = len(set(map(str, valid_values)))
    else:
        low = valid_values.min().item()
        high = valid_values.max().item()
        distinct = len(np.unique(valid_values))
    return DynamicFilter(
        column=column, dtype=dtype, min_value=low, max_value=high,
        bloom=bloom, build_rows=sum(b.num_rows for b in batches),
        distinct_keys=distinct,
    )


class DynamicFilterHandshake:
    """One join's dynamic filter, from its build side to its probe scan.

    Lowering creates it; nothing here needs the simulator until a probe
    split waits.  The build side publishes into it once its keys are
    final: when every build split's page source has returned, if nothing
    after the page source can drop a build row or rename the key
    (``early_splits`` > 0), else from the build branch's stage output.
    Publication folds the filter into the probe scan's pushed operators
    (``target``) and wakes every waiting probe split.  A failed build
    fails the handshake, so no probe split waits forever.  Publication
    is once: a restarted stage reuses the published filter.
    """

    def __init__(
        self,
        *,
        build_key: str,
        probe_key: str,
        probe_dtype: DataType,
        target: Any,
        early_splits: int,
    ) -> None:
        self.build_key = build_key
        self.probe_key = probe_key
        self.probe_dtype = probe_dtype
        #: The probe scan's pushed operators the filter is folded into.
        self.target = target
        #: Build splits whose pages publish the filter (0: the stage
        #: output publishes it).
        self.early_splits = early_splits
        self.published = False
        self.error: Optional[BaseException] = None
        #: Build pages by split id until every split's have landed.
        self._pages: Dict[int, List[RecordBatch]] = {}
        self._waiters: List[Any] = []

    def offer(self, split_id: int, batches: List[RecordBatch]) -> Optional[DynamicFilter]:
        """One build split's pages landed (the first attempt to land
        counts); publishes once every split's have."""
        if self.published or self.error is not None:
            return None
        self._pages.setdefault(split_id, list(batches))
        if len(self._pages) < self.early_splits:
            return None
        pages, self._pages = self._pages, {}
        return self.publish([b for split in sorted(pages) for b in pages[split]])

    def publish(self, batches: List[RecordBatch]) -> Optional[DynamicFilter]:
        """Publish the filter over the build side's final ``batches``;
        returns it (``None``: already published, or no build page)."""
        if self.published or self.error is not None:
            return None
        self.published = True
        self._pages = {}
        dyn = None
        if batches:
            dyn = build_dynamic_filter(batches, self.build_key)
            self.target.dynamic_filter = dyn.to_expression(
                self.probe_key, self.probe_dtype
            )
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed()
        return dyn

    def fail(self, error: BaseException) -> bool:
        """The build failed before publishing: every waiter raises
        ``error``.  Returns whether any probe split was waiting."""
        if self.published or self.error is not None:
            return False
        self.error = error
        self._pages = {}
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.fail(error)
        return bool(waiters)

    def wait(self, sim: Any) -> Generator[Any, Any, None]:
        """DES generator: return once the filter is published; raise the
        build's error if it failed instead."""
        if self.error is not None:
            raise self.error
        if not self.published:
            event = sim.event()
            self._waiters.append(event)
            yield event
