"""Deterministic vectorized hashing shared by the shuffle and Bloom filters.

Partition assignment and Bloom membership must agree across build and
probe sides of a join *and* across replayed runs, so everything here is a
pure function of the values — no process-salted ``hash()``, no RNG.  The
mixer is splitmix64, evaluated with numpy ``uint64`` modular arithmetic.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.arrowsim.array import ColumnArray
from repro.exec.expressions import positive_zero

__all__ = ["mix64", "hash_column", "combine_hashes"]

_CRC_SALT = 0x9E3779B9
_SPLITMIX_INC = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)


def mix64(values: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a ``uint64`` array (wrapping arithmetic)."""
    v = values.astype(np.uint64, copy=True)
    v += _SPLITMIX_INC
    v ^= v >> np.uint64(30)
    v *= _MIX_A
    v ^= v >> np.uint64(27)
    v *= _MIX_B
    v ^= v >> np.uint64(31)
    return v


def hash_column(column: ColumnArray) -> np.ndarray:
    """Per-row 64-bit hash of one column (NULL rows hash to mix64(0))."""
    values = column.values
    if values.dtype.kind in ("i", "u"):
        raw = values.astype(np.int64, copy=False).view(np.uint64)
    elif values.dtype.kind == "f":
        # Hash the bit pattern, with -0.0 made +0.0 so equal keys hash equally.
        raw = positive_zero(values).view(np.uint64)
    elif values.dtype.kind == "b":
        raw = values.astype(np.uint64)
    else:
        # Two independently-seeded crc32s packed into 64 bits: a single
        # crc32 caps row-hash entropy at 2^32, which degrades the Bloom
        # filter's false-positive rate and collides distinct strings at
        # the ~65k birthday bound.
        raw = np.fromiter(
            (
                (zlib.crc32(b, _CRC_SALT) << 32) | zlib.crc32(b)
                for b in (str(v).encode("utf-8") for v in values)
            ),
            dtype=np.uint64,
            count=len(values),
        )
    hashed = mix64(raw)
    if column.validity is not None:
        hashed = np.where(column.validity, hashed, mix64(np.zeros(1, np.uint64)))
    return hashed


def combine_hashes(hashes: "list[np.ndarray]") -> np.ndarray:
    """Fold per-column hashes into one row hash (order-sensitive)."""
    out = hashes[0]
    for h in hashes[1:]:
        out = mix64(out ^ h)
    return out
