"""Correctness oracle: every timed result is compared with a no-pushdown run.

Pushdown transparency (DESIGN.md section 8) says a query returns the same
rows whether operators run at storage or at compute.  Different plans sum
floats in different orders, so results are canonicalised before comparison:
columns sorted by name, rows sorted on values rounded to six significant
digits, floats compared to a relative 1e-9.  The digest (floats at nine
significant digits) is what the benchmark prints and what must repeat
between runs of one seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, Hashable, Tuple

__all__ = ["Canonical", "Oracle", "canonicalise"]

_RTOL = 1e-9
_ATOL = 1e-12


@dataclass(frozen=True)
class Canonical:
    """A result batch in comparable form."""

    columns: Tuple[Tuple[str, str], ...]  # (name, dtype name), sorted by name
    rows: Tuple[tuple, ...]
    digest: str

    def matches(self, other: "Canonical") -> bool:
        if self.columns != other.columns or len(self.rows) != len(other.rows):
            return False
        return all(
            _same(a, b)
            for mine, theirs in zip(self.rows, other.rows)
            for a, b in zip(mine, theirs)
        )


def _same(a: object, b: object) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or math.isclose(
            a, b, rel_tol=_RTOL, abs_tol=_ATOL
        )
    return a == b


def _sort_key(row: tuple) -> tuple:
    return tuple(
        (value is None, "" if value is None else
         f"{value:.6g}" if isinstance(value, float) else repr(value))
        for value in row
    )


def canonicalise(batch) -> Canonical:
    """Order- and accumulation-insensitive form of a ``RecordBatch``."""
    data = batch.to_pydict()
    names = sorted(data)
    columns = tuple((name, batch.schema.field(name).dtype.name) for name in names)
    rows = sorted(zip(*(data[name] for name in names)), key=_sort_key) if names else []
    digest = hashlib.sha256(repr(columns).encode())
    for row in rows:
        digest.update(
            repr(
                tuple(f"{v:.9g}" if isinstance(v, float) else v for v in row)
            ).encode()
        )
    return Canonical(columns, tuple(rows), digest.hexdigest())


class Oracle:
    """Reference results keyed by (query, dataset version)."""

    def __init__(self) -> None:
        self._expected: Dict[Hashable, Canonical] = {}

    def expect(self, key: Hashable, batch) -> Canonical:
        canonical = canonicalise(batch)
        self._expected[key] = canonical
        return canonical

    def check(self, key: Hashable, batch) -> bool:
        """Whether ``batch`` equals the reference for ``key`` (False if none)."""
        expected = self._expected.get(key)
        return expected is not None and expected.matches(canonicalise(batch))
