"""Typed columnar arrays: numpy values + optional validity mask."""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.arrowsim.buffers import str_items, utf8_nbytes
from repro.arrowsim.dtypes import DataType, STRING, dtype_from_numpy
from repro.errors import SchemaMismatchError

__all__ = ["ColumnArray"]


class ColumnArray:
    """A column of ``dtype`` values; ``validity[i] == False`` means NULL.

    ``values`` is a numpy array (object-dtype of ``str`` for strings);
    ``validity`` is a bool numpy array or None meaning "no nulls".
    Positions where validity is False hold unspecified values and must be
    masked before use.
    """

    __slots__ = ("dtype", "values", "validity")

    def __init__(
        self,
        dtype: DataType,
        values: np.ndarray,
        validity: Optional[np.ndarray] = None,
    ) -> None:
        values = np.asarray(values)
        if dtype.numpy_dtype is not None and values.dtype != dtype.numpy_dtype:
            values = values.astype(dtype.numpy_dtype)
        elif dtype is STRING and values.dtype != object:
            values = values.astype(object)
        if validity is not None:
            validity = np.asarray(validity, dtype=bool)
            if len(validity) != len(values):
                raise SchemaMismatchError(
                    f"validity length {len(validity)} != values length {len(values)}"
                )
            if bool(validity.all()):
                validity = None
        self.dtype = dtype
        self.values = values
        self.validity = validity

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_sequence(
        cls, dtype: DataType, items: Sequence[Any]
    ) -> "ColumnArray":
        """Build from Python values; ``None`` entries become NULLs."""
        validity = np.array([item is not None for item in items], dtype=bool)
        if dtype is STRING:
            values = np.array(
                [item if item is not None else "" for item in items], dtype=object
            )
        else:
            fill: Any = 0
            values = np.array(
                [item if item is not None else fill for item in items],
                dtype=dtype.numpy_dtype,
            )
        return cls(dtype, values, validity if not validity.all() else None)

    @classmethod
    def from_numpy(cls, values: np.ndarray, validity: Optional[np.ndarray] = None) -> "ColumnArray":
        """Infer the logical type from the numpy dtype."""
        return cls(dtype_from_numpy(np.asarray(values).dtype), np.asarray(values), validity)

    # -- basics ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.values)

    @property
    def null_count(self) -> int:
        if self.validity is None:
            return 0
        return int((~self.validity).sum())

    def is_valid(self) -> np.ndarray:
        """Bool mask of non-null positions (always materialized)."""
        if self.validity is None:
            return np.ones(len(self.values), dtype=bool)
        return self.validity

    @property
    def nbytes(self) -> int:
        """In-memory payload size (what Arrow IPC would ship, roughly)."""
        if self.dtype is STRING:
            data = utf8_nbytes(str_items(self.values))
            return data + 4 * (len(self.values) + 1) + (len(self.values) + 7) // 8
        base = self.values.nbytes
        if self.validity is not None:
            base += (len(self.values) + 7) // 8
        return base

    # -- element access ------------------------------------------------------------

    def to_pylist(self) -> list:
        """Materialize as Python objects with ``None`` for NULLs."""
        valid = self.is_valid()
        out = []
        for i, v in enumerate(self.values):
            if not valid[i]:
                out.append(None)
            elif self.dtype is STRING:
                out.append(str(v))
            else:
                out.append(v.item())
        return out

    def __getitem__(self, i: int) -> Any:
        if self.validity is not None and not self.validity[i]:
            return None
        v = self.values[i]
        return str(v) if self.dtype is STRING else v.item()

    def __iter__(self) -> Iterator[Any]:
        return iter(self.to_pylist())

    # -- slicing / filtering -------------------------------------------------------

    def take(self, indices: np.ndarray) -> "ColumnArray":
        """Gather rows by position."""
        validity = self.validity[indices] if self.validity is not None else None
        return ColumnArray(self.dtype, self.values[indices], validity)

    def filter(self, mask: np.ndarray) -> "ColumnArray":
        """Keep rows where ``mask`` is True."""
        validity = self.validity[mask] if self.validity is not None else None
        return ColumnArray(self.dtype, self.values[mask], validity)

    def slice(self, start: int, length: int) -> "ColumnArray":
        validity = (
            self.validity[start : start + length] if self.validity is not None else None
        )
        return ColumnArray(self.dtype, self.values[start : start + length], validity)

    # -- comparison ------------------------------------------------------------------

    def equals(self, other: "ColumnArray", rtol: float = 1e-12) -> bool:
        """Deep equality treating NULLs as equal to NULLs (NaN == NaN).

        The default tolerance is near-bitwise (serde roundtrips must not
        drift); use :meth:`approx_equals` when comparing results computed
        through different plans, where float summation order differs.
        """
        if self.dtype is not other.dtype or len(self) != len(other):
            return False
        mine, theirs = self.is_valid(), other.is_valid()
        if not np.array_equal(mine, theirs):
            return False
        a, b = self.values[mine], other.values[theirs]
        if self.dtype is STRING:
            return all(str(x) == str(y) for x, y in zip(a, b))
        if self.dtype.is_floating:
            return bool(np.allclose(a, b, rtol=rtol, atol=0.0, equal_nan=True))
        return bool(np.array_equal(a, b))

    def approx_equals(self, other: "ColumnArray", rtol: float = 1e-8) -> bool:
        """Equality up to float accumulation-order differences."""
        return self.equals(other, rtol=rtol)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        preview = self.to_pylist()[:6]
        suffix = ", ..." if len(self) > 6 else ""
        return f"ColumnArray<{self.dtype}>[{len(self)}] {preview}{suffix}"
