"""Logical data types and their numpy physical representations.

``DATE32`` follows Arrow's convention: days since the Unix epoch, stored
as int32 — this is what TPC-H ``shipdate`` uses, and it supports the
paper's ``DATE '1998-12-01' - INTERVAL '90' DAY`` arithmetic as plain
integer math.  Strings are held as numpy object arrays of ``str`` in
memory and serialized as offset+utf8 buffers in IPC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.wire import Reader

__all__ = [
    "DataType",
    "BOOL",
    "INT32",
    "INT64",
    "FLOAT32",
    "FLOAT64",
    "DATE32",
    "STRING",
    "ALL_TYPES",
    "dtype_from_code",
    "read_dtype",
    "dtype_from_numpy",
]


@dataclass(frozen=True)
class DataType:
    """A logical column type."""

    name: str
    #: One-byte identifier used in IPC and Parcel footers.
    code: int
    #: numpy storage dtype; None for variable-length (string).
    numpy_dtype: np.dtype | None
    #: Fixed width in bytes; 0 for variable-length.
    byte_width: int

    @property
    def is_numeric(self) -> bool:
        return self.name in ("int32", "int64", "float32", "float64")

    @property
    def is_integer(self) -> bool:
        return self.name in ("int32", "int64", "date32")

    @property
    def is_floating(self) -> bool:
        return self.name in ("float32", "float64")

    @property
    def is_variable_width(self) -> bool:
        return self.byte_width == 0

    def empty_array(self, length: int = 0) -> np.ndarray:
        """An uninitialized-values array of this type's physical layout."""
        if self.numpy_dtype is None:
            return np.empty(length, dtype=object)
        return np.empty(length, dtype=self.numpy_dtype)

    def __repr__(self) -> str:
        return self.name


BOOL = DataType("bool", 1, np.dtype(np.bool_), 1)
INT32 = DataType("int32", 2, np.dtype(np.int32), 4)
INT64 = DataType("int64", 3, np.dtype(np.int64), 8)
FLOAT32 = DataType("float32", 4, np.dtype(np.float32), 4)
FLOAT64 = DataType("float64", 5, np.dtype(np.float64), 8)
DATE32 = DataType("date32", 6, np.dtype(np.int32), 4)
STRING = DataType("string", 7, None, 0)

ALL_TYPES = (BOOL, INT32, INT64, FLOAT32, FLOAT64, DATE32, STRING)

_BY_CODE: Dict[int, DataType] = {t.code: t for t in ALL_TYPES}
_BY_NAME: Dict[str, DataType] = {t.name: t for t in ALL_TYPES}


def dtype_from_code(code: int) -> DataType:
    """IPC/Parcel type code -> logical type."""
    try:
        return _BY_CODE[code]
    except KeyError:
        raise KeyError(f"unknown data type code {code}") from None


def read_dtype(reader: Reader) -> DataType:
    """The next byte of a frame as a type code; unknown codes fail as the frame's error."""
    code = reader.u8()
    dtype = _BY_CODE.get(code)
    if dtype is None:
        reader.fail(f"unknown data type code {code} at offset {reader.pos - 1}")
    return dtype


def dtype_from_name(name: str) -> DataType:
    """Type name -> logical type."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown data type {name!r}") from None


def dtype_from_numpy(np_dtype: np.dtype) -> DataType:
    """Map a numpy dtype to the narrowest matching logical type."""
    np_dtype = np.dtype(np_dtype)
    if np_dtype == np.bool_:
        return BOOL
    if np_dtype == np.int32:
        return INT32
    if np_dtype in (np.int64, np.dtype(int)):
        return INT64
    if np_dtype == np.float32:
        return FLOAT32
    if np_dtype == np.float64:
        return FLOAT64
    if np_dtype == object or np_dtype.kind in ("U", "S"):
        return STRING
    raise KeyError(f"no logical type for numpy dtype {np_dtype}")
