"""Buffer layouts shared by Arrow IPC and Parcel chunks.

A string column is ``n + 1`` little-endian int32 offsets followed by the
concatenated UTF-8 bytes — in Parcel PLAIN/DICT chunks, in Arrow IPC and
in :attr:`ColumnArray.nbytes` alike — so the conversion lives here once.
Both directions work on the whole column: one ``str.join``, one
``encode``/``decode``; per-value encoding happens only when the data is
not ASCII (a character is then no longer a byte, so lengths have to be
measured in the encoded form).

The ``read_*`` functions decode bytes that come from outside the program
through the caller's :class:`~repro.wire.Reader`: every count is checked
against the bytes that remain *before* anything is allocated, and every
failure is the cursor's error class (``FormatError`` for IPC and Parcel).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.wire import Reader

__all__ = [
    "str_items",
    "pack_strings",
    "utf8_nbytes",
    "pack_validity",
    "read_array",
    "read_validity",
    "read_strings",
]


# -- str items -> buffers ------------------------------------------------------


def str_items(values: np.ndarray) -> List[str]:
    """The column's elements as ``str``; anything else goes through ``str()``."""
    items = values.tolist()
    try:
        "".join(items)  # the C-speed "is every element a str" test
    except TypeError:
        items = [str(item) for item in items]
    return items


def _utf8_lengths(items: List[str], joined: str) -> Iterable[int]:
    if joined.isascii():
        return map(len, items)
    return (len(item.encode("utf-8")) for item in items)


def pack_strings(items: List[str]) -> Tuple[np.ndarray, bytes]:
    """``str`` items -> (int32 offsets of length ``n + 1``, UTF-8 data)."""
    joined = "".join(items)
    lengths = np.fromiter(
        _utf8_lengths(items, joined), dtype=np.int64, count=len(items)
    )
    offsets = np.zeros(len(items) + 1, dtype=np.int32)
    offsets[1:] = np.cumsum(lengths)
    return offsets, joined.encode("utf-8")


def utf8_nbytes(items: List[str]) -> int:
    """Total UTF-8 size of the items (the data half of :func:`pack_strings`)."""
    joined = "".join(items)
    return len(joined) if joined.isascii() else len(joined.encode("utf-8"))


def pack_validity(validity: Optional[np.ndarray]) -> bytes:
    """``u8 has_validity [packed bits]`` — how every column and chunk opens."""
    if validity is None:
        return b"\x00"
    return b"\x01" + np.packbits(validity).tobytes()


# -- untrusted buffers -> arrays -----------------------------------------------


def read_array(reader: Reader, dtype: np.dtype, count: int) -> np.ndarray:
    """A read-only view of the next ``count`` items; the cursor moves past them."""
    nbytes = count * dtype.itemsize
    if count < 0 or nbytes > reader.remaining:
        reader.fail(
            f"buffer declares {count} {dtype} values but only "
            f"{reader.remaining} bytes remain"
        )
    view = np.frombuffer(reader.buf, dtype=dtype, count=count, offset=reader.pos)
    reader.pos += nbytes
    return view


def read_validity(reader: Reader, num_rows: int) -> np.ndarray:
    """Packed validity bits -> bool array of ``num_rows``."""
    packed = read_array(reader, np.dtype(np.uint8), (num_rows + 7) // 8)
    return np.unpackbits(packed)[:num_rows].astype(bool)


def read_strings(reader: Reader, count: int) -> np.ndarray:
    """Inverse of :func:`pack_strings` at the cursor: an object array of ``str``.

    The offsets must start at 0 and never decrease, and the data they
    span must lie inside the buffer.
    """
    offsets = read_array(reader, np.dtype("<i4"), count + 1)
    if offsets[0] != 0 or bool((offsets[1:] < offsets[:-1]).any()):
        reader.fail("string offsets do not start at 0 or decrease")
    bounds = offsets.tolist()
    data = bytes(reader.take(bounds[-1]))
    try:
        text = str(data, "utf-8")
        if len(text) == len(data):  # ASCII: character index == byte index
            items = [text[a:b] for a, b in zip(bounds, bounds[1:])]
        else:
            items = [str(data[a:b], "utf-8") for a, b in zip(bounds, bounds[1:])]
    except UnicodeDecodeError as exc:
        reader.fail(f"string data is not UTF-8: {exc}")
    values = np.empty(count, dtype=object)
    values[:] = items
    return values
