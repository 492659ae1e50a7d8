"""Scalar reference for the Parcel chunk codecs, statistics and IPC columns.

This is the per-value implementation ``repro.formats`` and
``repro.arrowsim.ipc`` shipped before their whole-chunk numpy rewrite
(commit 36a6943), kept here — and only here — as the oracle the
differential tests compare the production code against: every candidate
encoding is materialised and measured with ``len``, every string goes
through ``str(v).encode``, every varint through a Python loop.

Two deliberate differences from that commit, both bug fixes the rewrite
also made (each has its own failing-before regression test):

* the string dictionary is ``sorted(set(...))`` over Python ``str`` — not
  ``np.unique(values.astype(str))``, whose fixed-width ``U`` dtype strips
  trailing NULs (same order: both sort by code point);
* a float chunk holding both ``0.0`` and ``-0.0`` is not DICT-eligible,
  like one holding NaN.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

import numpy as np

from repro.arrowsim.array import ColumnArray
from repro.arrowsim.dtypes import STRING, DataType
from repro.compress.codec import decode_varint, encode_varint
from repro.formats.statistics import ColumnStats

PLAIN, DICT, RLE = 0, 1, 2


# -- statistics -----------------------------------------------------------------


def compute_stats(column: ColumnArray) -> ColumnStats:
    valid = column.is_valid()
    values = column.values[valid]
    row_count = len(column)
    null_count = row_count - len(values)
    if len(values) == 0:
        return ColumnStats(row_count, null_count, 0, None, None)
    if column.dtype is STRING:
        distinct = set(map(str, values))
        return ColumnStats(
            row_count, null_count, len(distinct), min(distinct), max(distinct)
        )
    if column.dtype.is_floating:
        finite = values[~np.isnan(values)]
        if len(finite) == 0:
            return ColumnStats(row_count, null_count, 1, None, None)
        ndv = len(np.unique(finite)) + int(np.isnan(values).any())
        return ColumnStats(
            row_count, null_count, ndv, float(finite.min()), float(finite.max())
        )
    return ColumnStats(
        row_count, null_count, len(np.unique(values)),
        values.min().item(), values.max().item(),
    )


# -- value buffers ----------------------------------------------------------------


def string_nbytes(values: np.ndarray) -> int:
    return sum(len(str(v).encode("utf-8")) for v in values)


def encode_values_plain(dtype: DataType, values: np.ndarray) -> bytes:
    if dtype is STRING:
        encoded = [str(v).encode("utf-8") for v in values]
        offsets = np.zeros(len(values) + 1, dtype=np.int32)
        if len(values):
            offsets[1:] = np.cumsum([len(e) for e in encoded])
        return offsets.tobytes() + b"".join(encoded)
    return np.ascontiguousarray(values).tobytes()


def decode_values_plain(
    dtype: DataType, buf: bytes, pos: int, count: int
) -> Tuple[np.ndarray, int]:
    if dtype is STRING:
        offsets = np.frombuffer(buf, dtype=np.int32, count=count + 1, offset=pos)
        pos += 4 * (count + 1)
        data_len = int(offsets[-1]) if count else 0
        data = buf[pos : pos + data_len]
        pos += data_len
        values = np.empty(count, dtype=object)
        for i in range(count):
            values[i] = data[offsets[i] : offsets[i + 1]].decode("utf-8")
        return values, pos
    values = np.frombuffer(buf, dtype=dtype.numpy_dtype, count=count, offset=pos).copy()
    return values, pos + dtype.byte_width * count


# -- encodings ----------------------------------------------------------------------


def encode_dict(dtype: DataType, values: np.ndarray) -> bytes:
    if dtype is STRING:
        items = [str(v) for v in values]
        dictionary = sorted(set(items))
        uniques = np.empty(len(dictionary), dtype=object)
        uniques[:] = dictionary
        indices = np.array([dictionary.index(item) for item in items], dtype=np.int64)
    else:
        uniques, indices = np.unique(values, return_inverse=True)
    out = bytearray(struct.pack("<I", len(uniques)))
    out += encode_values_plain(dtype, uniques)
    out += indices.astype(np.uint32).tobytes()
    return bytes(out)


def decode_dict(dtype: DataType, buf: bytes, pos: int, count: int) -> Tuple[np.ndarray, int]:
    (dict_size,) = struct.unpack_from("<I", buf, pos)
    pos += 4
    dictionary, pos = decode_values_plain(dtype, buf, pos, dict_size)
    indices = np.frombuffer(buf, dtype=np.uint32, count=count, offset=pos)
    pos += 4 * count
    return dictionary[indices], pos


def runs(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(run_values, run_lengths) of a fixed-width array, by bit pattern."""
    n = len(values)
    if n == 0:
        return values, np.zeros(0, dtype=np.int64)
    change = np.empty(n, dtype=bool)
    change[0] = True
    raw = np.ascontiguousarray(values).view(np.uint8).reshape(n, -1)
    change[1:] = (raw[1:] != raw[:-1]).any(axis=1)
    starts = np.flatnonzero(change)
    return values[starts], np.diff(np.append(starts, n))


def encode_rle(dtype: DataType, values: np.ndarray) -> bytes:
    run_values, run_lengths = runs(values)
    out = bytearray(encode_varint(len(run_values)))
    width = dtype.byte_width
    raw = np.ascontiguousarray(run_values).tobytes()
    for i, run_len in enumerate(run_lengths):
        out += encode_varint(int(run_len))
        out += raw[i * width : (i + 1) * width]
    return bytes(out)


def decode_rle(dtype: DataType, buf: bytes, pos: int, count: int) -> Tuple[np.ndarray, int]:
    nruns, pos = decode_varint(buf, pos)
    width = dtype.byte_width
    lengths = np.empty(nruns, dtype=np.int64)
    raw = bytearray()
    for i in range(nruns):
        run_len, pos = decode_varint(buf, pos)
        lengths[i] = run_len
        raw += buf[pos : pos + width]
        pos += width
    run_values = np.frombuffer(bytes(raw), dtype=dtype.numpy_dtype, count=nruns)
    values = np.repeat(run_values, lengths)
    assert len(values) == count
    return values, pos


# -- chunk assembly -------------------------------------------------------------------


def _validity_prefix(validity: Optional[np.ndarray]) -> bytearray:
    out = bytearray()
    if validity is not None:
        out.append(1)
        out += np.packbits(validity).tobytes()
    else:
        out.append(0)
    return out


def encode_chunk(column: ColumnArray) -> bytes:
    out = _validity_prefix(column.validity)
    dtype, values = column.dtype, column.values
    candidates = {PLAIN: encode_values_plain(dtype, values)}
    n = len(values)
    if n >= 16:
        if dtype is STRING:
            if len(set(map(str, values))) <= max(1, n // 2):
                candidates[DICT] = encode_dict(dtype, values)
        else:
            lossless = True
            if dtype.is_floating:
                zeros = np.signbit(values[values == 0])
                both_zeros = bool(zeros.any()) and not bool(zeros.all())
                lossless = not both_zeros and not bool(np.isnan(values).any())
            if lossless and len(np.unique(values)) <= min(2**31, max(1, n // 2)):
                candidates[DICT] = encode_dict(dtype, values)
            if len(runs(values)[0]) <= n // 4:
                candidates[RLE] = encode_rle(dtype, values)
    encoding = min(candidates, key=lambda e: len(candidates[e]))
    out.append(encoding)
    out += candidates[encoding]
    return bytes(out)


def decode_chunk(dtype: DataType, body: bytes, num_values: int) -> ColumnArray:
    pos = 1
    validity = None
    if body[0]:
        nbytes = (num_values + 7) // 8
        packed = np.frombuffer(body, dtype=np.uint8, count=nbytes, offset=pos)
        validity = np.unpackbits(packed)[:num_values].astype(bool)
        pos += nbytes
    decoder = {PLAIN: decode_values_plain, DICT: decode_dict, RLE: decode_rle}[body[pos]]
    values, pos = decoder(dtype, body, pos + 1, num_values)
    assert pos == len(body)
    return ColumnArray(dtype, values, validity)


# -- Arrow IPC columns -------------------------------------------------------------------


def encode_ipc_column(col: ColumnArray) -> bytes:
    out = _validity_prefix(col.validity)
    if col.dtype is STRING:
        plain = encode_values_plain(STRING, col.values)
        offsets_len = 4 * (len(col) + 1)
        out += struct.pack("<Q", len(plain) - offsets_len)
        out += plain
    else:
        out += np.ascontiguousarray(col.values).tobytes()
    return bytes(out)


def decode_ipc_column(
    buf: bytes, pos: int, dtype: DataType, num_rows: int
) -> Tuple[ColumnArray, int]:
    has_validity = buf[pos]
    pos += 1
    validity = None
    if has_validity:
        nbytes = (num_rows + 7) // 8
        packed = np.frombuffer(buf, dtype=np.uint8, count=nbytes, offset=pos)
        validity = np.unpackbits(packed)[:num_rows].astype(bool)
        pos += nbytes
    if dtype is STRING:
        pos += 8  # data_len: the offsets carry the same number
    values, pos = decode_values_plain(dtype, buf, pos, num_rows)
    return ColumnArray(dtype, values, validity), pos
