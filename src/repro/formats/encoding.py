"""Column-chunk encodings: plain, dictionary, run-length.

A chunk body is::

    u8 has_validity  [packed validity bits]  u8 encoding  payload

Payloads:

* PLAIN — fixed-width: raw value buffer; string: int32 offsets + utf8.
* DICT  — u32 dict size, PLAIN-encoded dictionary, u32 indices.
* RLE   — varint run count, then (varint run_len, raw value) pairs;
  fixed-width types only.
* SZ    — error-bounded lossy quantization (float64 only, writer opt-in;
  see :mod:`repro.compress.szlike` — the paper's future-work direction).

The writer picks the smallest lossless encoding per chunk and never
loses to PLAIN.  It does so from one analysis of the chunk — its
distinct values (:class:`~repro.formats.statistics.Distinct`, shared
with the chunk's statistics) and, for fixed-width types, its runs —
sizing each eligible encoding by arithmetic and building only the
winner (``n`` values of width ``w``, ``ndv`` distinct, ``r`` runs)::

    PLAIN  n*w                                  string: 4*(n+1) + utf8 bytes
    DICT   4 + ndv*w + 4*n                      string: 4 + PLAIN(dictionary) + 4*n
    RLE    varint(r) + sum(varint(run_len)) + r*w

DICT needs ``n >= 16`` and ``ndv <= n // 2``, RLE ``n >= 16`` and
``r <= n // 4``; ties go to the earlier row of the table.  A float chunk
holding NaN, or both ``0.0`` and ``-0.0``, is never dictionary-encoded:
the dictionary is keyed by ``==`` and would not give those bits back.
SZ is never chosen automatically: losing precision requires an explicit
per-column error bound.

Decoding reads bytes from outside the program: every declared count is
checked against the bytes that remain before anything is allocated, and
every failure is a typed :class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

import numpy as np

from repro.arrowsim.array import ColumnArray
from repro.arrowsim.buffers import (
    pack_strings,
    pack_validity,
    read_array,
    read_strings,
    read_validity,
    str_items,
    utf8_nbytes,
)
from repro.arrowsim.dtypes import DataType, FLOAT64, STRING
from repro.errors import FormatError
from repro.formats.statistics import ColumnStats, Distinct
from repro.wire import Reader, encode_varint

__all__ = [
    "PLAIN",
    "DICT",
    "RLE",
    "SZ",
    "encode_chunk",
    "encode_chunk_with_stats",
    "decode_chunk",
]

PLAIN = 0
DICT = 1
RLE = 2
SZ = 3

#: Below this many values a chunk is always PLAIN.
_MIN_ENCODED_VALUES = 16
_U32 = np.dtype("<u4")


# -- strings -------------------------------------------------------------------


def _plain_strings(items: List[str]) -> bytes:
    offsets, data = pack_strings(items)
    return offsets.tobytes() + data


def _encode_strings(items: List[str], distinct: Distinct) -> Tuple[int, bytes]:
    n = len(items)
    ndv = len(distinct.every)
    if n >= _MIN_ENCODED_VALUES and ndv <= max(1, n // 2):
        dictionary = sorted(distinct.every)
        plain_size = 4 * (n + 1) + utf8_nbytes(items)
        dict_size = 4 + 4 * (ndv + 1) + utf8_nbytes(dictionary) + 4 * n
        if dict_size < plain_size:
            code_of = dict(zip(dictionary, range(ndv)))
            codes = np.fromiter(map(code_of.__getitem__, items), dtype=_U32, count=n)
            payload = struct.pack("<I", ndv) + _plain_strings(dictionary) + codes.tobytes()
            return DICT, payload
    return PLAIN, _plain_strings(items)


# -- fixed-width values --------------------------------------------------------


def _dictionary_loses_bits(bits: np.ndarray, uniques: np.ndarray) -> bool:
    """Would looking a float up by ``==`` fail to give its bits back?

    True for a chunk holding NaN (never equal to itself) or both zeros
    (``-0.0 == 0.0``, and ``uniques`` kept only one of them).  ``bits`` is
    the chunk viewed as unsigned integers of the same width.
    """
    if np.isnan(uniques[-1]):
        return True
    sign_bit = 1 << (8 * bits.itemsize - 1)
    return bool((bits == 0).any()) and bool((bits == sign_bit).any())


def _varint_sizes(values: np.ndarray) -> np.ndarray:
    """LEB128 byte count of each value (all >= 1)."""
    sizes = np.ones(len(values), dtype=np.int64)
    limit, top = 1 << 7, int(values.max())
    while limit <= top:
        sizes += values >= limit
        limit <<= 7
    return sizes


def _encode_rle(
    run_values: np.ndarray, run_lengths: np.ndarray, sizes: np.ndarray, width: int
) -> bytes:
    """(varint run_len, raw value) pairs; ``sizes`` = bytes per run_len varint."""
    nruns = len(run_values)
    stride = sizes + width
    starts = np.cumsum(stride) - stride
    out = np.zeros(int(stride.sum()), dtype=np.uint8)
    for k in range(int(sizes.max())):  # one round per varint byte position
        here = sizes > k
        septet = (run_lengths[here] >> (7 * k)) & 0x7F
        out[starts[here] + k] = septet | np.where(sizes[here] > k + 1, 0x80, 0)
    value_at = (starts + sizes)[:, None] + np.arange(width)
    out[value_at] = run_values.view(np.uint8).reshape(nruns, width)
    return encode_varint(nruns) + out.tobytes()


def _encode_fixed(
    dtype: DataType, values: np.ndarray, distinct: Distinct
) -> Tuple[int, bytes]:
    values = np.ascontiguousarray(values)
    n = len(values)
    width = dtype.byte_width
    if n < _MIN_ENCODED_VALUES:
        return PLAIN, values.tobytes()

    uniques = distinct.every
    ndv = len(uniques)
    # Runs and zero signs are read off the bit patterns (NaN != NaN would
    # split float runs per element).
    bits = values.view(np.dtype(f"u{width}"))
    best, best_size = PLAIN, n * width
    if ndv <= min(2**31, max(1, n // 2)) and not (
        dtype.is_floating and _dictionary_loses_bits(bits, uniques)
    ):
        size = 4 + ndv * width + 4 * n
        if size < best_size:
            best, best_size = DICT, size

    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    nruns = len(starts)
    if nruns <= n // 4:
        run_lengths = np.diff(starts, append=n)
        sizes = _varint_sizes(run_lengths)
        size = len(encode_varint(nruns)) + int(sizes.sum()) + nruns * width
        if size < best_size:
            return RLE, _encode_rle(values[starts], run_lengths, sizes, width)

    if best == DICT:
        codes = distinct.codes
        if codes is None:
            codes = np.searchsorted(uniques, values)
        payload = struct.pack("<I", ndv) + uniques.tobytes() + codes.astype(_U32).tobytes()
        return DICT, payload
    return PLAIN, values.tobytes()


# -- decoders ------------------------------------------------------------------


def _decode_dict(
    dtype: DataType, r: Reader, count: int, selection: Optional[np.ndarray]
) -> np.ndarray:
    dict_size = r.u32()
    if dtype is STRING:
        dictionary = read_strings(r, dict_size)
    else:
        dictionary = read_array(r, dtype.numpy_dtype, dict_size)
    indices = read_array(r, _U32, count)
    if count and dict_size == 0:
        r.fail("dictionary empty but indices present")
    if count and indices.max() >= dict_size:
        r.fail("dictionary index out of range")
    return dictionary[indices if selection is None else indices[selection]]


def _decode_rle(
    dtype: DataType, r: Reader, count: int, selection: Optional[np.ndarray]
) -> np.ndarray:
    nruns = r.varint()
    width = dtype.byte_width
    remaining = r.remaining
    if nruns > count or nruns * (1 + width) > remaining:
        r.fail(f"RLE declares {nruns} runs for {count} values in {remaining} bytes")
    octets = np.frombuffer(r.buf, dtype=np.uint8)
    if remaining == nruns * (1 + width):
        # Every run-length varint is one byte, so the pairs have a fixed stride.
        pairs = octets[r.pos :].reshape(nruns, 1 + width)
        run_lengths = pairs[:, 0]
        if bool((run_lengths & 0x80).any()):
            r.fail("RLE run length runs past the chunk body")
        run_octets = pairs[:, 1:]
        total = int(run_lengths.sum(dtype=np.int64))
        r.pos = r.end
    else:
        lengths: List[int] = []
        value_at: List[int] = []
        total = 0
        for _ in range(nruns):
            run_len = r.varint()
            total += run_len
            if total > count or r.remaining < width:
                break
            lengths.append(run_len)
            value_at.append(r.pos)
            r.pos += width
        if len(lengths) != nruns:
            r.fail(f"RLE runs overflow the chunk ({count} values)")
        run_lengths = np.array(lengths, dtype=np.int64)
        run_octets = octets[np.array(value_at, dtype=np.int64)[:, None] + np.arange(width)]
    if total != count:
        r.fail(f"RLE expanded to {total} values, expected {count}")
    run_values = np.ascontiguousarray(run_octets).view(dtype.numpy_dtype).reshape(nruns)
    if selection is None:
        return np.repeat(run_values, run_lengths)
    # The run holding each selected position: the first run ending past it.
    run_ends = np.cumsum(run_lengths, dtype=np.int64)
    return run_values[np.searchsorted(run_ends, selection, side="right")]


# -- chunk assembly ---------------------------------------------------------


def encode_chunk_with_stats(
    column: ColumnArray, lossy_error: Optional[float] = None
) -> Tuple[bytes, ColumnStats]:
    """Encode a column chunk body and compute its statistics in one analysis.

    The smallest eligible lossless encoding wins.  ``lossy_error`` opts a
    float64 column into SZ-class error-bounded encoding (|decoded -
    original| <= lossy_error at every valid row).
    """
    dtype = column.dtype
    if lossy_error is not None and dtype is not FLOAT64:
        raise FormatError(f"lossy encoding requires float64 columns, got {dtype}")

    out = bytearray(pack_validity(column.validity))
    items = str_items(column.values) if dtype is STRING else None
    distinct = Distinct(column, items)
    if lossy_error is not None:
        from repro.compress.szlike import compress_lossy

        encoding, payload = SZ, compress_lossy(column.values, lossy_error)
    elif items is not None:
        encoding, payload = _encode_strings(items, distinct)
    else:
        encoding, payload = _encode_fixed(dtype, column.values, distinct)
    out.append(encoding)
    out += payload
    return bytes(out), ColumnStats.compute(column, distinct)


def encode_chunk(column: ColumnArray, lossy_error: Optional[float] = None) -> bytes:
    """The chunk body alone; see :func:`encode_chunk_with_stats`."""
    return encode_chunk_with_stats(column, lossy_error)[0]


def decode_chunk(
    dtype: DataType,
    body: bytes,
    num_values: int,
    selection: Optional[np.ndarray] = None,
) -> ColumnArray:
    """Inverse of :func:`encode_chunk`.

    ``selection``, ascending positions in ``[0, num_values)``, decodes
    only those rows: the result equals the full decode taken at
    ``selection``, and the body is checked exactly as a full decode
    checks it.
    """
    if selection is not None and len(selection) and not (
        0 <= selection[0] and selection[-1] < num_values
    ):
        raise FormatError(f"selection outside the chunk's {num_values} values")
    r = Reader(body, FormatError)
    validity = read_validity(r, num_values, selection) if r.u8() else None
    encoding = r.u8()
    if encoding == PLAIN and dtype is STRING:
        values = read_strings(r, num_values, selection)
    elif encoding == PLAIN:
        values = read_array(r, dtype.numpy_dtype, num_values)
        values = values.copy() if selection is None else values[selection]
    elif encoding == DICT:
        values = _decode_dict(dtype, r, num_values, selection)
    elif encoding == RLE and dtype is not STRING:
        values = _decode_rle(dtype, r, num_values, selection)
    elif encoding == SZ:
        from repro.compress.szlike import decompress_lossy

        values = decompress_lossy(bytes(r.take(r.remaining)))
        if len(values) != num_values:
            r.fail(f"SZ chunk decoded {len(values)} values, expected {num_values}")
        if selection is not None:
            values = values[selection]
    else:
        r.fail(f"unknown chunk encoding {encoding} for {dtype}")
    r.done()
    return ColumnArray(dtype, values, validity)
