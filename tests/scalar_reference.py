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

The last section is the per-byte LZ77 matcher/expander and the per-symbol
Huffman decoder ``repro.compress`` shipped before its whole-block numpy
kernels, kept verbatim as the referee for those: the production encoder
must emit the same token stream, the decoders the same bytes.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

import numpy as np

from repro.arrowsim.array import ColumnArray
from repro.arrowsim.dtypes import STRING, DataType
from repro.compress import huffman
from repro.compress.codec import decode_varint, encode_varint
from repro.errors import CodecError
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


# -- LZ77 and Huffman codec kernels ---------------------------------------------------

_HASH_BITS = 15
_HASH_MULT = np.uint32(0x9E3779B1)


def _position_hashes(data: bytes) -> list[int]:
    """4-byte Fibonacci hash at every position 0..n-4, vectorized."""
    arr = np.frombuffer(data, dtype=np.uint8)
    n = len(arr)
    w = (
        arr[: n - 3].astype(np.uint32)
        | arr[1 : n - 2].astype(np.uint32) << np.uint32(8)
        | arr[2 : n - 1].astype(np.uint32) << np.uint32(16)
        | arr[3:].astype(np.uint32) << np.uint32(24)
    )
    h = (w * _HASH_MULT) >> np.uint32(32 - _HASH_BITS)
    return h.tolist()


def _match_length(data: bytes, a: int, b: int, max_len: int) -> int:
    """Length of the common prefix of data[a:] and data[b:], capped."""
    length = 0
    chunk = 64
    while (
        length + chunk <= max_len
        and data[a + length : a + length + chunk] == data[b + length : b + length + chunk]
    ):
        length += chunk
    while length < max_len and data[a + length] == data[b + length]:
        length += 1
    return length


def _emit_literal(out: bytearray, data: bytes, start: int, end: int) -> None:
    out += encode_varint((end - start) << 1)
    out += data[start:end]


def _emit_match(out: bytearray, length: int, offset: int) -> None:
    out += encode_varint((length << 1) | 1)
    out += encode_varint(offset)


def compress_tokens(
    data: bytes,
    *,
    window: int,
    min_match: int = 4,
    max_match: int = 65535,
    max_chain: int = 1,
    skip_accel: bool = True,
) -> bytes:
    """Tokenize ``data``; ``max_chain`` > 1 searches harder for longer matches."""
    n = len(data)
    out = bytearray()
    if n < 16:
        if n:
            _emit_literal(out, data, 0, n)
        return bytes(out)

    hashes = _position_hashes(data)
    head = [-1] * (1 << _HASH_BITS)
    prev = [0] * n if max_chain > 1 else None

    i = 0
    lit_start = 0
    misses = 0
    limit = n - 4
    while i <= limit:
        h = hashes[i]
        candidate = head[h]
        best_len = 0
        best_off = 0
        chain = max_chain
        while candidate >= 0 and chain > 0 and i - candidate <= window:
            length = _match_length(data, candidate, i, min(max_match, n - i))
            if length > best_len:
                best_len = length
                best_off = i - candidate
                if length >= 512:  # long enough; stop searching
                    break
            if prev is None:
                break
            candidate = prev[candidate]
            chain -= 1

        if prev is not None:
            prev[i] = head[h]
        head[h] = i

        if best_len >= min_match:
            if lit_start < i:
                _emit_literal(out, data, lit_start, i)
            _emit_match(out, best_len, best_off)
            end = i + best_len
            # Seed the table sparsely inside the match so later data can
            # still find these positions without paying per-byte cost.
            stride = 1 if best_len <= 16 else best_len // 16
            j = i + 1
            stop = min(end, limit + 1)
            while j < stop:
                hj = hashes[j]
                if prev is not None:
                    prev[j] = head[hj]
                head[hj] = j
                j += stride
            i = end
            lit_start = i
            misses = 0
        else:
            misses += 1
            i += 1 + (misses >> 6 if skip_accel else 0)

    if lit_start < n:
        _emit_literal(out, data, lit_start, n)
    return bytes(out)


def decompress_tokens(body: bytes, orig_size: int) -> bytes:
    """Expand a token stream back to the original bytes."""
    out = bytearray()
    pos = 0
    n = len(body)
    while pos < n:
        tag, pos = decode_varint(body, pos)
        length = tag >> 1
        # Checked before anything is built: a forged length must not allocate.
        if length > orig_size - len(out):
            raise CodecError("token stream expands past declared size")
        if tag & 1:
            offset, pos = decode_varint(body, pos)
            if offset <= 0 or offset > len(out):
                raise CodecError(f"match offset {offset} out of range at {len(out)}")
            start = len(out) - offset
            if offset >= length:
                out += out[start : start + length]
            else:
                pattern = bytes(out[start:])
                repeats, remainder = divmod(length, offset)
                out += pattern * repeats + pattern[:remainder]
        else:
            if pos + length > n:
                raise CodecError("truncated literal run")
            out += body[pos : pos + length]
            pos += length
    return bytes(out)


def huffman_decode(body: bytes, nsymbols: int) -> bytes:
    """Inverse of :func:`encode` given the original symbol count."""
    lengths = huffman._unpack_lengths(body[: huffman._NUM_SYMBOLS // 2])
    payload = body[huffman._NUM_SYMBOLS // 2 :]
    if nsymbols == 0:
        return b""
    # Every symbol costs at least one bit: refuse a forged count before allocating.
    if nsymbols > 8 * len(payload):
        raise CodecError(f"Huffman stream declares {nsymbols} symbols in {len(payload)} bytes")
    present = [(length, sym) for sym, length in enumerate(lengths) if length > 0]
    if not present:
        raise CodecError("Huffman stream declares symbols but header is empty")
    codes = huffman.canonical_codes(lengths)
    max_len = max(length for length, _ in present)
    if sum(1 << (max_len - length) for length, _ in present) > 1 << max_len:
        raise CodecError("Huffman code lengths are over-subscribed")

    # Full prefix table: every max_len-bit word maps to (symbol, code length).
    table_sym = [0] * (1 << max_len)
    table_len = [0] * (1 << max_len)
    for length, sym in present:
        base = codes[sym] << (max_len - length)
        for idx in range(base, base + (1 << (max_len - length))):
            table_sym[idx] = sym
            table_len[idx] = length

    out = bytearray(nsymbols)
    acc = 0
    nbits = 0
    ptr = 0
    nbody = len(payload)
    mask = (1 << max_len) - 1
    for i in range(nsymbols):
        while nbits < max_len and ptr < nbody:
            acc = (acc << 8) | payload[ptr]
            ptr += 1
            nbits += 8
        if nbits >= max_len:
            idx = (acc >> (nbits - max_len)) & mask
        else:
            idx = (acc << (max_len - nbits)) & mask
        length = table_len[idx]
        if length == 0 or length > nbits:
            raise CodecError("corrupt Huffman payload")
        out[i] = table_sym[idx]
        nbits -= length
        acc &= (1 << nbits) - 1
    return bytes(out)
