"""Shared LZ77 core: match finding, token emission, token expansion.

Token stream grammar (all integers are LEB128 varints)::

    token   := literal | match
    literal := varint(run << 1)        run raw bytes follow
    match   := varint((len << 1) | 1)  varint(offset)

Offsets are back-distances (1 = previous byte); ``len`` may exceed
``offset``, which encodes a repeating pattern (classic LZ77 overlap).

The compressor is a greedy hash-table matcher in the Snappy family:
4-byte rolling hashes are precomputed vectorized with numpy, the scan
loop consults a head table (optionally walking a ``prev`` chain for
higher-effort codecs), and a skip accelerator grows the stride through
incompressible regions so worst-case inputs stay near memcpy speed.
"""

from __future__ import annotations

import numpy as np

from repro.compress.codec import decode_varint, encode_varint
from repro.errors import CodecError

__all__ = ["compress_tokens", "decompress_tokens"]

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
