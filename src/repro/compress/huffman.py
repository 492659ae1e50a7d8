"""Canonical Huffman coding over byte symbols (the zstd-class entropy stage).

Encoded layout::

    lengths   128 bytes  4-bit code length per symbol (0 = absent), capped at 15
    payload   rest       MSB-first bit-packed codes

Code lengths are limited to 15 bits by iteratively halving frequencies
until the tree fits (the standard simple alternative to package-merge).
Encoding is vectorized with numpy (one pass per code-bit level); decoding
uses a full prefix table of 2^maxlen entries.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from repro.errors import CodecError

__all__ = ["encode", "decode", "MAX_CODE_BITS"]

MAX_CODE_BITS = 15
_NUM_SYMBOLS = 256


def _tree_code_lengths(freqs: List[int]) -> List[int]:
    """Huffman code length per symbol from frequencies (no length cap)."""
    heap: List[Tuple[int, int, object]] = []
    serial = 0
    for sym, freq in enumerate(freqs):
        if freq > 0:
            heap.append((freq, serial, sym))
            serial += 1
    if not heap:
        return [0] * _NUM_SYMBOLS
    if len(heap) == 1:
        lengths = [0] * _NUM_SYMBOLS
        lengths[heap[0][2]] = 1  # type: ignore[index]
        return lengths
    heapq.heapify(heap)
    while len(heap) > 1:
        fa, _, a = heapq.heappop(heap)
        fb, _, b = heapq.heappop(heap)
        heapq.heappush(heap, (fa + fb, serial, (a, b)))
        serial += 1
    lengths = [0] * _NUM_SYMBOLS
    stack = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, tuple):
            stack.append((node[0], depth + 1))
            stack.append((node[1], depth + 1))
        else:
            lengths[node] = max(depth, 1)
    return lengths


def code_lengths(freqs: List[int]) -> List[int]:
    """Length-limited (<= MAX_CODE_BITS) code lengths per symbol."""
    freqs = list(freqs)
    while True:
        lengths = _tree_code_lengths(freqs)
        if max(lengths) <= MAX_CODE_BITS:
            return lengths
        # Flatten the distribution and retry; preserves the support set.
        freqs = [(f + 1) >> 1 if f > 0 else 0 for f in freqs]


def canonical_codes(lengths: List[int]) -> List[int]:
    """Assign canonical codes (numerically increasing within each length)."""
    pairs = sorted(
        (length, sym) for sym, length in enumerate(lengths) if length > 0
    )
    codes = [0] * _NUM_SYMBOLS
    code = 0
    prev_len = 0
    for length, sym in pairs:
        code <<= length - prev_len
        codes[sym] = code
        code += 1
        prev_len = length
    return codes


def _pack_lengths(lengths: List[int]) -> bytes:
    out = bytearray(_NUM_SYMBOLS // 2)
    for sym in range(0, _NUM_SYMBOLS, 2):
        out[sym // 2] = (lengths[sym] << 4) | lengths[sym + 1]
    return bytes(out)


def _unpack_lengths(header: bytes) -> List[int]:
    if len(header) != _NUM_SYMBOLS // 2:
        raise CodecError("bad Huffman length header")
    lengths = []
    for byte in header:
        lengths.append(byte >> 4)
        lengths.append(byte & 0x0F)
    return lengths


def encode(data: bytes) -> bytes:
    """Huffman-encode ``data``; decode requires the original symbol count."""
    if not data:
        return _pack_lengths([0] * _NUM_SYMBOLS)
    arr = np.frombuffer(data, dtype=np.uint8)
    freqs = np.bincount(arr, minlength=_NUM_SYMBOLS).tolist()
    lengths = code_lengths(freqs)
    codes = canonical_codes(lengths)

    len_lut = np.asarray(lengths, dtype=np.int64)
    code_lut = np.asarray(codes, dtype=np.uint32)
    sym_lens = len_lut[arr]
    sym_codes = code_lut[arr]
    ends = np.cumsum(sym_lens)
    starts = ends - sym_lens
    total_bits = int(ends[-1])
    bits = np.zeros(total_bits, dtype=np.uint8)
    max_len = int(sym_lens.max())
    for level in range(max_len):
        mask = sym_lens > level
        positions = starts[mask] + level
        shift = (sym_lens[mask] - 1 - level).astype(np.uint32)
        bits[positions] = (sym_codes[mask] >> shift) & np.uint32(1)
    payload = np.packbits(bits).tobytes()
    return _pack_lengths(lengths) + payload


def decode(body: bytes, nsymbols: int) -> bytes:
    """Inverse of :func:`encode` given the original symbol count."""
    lengths = _unpack_lengths(body[: _NUM_SYMBOLS // 2])
    payload = body[_NUM_SYMBOLS // 2 :]
    if nsymbols == 0:
        return b""
    # Every symbol costs at least one bit: refuse a forged count before allocating.
    if nsymbols > 8 * len(payload):
        raise CodecError(f"Huffman stream declares {nsymbols} symbols in {len(payload)} bytes")
    present = [(length, sym) for sym, length in enumerate(lengths) if length > 0]
    if not present:
        raise CodecError("Huffman stream declares symbols but header is empty")
    codes = canonical_codes(lengths)
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
