"""Canonical Huffman coding over byte symbols (the zstd-class entropy stage).

Encoded layout::

    lengths   128 bytes  4-bit code length per symbol (0 = absent), capped at 15
    payload   rest       MSB-first bit-packed codes

Code lengths are limited to 15 bits by iteratively halving frequencies
until the tree fits (the standard simple alternative to package-merge).

Both directions are whole-block numpy kernels.  Encoding shifts each code
into the 24-bit window that starts at its first byte; codes own disjoint
bits, so each output byte is the sum of its windows' shares.  Decoding
reads the max_len-bit word at *every* bit offset (shifts of 24-bit
windows) and looks up, in a prefix table of 2^max_len entries, how many
bits a symbol starting there consumes.  Pointer doubling turns that into
the bits the next 16 symbols consume, so a Python loop steps 16 symbols
at a time; numpy fills in the offsets in between.  The per-symbol loop
this replaces is the referee in ``tests/scalar_reference.py``.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from repro.errors import CodecError

__all__ = ["encode", "decode", "MAX_CODE_BITS"]

MAX_CODE_BITS = 15
_NUM_SYMBOLS = 256
#: Symbols the decoder's Python walk steps over at once (a power of two;
#: _BLOCK * MAX_CODE_BITS bits must fit a byte).
_BLOCK = 16


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
    code_lut = np.asarray(codes, dtype=np.int64)
    sym_lens = len_lut[arr]
    starts = np.cumsum(sym_lens) - sym_lens
    nbytes = (int(starts[-1] + sym_lens[-1]) + 7) // 8
    # Each code lies within the 24 bits from its first byte on; codes own
    # disjoint bits, so a byte is the sum of its shares.
    window = code_lut[arr] << (24 - (starts & 7) - sym_lens)
    first = starts >> 3
    del sym_lens, starts
    packed = np.zeros(nbytes + 2)
    for k, shift in enumerate((16, 8, 0)):
        packed += np.bincount(first + k, (window >> shift) & 0xFF, minlength=nbytes + 2)
    payload = packed[:nbytes].astype(np.uint8).tobytes()
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
    lens = np.asarray(lengths, dtype=np.int64)
    if not lens.any():
        raise CodecError("Huffman stream declares symbols but header is empty")
    max_len = int(lens.max())
    # Canonical order (by length, then symbol): each code's block of
    # max_len-bit words directly follows the previous code's.
    syms = np.lexsort((np.arange(_NUM_SYMBOLS), lens))[_NUM_SYMBOLS - np.count_nonzero(lens) :]
    span = 1 << (max_len - lens[syms])
    if span.sum() > 1 << max_len:
        raise CodecError("Huffman code lengths are over-subscribed")

    # Prefix table: every max_len-bit word -> (symbol, code length).
    table_sym = np.zeros(1 << max_len, dtype=np.uint8)
    table_len = np.zeros(1 << max_len, dtype=np.uint8)
    table_sym[: span.sum()] = np.repeat(syms, span)
    table_len[: span.sum()] = np.repeat(lens[syms], span)

    # The max_len-bit word at every bit offset p = 8j + r, cut from the
    # 24 bits starting at byte j.
    nbits = 8 * len(payload)
    padded = np.frombuffer(bytes(payload) + bytes(3), dtype=np.uint8).astype(np.uint32)
    window = padded[:-2] << np.uint32(16) | padded[1:-1] << np.uint32(8) | padded[2:]
    del padded
    shifts = (24 - max_len - np.arange(8)).astype(np.uint32)
    index = ((window[:, None] >> shifts) & np.uint32((1 << max_len) - 1)).astype(np.uint16)
    index = index.ravel()[: nbits + 1]
    del window
    # Bits each offset's symbol consumes; 0 where no code starts there or
    # the code runs past the payload, so a walk through it stalls.
    step = table_len.take(index)
    tail = np.arange(max(0, nbits + 1 - max_len), nbits + 1)
    step[tail[tail + step[tail] > nbits]] = 0
    # jumps[k][p]: bits the next 2**k symbols from p consume (<= 240).
    offsets = np.arange(nbits + 1, dtype=np.int32)
    jumps = [step]
    while len(jumps) < _BLOCK.bit_length():
        jumps.append(jumps[-1] + jumps[-1].take(offsets + jumps[-1]))
    del offsets
    # Walk the block starts in Python, then fill in each block's offsets:
    # the middle one by the half-block jump, the quarters by the quarter
    # jump, and so on.
    blocks = -(-nsymbols // _BLOCK)
    starts = memoryview(bytearray(4 * blocks)).cast("i")
    hops = jumps.pop().tobytes()
    p = 0
    for b in range(blocks):
        starts[b] = p
        p += hops[p]
    del hops
    at = np.empty((blocks, _BLOCK), dtype=np.int32)
    at[:, 0] = np.frombuffer(starts, dtype=np.int32)
    while jumps:
        half = 1 << (len(jumps) - 1)
        known = at[:, :: 2 * half]
        at[:, half :: 2 * half] = known + jumps.pop().take(known)
    at = at.ravel()[:nsymbols]
    if not step.take(at).all():
        raise CodecError("corrupt Huffman payload")
    return table_sym.take(index.take(at)).tobytes()
