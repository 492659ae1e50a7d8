"""SZ-class error-bounded lossy compression for float64 columns.

The paper limits its evaluation to lossless codecs and flags lossy
scientific compressors (SZ, ZFP) as future work: "Exploring the
performance when combining query pushdown with lossy compression remains
an important direction."  This module implements that direction's
simplest credible member — an SZ-style *absolute-error-bounded*
quantizer:

1. quantize: ``q = round(value / (2 * error_bound))`` — guarantees
   ``|decoded - original| <= error_bound``;
2. predict: delta-encode the quantum stream (previous-value predictor,
   SZ's order-1 mode);
3. entropy-code: zigzag varints through the canonical Huffman stage.

Non-finite values (NaN/inf) bypass quantization via an exception list and
are reconstructed exactly.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compress import huffman
from repro.compress.codec import encode_varint
from repro.errors import CodecError
from repro.wire import Reader

__all__ = ["compress_lossy", "decompress_lossy", "max_error"]

_MAGIC = b"SZ1"


def _zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed int64 to unsigned so small magnitudes stay small."""
    return (values.astype(np.int64) << 1) ^ (values.astype(np.int64) >> 63)


def _unzigzag(values: np.ndarray) -> np.ndarray:
    return (values >> 1) ^ -(values & 1)


def _encode_varints(values: np.ndarray) -> bytes:
    out = bytearray()
    for v in values.tolist():
        out += encode_varint(int(v) & 0xFFFFFFFFFFFFFFFF)
    return bytes(out)


def _decode_varints(buf: bytes, count: int) -> np.ndarray:
    r = Reader(buf, CodecError)
    out = np.empty(r.count(1, declared=count), dtype=np.uint64)
    for i in range(count):
        value = r.varint()
        if value >> 64:
            r.fail(f"quantum {i} does not fit 64 bits")
        out[i] = value
    r.done()
    return out


def compress_lossy(values: np.ndarray, error_bound: float) -> bytes:
    """Compress a float64 array with guaranteed absolute error bound."""
    if error_bound <= 0:
        raise CodecError(f"error bound must be positive, got {error_bound}")
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = len(values)

    finite = np.isfinite(values)
    exceptions = np.flatnonzero(~finite)
    safe = np.where(finite, values, 0.0)

    quanta = np.round(safe / (2.0 * error_bound)).astype(np.int64)
    deltas = np.diff(quanta, prepend=np.int64(0))
    payload = _encode_varints(_zigzag(deltas))
    encoded = huffman.encode(payload)

    out = bytearray(_MAGIC)
    out += struct.pack("<d", error_bound)
    out += encode_varint(n)
    out += encode_varint(len(exceptions))
    for idx in exceptions.tolist():
        out += encode_varint(idx)
        out += struct.pack("<d", float(values[idx]))
    out += encode_varint(len(payload))
    out += encoded
    return bytes(out)


def decompress_lossy(data: bytes) -> np.ndarray:
    """Inverse of :func:`compress_lossy` (within the error bound)."""
    r = Reader(data, CodecError)
    r.expect(_MAGIC, "SZ-class frame")
    error_bound = r.f64()
    n = r.varint()
    exceptions = []
    for _ in range(r.count(9)):  # varint index (>= 1 byte) + f64 value
        idx = r.varint()
        if idx >= n:
            r.fail(f"exception index {idx} outside {n} values")
        exceptions.append((idx, r.f64()))
    payload_len = r.varint()
    payload = huffman.decode(r.take(r.remaining), payload_len)

    deltas = _unzigzag(_decode_varints(payload, n).astype(np.int64))
    quanta = np.cumsum(deltas)
    values = quanta.astype(np.float64) * (2.0 * error_bound)
    for idx, value in exceptions:
        values[idx] = value
    return values


def max_error(original: np.ndarray, decoded: np.ndarray) -> float:
    """Largest absolute reconstruction error over finite positions."""
    finite = np.isfinite(original)
    if not finite.any():
        return 0.0
    return float(np.abs(original[finite] - decoded[finite]).max())
