"""Binary IPC encoding for record batches.

Buffer-oriented like real Arrow IPC: fixed-width columns are shipped as
raw little-endian buffers (a memcpy each way), strings as offsets + UTF-8
data, validity as packed bits.  The encoded length of these messages is
what the simulator charges to the network for the OCS result path.

Layout (all integers little-endian)::

    stream  := "ARS1" u32 batch_count batch*
    batch   := "ARB1" schema u64 num_rows column*
    schema  := u16 nfields (u16 name_len, name, u8 type_code, u8 nullable)*
    column  := u8 has_validity [packed validity bits] payload
    payload := raw value buffer                    (fixed-width types)
             | u64 data_len int32[n+1] offsets data  (string)
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

import numpy as np

from repro.arrowsim.array import ColumnArray
from repro.arrowsim.buffers import (
    pack_strings,
    pack_validity,
    read_array,
    read_strings,
    read_validity,
    str_items,
)
from repro.arrowsim.dtypes import STRING, DataType
from repro.arrowsim.record_batch import RecordBatch
from repro.arrowsim.schema import decode_schema, encode_schema
from repro.errors import FormatError
from repro.wire import Reader

__all__ = [
    "serialize_batch",
    "deserialize_batch",
    "serialize_batches",
    "deserialize_batches",
]

_BATCH_MAGIC = b"ARB1"
_STREAM_MAGIC = b"ARS1"


def _encode_column(col: ColumnArray) -> bytes:
    out = bytearray(pack_validity(col.validity))
    if col.dtype is STRING:
        offsets, data = pack_strings(str_items(col.values))
        out += struct.pack("<Q", len(data))
        out += offsets.tobytes()
        out += data
    else:
        out += np.ascontiguousarray(col.values).tobytes()
    return bytes(out)


def _decode_column(
    buf: bytes, pos: int, dtype: DataType, num_rows: int
) -> Tuple[ColumnArray, int]:
    """One column body at ``pos`` (a block read); returns (column, next_pos)."""
    r = Reader(buf, FormatError, pos)
    validity = read_validity(r, num_rows) if r.u8() else None
    if dtype is STRING:
        data_len = r.u64()
        start = r.pos
        values = read_strings(r, num_rows)
        if r.pos - start != 4 * (num_rows + 1) + data_len:
            r.fail("string offsets disagree with the declared data length")
    else:
        values = read_array(r, dtype.numpy_dtype, num_rows).copy()
    return ColumnArray(dtype, values, validity), r.pos


def serialize_batch(batch: RecordBatch) -> bytes:
    """Encode one batch, schema included."""
    out = bytearray(_BATCH_MAGIC)
    out += encode_schema(batch.schema)
    out += struct.pack("<Q", batch.num_rows)
    for col in batch.columns:
        out += _encode_column(col)
    return bytes(out)


def deserialize_batch(buf: bytes) -> RecordBatch:
    """Inverse of :func:`serialize_batch`."""
    r = Reader(buf, FormatError)
    batch = _read_batch(r)
    r.done()
    return batch


def _read_batch(r: Reader) -> RecordBatch:
    r.expect(_BATCH_MAGIC, "record-batch")
    schema = decode_schema(r)
    num_rows = r.u64()
    columns = []
    for field in schema:
        column, r.pos = _decode_column(r.buf, r.pos, field.dtype, num_rows)
        columns.append(column)
    if not columns and num_rows:
        r.fail("rows declared but no columns present")
    batch = RecordBatch(schema, columns)
    if columns and batch.num_rows != num_rows:
        r.fail("column length disagrees with declared row count")
    return batch


def serialize_batches(batches: Sequence[RecordBatch]) -> bytes:
    """Encode a stream of batches."""
    out = bytearray(_STREAM_MAGIC)
    out += struct.pack("<I", len(batches))
    for batch in batches:
        out += serialize_batch(batch)
    return bytes(out)


def deserialize_batches(buf: bytes) -> List[RecordBatch]:
    """Inverse of :func:`serialize_batches`."""
    r = Reader(buf, FormatError)
    r.expect(_STREAM_MAGIC, "batch-stream")
    # A batch is at least its magic, an empty schema block and a row count.
    batches = [_read_batch(r) for _ in range(r.count(14, r.u32()))]
    r.done()
    return batches
