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
from repro.arrowsim.dtypes import STRING, DataType, dtype_from_code
from repro.arrowsim.record_batch import RecordBatch
from repro.arrowsim.schema import Field, Schema
from repro.errors import FormatError

__all__ = [
    "serialize_batch",
    "deserialize_batch",
    "serialize_batches",
    "deserialize_batches",
]

_BATCH_MAGIC = b"ARB1"
_STREAM_MAGIC = b"ARS1"


def _unpack(fmt: str, buf: bytes, pos: int) -> tuple:
    try:
        return struct.unpack_from(fmt, buf, pos)
    except struct.error as exc:
        raise FormatError(f"truncated IPC message at byte {pos}") from exc


def _encode_schema(schema: Schema) -> bytes:
    out = bytearray(struct.pack("<H", len(schema)))
    for field in schema:
        name = field.name.encode("utf-8")
        out += struct.pack("<H", len(name))
        out += name
        out += struct.pack("<BB", field.dtype.code, int(field.nullable))
    return bytes(out)


def _decode_schema(buf: bytes, pos: int) -> Tuple[Schema, int]:
    (nfields,) = _unpack("<H", buf, pos)
    pos += 2
    fields = []
    for _ in range(nfields):
        (name_len,) = _unpack("<H", buf, pos)
        pos += 2
        raw_name = buf[pos : pos + name_len]
        pos += name_len
        code, nullable = _unpack("<BB", buf, pos)
        pos += 2
        try:
            fields.append(
                Field(str(raw_name, "utf-8"), dtype_from_code(code), bool(nullable))
            )
        except (UnicodeDecodeError, KeyError) as exc:
            raise FormatError(f"bad IPC schema field: {exc}") from exc
    return Schema(fields), pos


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
    (has_validity,) = _unpack("<B", buf, pos)
    pos += 1
    validity = None
    if has_validity:
        validity, pos = read_validity(buf, pos, num_rows)
    if dtype is STRING:
        (data_len,) = _unpack("<Q", buf, pos)
        pos += 8
        values, end = read_strings(buf, pos, num_rows)
        if end - pos != 4 * (num_rows + 1) + data_len:
            raise FormatError("string offsets disagree with the declared data length")
        pos = end
    else:
        view, pos = read_array(buf, pos, dtype.numpy_dtype, num_rows)
        values = view.copy()
    return ColumnArray(dtype, values, validity), pos


def serialize_batch(batch: RecordBatch) -> bytes:
    """Encode one batch, schema included."""
    out = bytearray(_BATCH_MAGIC)
    out += _encode_schema(batch.schema)
    out += struct.pack("<Q", batch.num_rows)
    for col in batch.columns:
        out += _encode_column(col)
    return bytes(out)


def deserialize_batch(buf: bytes) -> RecordBatch:
    """Inverse of :func:`serialize_batch`."""
    batch, pos = _deserialize_batch_at(buf, 0)
    if pos != len(buf):
        raise FormatError(f"{len(buf) - pos} trailing bytes after batch")
    return batch


def _deserialize_batch_at(buf: bytes, pos: int) -> Tuple[RecordBatch, int]:
    if buf[pos : pos + 4] != _BATCH_MAGIC:
        raise FormatError("bad record-batch magic")
    pos += 4
    schema, pos = _decode_schema(buf, pos)
    (num_rows,) = _unpack("<Q", buf, pos)
    pos += 8
    columns = []
    for field in schema:
        col, pos = _decode_column(buf, pos, field.dtype, num_rows)
        columns.append(col)
    if not columns and num_rows:
        raise FormatError("rows declared but no columns present")
    batch = RecordBatch(schema, columns) if columns else RecordBatch(schema, [])
    if columns and batch.num_rows != num_rows:
        raise FormatError("column length disagrees with declared row count")
    return batch, pos


def serialize_batches(batches: Sequence[RecordBatch]) -> bytes:
    """Encode a stream of batches."""
    out = bytearray(_STREAM_MAGIC)
    out += struct.pack("<I", len(batches))
    for batch in batches:
        out += serialize_batch(batch)
    return bytes(out)


def deserialize_batches(buf: bytes) -> List[RecordBatch]:
    """Inverse of :func:`serialize_batches`."""
    if buf[:4] != _STREAM_MAGIC:
        raise FormatError("bad batch-stream magic")
    (count,) = _unpack("<I", buf, 4)
    pos = 8
    batches = []
    for _ in range(count):
        batch, pos = _deserialize_batch_at(buf, pos)
        batches.append(batch)
    if pos != len(buf):
        raise FormatError(f"{len(buf) - pos} trailing bytes after stream")
    return batches
