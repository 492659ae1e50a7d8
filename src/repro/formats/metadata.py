"""Parcel footer metadata: file/row-group/chunk descriptors + binary serde.

File layout::

    "PARC"                      4-byte head magic
    row-group 0 column chunks   (codec-framed chunk bodies, back to back)
    row-group 1 column chunks
    ...
    footer                      (schema + row-group/chunk metadata)
    u32 footer length
    "PARC"                      4-byte tail magic

Readers seek to the tail, read the footer length, then parse the footer —
the standard Parquet trick that makes column pruning a couple of ranged
reads instead of a full-file scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.arrowsim.schema import Schema, decode_schema, encode_schema
from repro.errors import FormatError
from repro.formats.statistics import ColumnStats, decode_stat_value, encode_stat_value
from repro.wire import Reader, put_varint

__all__ = ["ChunkMeta", "RowGroupMeta", "ParcelMeta", "MAGIC"]

MAGIC = b"PARC"


@dataclass(frozen=True)
class ChunkMeta:
    """Location + stats of one column chunk within the file."""

    offset: int
    compressed_size: int
    uncompressed_size: int
    codec: str
    stats: ColumnStats


@dataclass(frozen=True)
class RowGroupMeta:
    """One horizontal stripe: per-column chunk metadata."""

    num_rows: int
    chunks: List[ChunkMeta]


@dataclass
class ParcelMeta:
    """Everything the footer records."""

    schema: Schema
    row_groups: List[RowGroupMeta] = field(default_factory=list)

    @property
    def num_rows(self) -> int:
        return sum(rg.num_rows for rg in self.row_groups)

    def column_stats(self, name: str) -> ColumnStats:
        """Table-level stats for one column, merged across row groups."""
        idx = self.schema.index_of(name)
        merged = None
        for rg in self.row_groups:
            stats = rg.chunks[idx].stats
            merged = stats if merged is None else merged.merge(stats)
        if merged is None:
            return ColumnStats(0, 0, 0, None, None)
        return merged


# -- binary serde --------------------------------------------------------------


def encode_footer(meta: ParcelMeta) -> bytes:
    """Serialize the footer (without length/tail magic)."""
    out = bytearray(encode_schema(meta.schema))
    put_varint(out, len(meta.row_groups))
    for rg in meta.row_groups:
        put_varint(out, rg.num_rows)
        if len(rg.chunks) != len(meta.schema):
            raise FormatError("row group chunk count != schema width")
        for f, chunk in zip(meta.schema, rg.chunks):
            put_varint(out, chunk.offset)
            put_varint(out, chunk.compressed_size)
            put_varint(out, chunk.uncompressed_size)
            codec_name = chunk.codec.encode("ascii")
            out += bytes([len(codec_name)]) + codec_name
            stats = chunk.stats
            put_varint(out, stats.row_count)
            put_varint(out, stats.null_count)
            put_varint(out, stats.ndv)
            out += encode_stat_value(f.dtype, stats.min_value)
            out += encode_stat_value(f.dtype, stats.max_value)
    return bytes(out)


def decode_footer(buf: bytes) -> ParcelMeta:
    """Inverse of :func:`encode_footer`."""
    r = Reader(buf, FormatError)
    schema = decode_schema(r)
    row_groups = []
    # A chunk's metadata is at least 9 bytes: six varints, the codec name's
    # length byte and two absent-bound flags.
    for _ in range(r.count(1 + 9 * len(schema))):
        num_rows = r.varint()
        chunks = []
        for f in schema:
            offset, compressed, uncompressed = r.varint(), r.varint(), r.varint()
            codec = r.text(r.u8())
            stats = ColumnStats(
                r.varint(),
                r.varint(),
                r.varint(),
                decode_stat_value(f.dtype, r),
                decode_stat_value(f.dtype, r),
            )
            chunks.append(ChunkMeta(offset, compressed, uncompressed, codec, stats))
        row_groups.append(RowGroupMeta(num_rows, chunks))
    r.done()
    return ParcelMeta(schema, row_groups)
