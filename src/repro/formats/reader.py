"""Parcel reader: footer-driven, column-pruning, stats-exposing."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.arrowsim.record_batch import RecordBatch, concat_batches
from repro.arrowsim.schema import Schema
from repro.compress.registry import get_codec
from repro.errors import FormatError
from repro.formats.encoding import decode_chunk
from repro.formats.metadata import MAGIC, ChunkMeta, ParcelMeta, decode_footer
from repro.formats.statistics import ColumnStats
from repro.wire import Reader

__all__ = ["ParcelReader", "decode_row_group", "footer_length_from_tail", "meta_from_tail"]


def footer_length_from_tail(tail8: bytes) -> int:
    """Footer byte count from the file's final 8 bytes (length + magic)."""
    r = Reader(tail8[-8:], FormatError)
    footer_len = r.u32()
    r.expect(MAGIC, "Parcel tail")
    return footer_len


def meta_from_tail(tail: bytes) -> ParcelMeta:
    """Parse file metadata from the last ``footer_len + 8`` bytes.

    Remote readers fetch the tail with a ranged GET (8 bytes for the
    length, then the footer) instead of pulling the whole object — the
    same two-request dance Parquet readers do against S3.
    """
    footer_len = footer_length_from_tail(tail)
    if len(tail) < footer_len + 8:
        raise FormatError(
            f"tail of {len(tail)} bytes does not contain the {footer_len}-byte footer"
        )
    return decode_footer(tail[len(tail) - 8 - footer_len : len(tail) - 8])


def decode_row_group(
    meta: ParcelMeta,
    rg_index: int,
    names: Sequence[str],
    stored: Callable[[ChunkMeta], bytes],
) -> RecordBatch:
    """Decode the ``names`` columns of one row group: the one chunk-decode loop.

    ``stored(chunk)`` returns a chunk's stored bytes: a slice of the whole
    object (:class:`ParcelReader`) or of a ranged-GET reply (the Hive raw
    path).  Each chunk is decompressed, held to the footer's
    ``uncompressed_size`` (:class:`FormatError` if it differs) and decoded.
    """
    if not 0 <= rg_index < len(meta.row_groups):
        raise FormatError(
            f"row group {rg_index} out of range ({len(meta.row_groups)} groups)"
        )
    rg = meta.row_groups[rg_index]
    schema = meta.schema.select(names)
    columns = []
    for name in names:
        chunk = rg.chunks[meta.schema.index_of(name)]
        raw = get_codec(chunk.codec).decompress(stored(chunk))
        if len(raw) != chunk.uncompressed_size:
            raise FormatError(
                f"chunk for {name!r} decompressed to {len(raw)} bytes, "
                f"footer says {chunk.uncompressed_size}"
            )
        columns.append(decode_chunk(schema.field(name).dtype, raw, rg.num_rows))
    return RecordBatch(schema, columns)


class ParcelReader:
    """Random-access reader over in-memory Parcel file bytes.

    ``read_row_group(i, columns=...)`` touches only the requested column
    chunks — the byte counts it reports are what a ranged-GET reader would
    pull over the network, which is how the no-pushdown baseline's data
    movement is measured.
    """

    def __init__(self, buf: bytes) -> None:
        if len(buf) < 12 or buf[:4] != MAGIC:
            raise FormatError("not a Parcel file (bad magic)")
        #: Chunks are handed to the codec as views: no copy before decode.
        self._buf = memoryview(buf)
        # What follows the head magic is a tail that must hold the footer.
        self.meta: ParcelMeta = meta_from_tail(self._buf[4:])

    # -- introspection ---------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self.meta.schema

    @property
    def num_rows(self) -> int:
        return self.meta.num_rows

    @property
    def num_row_groups(self) -> int:
        return len(self.meta.row_groups)

    @property
    def file_size(self) -> int:
        return len(self._buf)

    def column_stats(self, name: str) -> ColumnStats:
        return self.meta.column_stats(name)

    def row_group_stats(self, rg_index: int, name: str) -> ColumnStats:
        rg = self.meta.row_groups[rg_index]
        return rg.chunks[self.schema.index_of(name)].stats

    def chunk_bytes(self, rg_index: int, columns: Optional[Sequence[str]] = None) -> int:
        """Stored (compressed) bytes the given columns occupy in one row group."""
        rg = self.meta.row_groups[rg_index]
        names = list(columns) if columns is not None else self.schema.names()
        return sum(rg.chunks[self.schema.index_of(n)].compressed_size for n in names)

    def uncompressed_chunk_bytes(
        self, rg_index: int, columns: Optional[Sequence[str]] = None
    ) -> int:
        """Decoded chunk-body bytes for the given columns in one row group."""
        rg = self.meta.row_groups[rg_index]
        names = list(columns) if columns is not None else self.schema.names()
        return sum(rg.chunks[self.schema.index_of(n)].uncompressed_size for n in names)

    # -- data access ---------------------------------------------------------------

    def read_row_group(
        self, rg_index: int, columns: Optional[Sequence[str]] = None
    ) -> RecordBatch:
        """Decode one row group, restricted to ``columns`` if given."""
        names = list(columns) if columns is not None else self.schema.names()
        buf = self._buf
        return decode_row_group(
            self.meta, rg_index, names,
            lambda chunk: buf[chunk.offset : chunk.offset + chunk.compressed_size],
        )

    def read_table(self, columns: Optional[Sequence[str]] = None) -> RecordBatch:
        """Decode and concatenate every row group."""
        if self.num_row_groups == 0:
            names = list(columns) if columns is not None else self.schema.names()
            return RecordBatch.empty(self.schema.select(names))
        batches = [
            self.read_row_group(i, columns) for i in range(self.num_row_groups)
        ]
        return concat_batches(batches)
