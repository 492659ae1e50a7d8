"""Parcel writer: batches in, self-describing container bytes out."""

from __future__ import annotations

import struct
from typing import Optional, Sequence

import numpy as np

from repro.arrowsim.array import ColumnArray
from repro.arrowsim.record_batch import RecordBatch, concat_batches
from repro.arrowsim.schema import Schema
from repro.compress.registry import get_codec
from repro.errors import FormatError
from repro.formats.encoding import encode_chunk_with_stats
from repro.formats.metadata import (
    MAGIC,
    ChunkMeta,
    ParcelMeta,
    RowGroupMeta,
    encode_footer,
)

__all__ = ["ParcelWriter", "write_table"]


class ParcelWriter:
    """Accumulates batches and finishes into Parcel file bytes.

    Rows buffer until ``row_group_rows`` is reached, then flush as one row
    group; ``finish()`` flushes the remainder and appends the footer.
    """

    def __init__(
        self,
        schema: Schema,
        codec: str = "none",
        row_group_rows: int = 65536,
        lossy_error_bounds: Optional[dict[str, float]] = None,
    ) -> None:
        if row_group_rows < 1:
            raise FormatError("row_group_rows must be >= 1")
        self.schema = schema
        self.codec_name = codec
        self._codec = get_codec(codec)
        self.row_group_rows = row_group_rows
        #: Column -> absolute error bound: opts float64 columns into the
        #: SZ-class lossy encoding (repro.compress.szlike).
        self.lossy_error_bounds = dict(lossy_error_bounds or {})
        for name, bound in self.lossy_error_bounds.items():
            field = schema.field(name)
            if field.dtype.name != "float64":
                raise FormatError(
                    f"lossy bound on {name!r}: only float64 columns, got {field.dtype}"
                )
            if bound <= 0:
                raise FormatError(f"lossy bound on {name!r} must be positive")
        self._pending: list[RecordBatch] = []
        self._pending_rows = 0
        self._body = bytearray(MAGIC)
        self._meta = ParcelMeta(schema=schema)
        self._finished = False

    # -- ingest ------------------------------------------------------------

    def write_batch(self, batch: RecordBatch) -> None:
        """Append rows; flushes full row groups as they fill."""
        if self._finished:
            raise FormatError("writer already finished")
        if batch.schema != self.schema:
            raise FormatError("batch schema does not match writer schema")
        self._pending.append(batch)
        self._pending_rows += batch.num_rows
        while self._pending_rows >= self.row_group_rows:
            self._flush_rows(self.row_group_rows)

    def _take_pending(self, rows: int) -> RecordBatch:
        merged = concat_batches(self._pending)
        head = merged.slice(0, rows)
        tail = merged.slice(rows, merged.num_rows - rows)
        self._pending = [tail] if tail.num_rows else []
        self._pending_rows = tail.num_rows
        return head

    def _flush_rows(self, rows: int) -> None:
        batch = self._take_pending(rows)
        chunks = []
        for field, column in zip(batch.schema, batch.columns):
            bound = self.lossy_error_bounds.get(field.name)
            if bound is not None:
                # Statistics must describe the *stored* (quantized) values,
                # or row-group pruning against them would be unsound.
                column = _quantize_column(column, bound)
            raw, stats = encode_chunk_with_stats(column, lossy_error=bound)
            framed = self._codec.compress(raw)
            chunks.append(
                ChunkMeta(
                    offset=len(self._body),
                    compressed_size=len(framed),
                    uncompressed_size=len(raw),
                    codec=self.codec_name,
                    stats=stats,
                )
            )
            self._body += framed
        self._meta.row_groups.append(RowGroupMeta(num_rows=batch.num_rows, chunks=chunks))

    # -- finish ---------------------------------------------------------------

    def finish(self) -> bytes:
        """Flush pending rows, append the footer, and return the file bytes."""
        if self._finished:
            raise FormatError("writer already finished")
        if self._pending_rows:
            self._flush_rows(self._pending_rows)
        footer = encode_footer(self._meta)
        self._body += footer
        self._body += struct.pack("<I", len(footer))
        self._body += MAGIC
        self._finished = True
        return bytes(self._body)


def _quantize_column(column: ColumnArray, bound: float) -> ColumnArray:
    """Round values onto the SZ quantization grid (finite values only)."""
    values = column.values
    finite = np.isfinite(values)
    quantized = np.where(
        finite, np.round(values / (2.0 * bound)) * (2.0 * bound), values
    )
    return ColumnArray(column.dtype, quantized, column.validity)


def write_table(
    batches: Sequence[RecordBatch],
    codec: str = "none",
    row_group_rows: int = 65536,
    schema: Optional[Schema] = None,
    lossy_error_bounds: Optional[dict[str, float]] = None,
) -> bytes:
    """One-shot convenience: batches -> Parcel bytes."""
    if not batches and schema is None:
        raise FormatError("need at least one batch or an explicit schema")
    writer = ParcelWriter(
        schema if schema is not None else batches[0].schema,
        codec=codec,
        row_group_rows=row_group_rows,
        lossy_error_bounds=lossy_error_bounds,
    )
    for batch in batches:
        writer.write_batch(batch)
    return writer.finish()
