"""S3-Select-class API: filter + column projection, CSV out. Nothing more.

Reproduces the constraints the paper holds against S3 Select / MinIO
Select (Section 2.2):

* only WHERE-clause filtering and column projection — no aggregation,
  no sort, no limit, no expression projection;
* row-oriented output (CSV) rather than columnar Arrow;
* **no double-precision floating point** when ``strict_types`` is on
  (the default, as in real S3 Select) — the reason the API is unusable
  for scientific datasets and the evaluation's filter-only baselines run
  through OCS restricted to filter pushdown instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.arrowsim.dtypes import FLOAT64
from repro.arrowsim.record_batch import RecordBatch, concat_batches
from repro.errors import SelectError, UnsupportedTypeError
from repro.exec.expressions import (
    AndExpr,
    ColumnExpr,
    CompareExpr,
    Expr,
    InExpr,
    IsNullExpr,
    LiteralExpr,
    NotExpr,
    OrExpr,
)
from repro.formats.reader import ParcelReader
from repro.objectstore.store import ObjectStore

__all__ = [
    "SELECT_PREDICATE_NODES", "S3SelectRequest", "S3SelectResult", "S3SelectService",
    "rows_to_csv", "csv_to_batch",
]

#: The only expression nodes a Select WHERE clause may hold: filters over
#: plain columns and literals.
SELECT_PREDICATE_NODES = (
    AndExpr, OrExpr, NotExpr, CompareExpr, InExpr, IsNullExpr, ColumnExpr, LiteralExpr,
)


@dataclass(frozen=True)
class S3SelectRequest:
    """One SELECT <columns> FROM s3object WHERE <predicate> request.

    Rows always come back as CSV, one of the row-oriented formats the
    real API offers (Section 2.2: results "returned in traditional
    row-oriented formats (CSV, JSON)").
    """

    bucket: str
    key: str
    columns: Sequence[str]
    predicate: Optional[Expr] = None


@dataclass
class S3SelectResult:
    """Result rows (CSV payload + decoded batch) with scan accounting."""

    csv_payload: bytes
    batch: RecordBatch
    rows_scanned: int
    rows_returned: int
    #: Bytes read from the object as stored (compressed).
    stored_bytes_scanned: int
    #: Bytes after decompression (what the decoder streamed through).
    uncompressed_bytes_scanned: int
    codec: str = "none"


class S3SelectService:
    """Executes Select requests against Parcel objects in a store."""

    def __init__(self, store: ObjectStore, strict_types: bool = True) -> None:
        self.store = store
        #: When True (real S3 Select behaviour), double-precision columns
        #: are rejected. Disable to emulate a hypothetical extended API.
        self.strict_types = strict_types

    # -- validation -------------------------------------------------------------

    def _validate_predicate(self, predicate: Expr) -> None:
        for node in predicate.walk():
            if not isinstance(node, SELECT_PREDICATE_NODES):
                raise SelectError(
                    f"S3 Select cannot evaluate {type(node).__name__} "
                    "(only filters over plain columns are supported)"
                )

    def _check_types(self, reader: ParcelReader, columns: Sequence[str], predicate: Optional[Expr]) -> None:
        if not self.strict_types:
            return
        referenced = set(columns)
        if predicate is not None:
            referenced |= predicate.column_refs()
        for name in sorted(referenced):
            if reader.schema.field(name).dtype is FLOAT64:
                raise UnsupportedTypeError(
                    f"column {name!r} is double precision; S3 Select does not "
                    "support float64 (paper Section 2.2)"
                )

    # -- execution ----------------------------------------------------------------

    def select(self, request: S3SelectRequest) -> S3SelectResult:
        """Run one request over one object, returning CSV rows."""
        data = self.store.get_object(request.bucket, request.key)
        reader = ParcelReader(data)
        if request.predicate is not None:
            self._validate_predicate(request.predicate)
        columns = list(request.columns)
        for name in columns:
            if name not in reader.schema:
                raise SelectError(f"unknown column {name!r} in {request.key}")
        self._check_types(reader, columns, request.predicate)

        needed = set(columns)
        if request.predicate is not None:
            needed |= request.predicate.column_refs()
        read_columns = [n for n in reader.schema.names() if n in needed]

        batches: List[RecordBatch] = []
        rows_scanned = 0
        stored = 0
        uncompressed = 0
        codec = "none"
        for rg_index in range(reader.num_row_groups):
            rg_batch = reader.read_row_group(rg_index, read_columns)
            rows_scanned += rg_batch.num_rows
            stored += reader.chunk_bytes(rg_index, read_columns)
            uncompressed += reader.uncompressed_chunk_bytes(rg_index, read_columns)
            codec = reader.meta.row_groups[rg_index].chunks[0].codec
            if request.predicate is not None:
                mask_col = request.predicate.evaluate(rg_batch)
                mask = mask_col.values.astype(bool) & mask_col.is_valid()
                rg_batch = rg_batch.filter(mask)
            batches.append(rg_batch.select(columns))
        result = (
            concat_batches(batches)
            if batches
            else RecordBatch.empty(reader.schema.select(columns))
        )
        return S3SelectResult(
            csv_payload=rows_to_csv(result),
            batch=result,
            rows_scanned=rows_scanned,
            rows_returned=result.num_rows,
            stored_bytes_scanned=stored,
            uncompressed_bytes_scanned=uncompressed,
            codec=codec,
        )


def rows_to_csv(batch: RecordBatch) -> bytes:
    """Row-oriented serialization (the S3 Select transport format)."""
    if batch.num_rows == 0:
        return b""
    columns = [col.to_pylist() for col in batch.columns]
    lines = []
    for row in zip(*columns):
        lines.append(",".join("" if v is None else _csv_value(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _csv_value(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str) and ("," in value or "\n" in value or '"' in value):
        escaped = value.replace('"', '""')
        return f'"{escaped}"'
    return str(value)


def csv_to_batch(payload: bytes, schema):
    """Parse a Select CSV payload back into a typed batch.

    This is the compute-side work the Hive connector performs on every
    S3-Select response — the expensive row-oriented parse the paper
    contrasts with Arrow's columnar transport.  Known CSV lossiness: an
    empty cell decodes as NULL, so empty strings round-trip as NULL (the
    transport format cannot distinguish them).
    """
    import csv as _csv
    import io

    text = payload.decode("utf-8")
    columns: List[List[object]] = [[] for _ in schema]
    for row in _csv.reader(io.StringIO(text)):
        if not row:
            # A fully-NULL row of a one-column projection is a blank line.
            row = [""] * len(schema)
        if len(row) != len(schema):
            raise SelectError(
                f"CSV row has {len(row)} fields, schema expects {len(schema)}"
            )
        for i, (field, cell) in enumerate(zip(schema, row)):
            if cell == "":
                columns[i].append(None)
            elif field.dtype.name == "string":
                columns[i].append(cell)
            elif field.dtype.is_floating:
                columns[i].append(float(cell))
            elif field.dtype.name == "bool":
                columns[i].append(cell == "True")
            else:
                columns[i].append(int(cell))
    return RecordBatch.from_pydict(
        schema, {f.name: columns[i] for i, f in enumerate(schema)}
    )
