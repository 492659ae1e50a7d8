"""Arrow-class in-memory columnar format with IPC serialization.

OCS returns query results to Presto workers as Apache Arrow record
batches (paper Section 2.3); this package is our from-scratch equivalent:
typed columnar arrays over numpy buffers, validity bitmaps for nulls,
schemas, record batches, and a compact binary IPC encoding whose byte
counts feed the simulated network transfers.

(De)serialization here is nearly free — buffers are memcpy'd — which is
why the paper returns Arrow results rather than row-oriented CSV/JSON.
"""

from repro.arrowsim.dtypes import (
    BOOL,
    DATE32,
    DataType,
    FLOAT32,
    FLOAT64,
    INT32,
    INT64,
    STRING,
    dtype_from_code,
    dtype_from_numpy,
)
from repro.arrowsim.schema import Field, Schema
from repro.arrowsim.array import ColumnArray
from repro.arrowsim.record_batch import RecordBatch, concat_batches
from repro.arrowsim.ipc import deserialize_batch, deserialize_batches, serialize_batch, serialize_batches

__all__ = [
    "BOOL",
    "ColumnArray",
    "DATE32",
    "DataType",
    "FLOAT32",
    "FLOAT64",
    "Field",
    "INT32",
    "INT64",
    "RecordBatch",
    "STRING",
    "Schema",
    "concat_batches",
    "deserialize_batch",
    "deserialize_batches",
    "dtype_from_code",
    "dtype_from_numpy",
    "serialize_batch",
    "serialize_batches",
]
