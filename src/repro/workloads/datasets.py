"""Dataset builder: generate -> Parcel-encode -> store -> register -> analyze.

One call stands up a complete table: objects in the store (one Parcel
file per generated batch), a metastore entry, and collected statistics —
everything the engine, the connectors, and the selectivity analyzer need.

The five ``*_spec`` helpers are the one vocabulary for the paper's table
shapes: each says how a table is laid out across files (which generator,
how its per-file offset keeps keys dense) and takes the *raw* generator
seed, because result digests pin the exact seed every harness uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.arrowsim.record_batch import RecordBatch
from repro.errors import NoSuchBucketError
from repro.formats.writer import write_table
from repro.metastore.catalog import HiveMetastore, TableDescriptor
from repro.metastore.collector import collect_table_statistics
from repro.objectstore.store import ObjectStore
from repro.workloads.deepwater import generate_deepwater_file
from repro.workloads.laghos import generate_laghos_file
from repro.workloads.tpch import generate_customer, generate_lineitem, generate_orders

__all__ = [
    "DatasetSpec",
    "build_dataset",
    "customer_spec",
    "deepwater_spec",
    "laghos_spec",
    "lineitem_spec",
    "orders_spec",
]


@dataclass(frozen=True)
class DatasetSpec:
    """How to materialize one table."""

    schema_name: str
    table_name: str
    bucket: str
    file_count: int
    #: file index -> one file's rows.
    generator: Callable[[int], RecordBatch]
    codec: str = "none"
    row_group_rows: int = 65536
    #: Column -> absolute error bound for SZ-class lossy float encoding.
    lossy_error_bounds: Optional[dict] = None

    @property
    def key_prefix(self) -> str:
        return f"{self.schema_name}/{self.table_name}/"


def _spec(
    schema_name: str,
    table_name: str,
    files: int,
    generator: Callable[[int], RecordBatch],
    *,
    bucket: str = "data",
    **storage: Any,
) -> DatasetSpec:
    return DatasetSpec(schema_name, table_name, bucket, files, generator, **storage)


def laghos_spec(files: int, rows: int, seed: int, **storage: Any) -> DatasetSpec:
    """``hpc.laghos``: ``files`` timesteps of one ``rows``-vertex mesh.

    ``storage`` is the rest of :class:`DatasetSpec` — ``bucket`` (default
    ``"data"``), ``codec``, ``row_group_rows``, ``lossy_error_bounds`` —
    and means the same on all five helpers.
    """
    return _spec(
        "hpc", "laghos", files,
        lambda i: generate_laghos_file(rows, i, seed=seed), **storage,
    )


def deepwater_spec(files: int, rows: int, seed: int, **storage: Any) -> DatasetSpec:
    """``hpc.deepwater``: ``files`` timesteps of ``rows`` cells each."""
    return _spec(
        "hpc", "deepwater", files,
        lambda i: generate_deepwater_file(rows, i, seed=seed), **storage,
    )


def lineitem_spec(files: int, rows: int, seed: int, **storage: Any) -> DatasetSpec:
    """``tpch.lineitem``: file ``i`` continues the order keys at row ``i * rows``."""
    return _spec(
        "tpch", "lineitem", files,
        lambda i: generate_lineitem(rows, seed=seed, start_row=i * rows), **storage,
    )


def orders_spec(files: int, rows: int, seed: int, **storage: Any) -> DatasetSpec:
    """``tpch.orders``: dense order keys, so an equally laid out lineitem joins."""
    return _spec(
        "tpch", "orders", files,
        lambda i: generate_orders(rows, seed=seed, start_key=i * rows), **storage,
    )


def customer_spec(files: int, rows: int, seed: int, **storage: Any) -> DatasetSpec:
    """``tpch.customer``: dense customer keys from 1."""
    return _spec(
        "tpch", "customer", files,
        lambda i: generate_customer(rows, seed=seed, start_key=i * rows), **storage,
    )


def build_dataset(
    spec: DatasetSpec, store: ObjectStore, metastore: HiveMetastore
) -> TableDescriptor:
    """Materialize ``spec``; returns the registered, analyzed descriptor."""
    try:
        store.bucket(spec.bucket)
    except NoSuchBucketError:
        store.create_bucket(spec.bucket)
    metastore.create_schema(spec.schema_name)

    files: List[str] = []
    table_schema = None
    for index in range(spec.file_count):
        batch = spec.generator(index)
        if table_schema is None:
            table_schema = batch.schema
        data = write_table(
            [batch],
            codec=spec.codec,
            row_group_rows=spec.row_group_rows,
            lossy_error_bounds=spec.lossy_error_bounds,
        )
        key = f"{spec.key_prefix}part-{index:05d}.parcel"
        store.put_object(spec.bucket, key, data)
        files.append(key)
    assert table_schema is not None, "dataset needs at least one file"

    descriptor = TableDescriptor(
        schema_name=spec.schema_name,
        table_name=spec.table_name,
        table_schema=table_schema,
        bucket=spec.bucket,
        key_prefix=spec.key_prefix,
        files=files,
        codec=spec.codec,
    )
    if metastore.has_table(spec.schema_name, spec.table_name):
        metastore.drop_table(spec.schema_name, spec.table_name)
    metastore.register_table(descriptor)
    collect_table_statistics(descriptor, store)
    return descriptor
