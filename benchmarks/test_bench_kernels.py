"""Micro-benchmarks of the substrate kernels (real wall time, not simulated).

These track the performance of the from-scratch components themselves:
codecs, Parcel encode/decode, Arrow IPC, SQL parsing, vectorized
operators, and Substrait serde.
"""

import numpy as np
import pytest

from repro.arrowsim import RecordBatch
from repro.arrowsim.ipc import deserialize_batch, serialize_batch
from repro.compress import get_codec
from repro.core import build_pushdown_plan
from repro.exec import AggregateSpec, grouped_aggregate
from repro.exec.operators import sort_indices
from repro.formats import ParcelReader, write_table
from repro.sql import analyze, parse
from repro.substrait import deserialize_plan, serialize_plan
from repro.workloads import LAGHOS_QUERY, generate_laghos_file, laghos_schema

ROWS = 65536


@pytest.fixture(scope="module")
def batch() -> RecordBatch:
    return generate_laghos_file(ROWS, timestep=0, seed=3)


@pytest.fixture(scope="module")
def scientific_bytes() -> bytes:
    rng = np.random.default_rng(0)
    return np.round(np.cumsum(rng.normal(0, 0.01, 40_000)), 3).tobytes()


class TestCodecKernels:
    @pytest.mark.parametrize("codec", ["snappy", "gzip", "zstd"])
    def test_compress(self, benchmark, scientific_bytes, codec):
        c = get_codec(codec)
        frame = benchmark(c.compress, scientific_bytes)
        benchmark.extra_info["ratio"] = len(scientific_bytes) / len(frame)

    @pytest.mark.parametrize("codec", ["snappy", "gzip", "zstd"])
    def test_decompress(self, benchmark, scientific_bytes, codec):
        c = get_codec(codec)
        frame = c.compress(scientific_bytes)
        out = benchmark(c.decompress, frame)
        assert out == scientific_bytes


class TestFormatKernels:
    def test_parcel_write(self, benchmark, batch):
        data = benchmark(write_table, [batch])
        benchmark.extra_info["bytes"] = len(data)

    def test_parcel_read(self, benchmark, batch):
        data = write_table([batch])
        out = benchmark(lambda: ParcelReader(data).read_table())
        assert out.num_rows == ROWS

    def test_parcel_read_pruned_columns(self, benchmark, batch):
        data = write_table([batch])
        out = benchmark(lambda: ParcelReader(data).read_table(columns=["x", "e"]))
        assert len(out.schema) == 2

    def test_arrow_serialize(self, benchmark, batch):
        payload = benchmark(serialize_batch, batch)
        benchmark.extra_info["bytes"] = len(payload)

    def test_arrow_deserialize(self, benchmark, batch):
        payload = serialize_batch(batch)
        out = benchmark(deserialize_batch, payload)
        assert out.num_rows == ROWS


class TestQueryKernels:
    def test_sql_parse(self, benchmark):
        stmt = benchmark(parse, LAGHOS_QUERY)
        assert stmt.limit == 100

    def test_analyze(self, benchmark):
        stmt = parse(LAGHOS_QUERY)
        schema = laghos_schema()
        query = benchmark(analyze, stmt, schema)
        assert query.is_aggregate

    def test_grouped_aggregation(self, benchmark, batch):
        specs = [
            AggregateSpec("min", "x", "mn", batch.schema.field("x").dtype),
            AggregateSpec("avg", "e", "av", batch.schema.field("e").dtype),
        ]
        grouped = batch.select(["vertex_id", "x", "e"])
        out = benchmark(grouped_aggregate, grouped, ["vertex_id"], specs)
        assert out.num_rows == ROWS  # every vertex distinct within a file

    def test_multi_key_sort(self, benchmark, batch):
        keys = [("e", True), ("vertex_id", False)]
        idx = benchmark(sort_indices, batch, keys)
        assert len(idx) == ROWS

    def test_substrait_translate_and_serde(self, benchmark):
        from repro.core.optimizer import OcsPlanOptimizer, PushdownPolicy
        from repro.engine.spi import ConnectorTableHandle
        from repro.metastore.catalog import TableDescriptor
        from repro.plan import GlobalOptimizer, plan_query
        from repro.plan.nodes import TableScanNode
        from repro.trace import Tracer

        descriptor = TableDescriptor(
            schema_name="hpc", table_name="laghos", table_schema=laghos_schema(),
            bucket="data", key_prefix="hpc/laghos/",
        )
        plan = GlobalOptimizer().optimize(
            plan_query(analyze(parse(LAGHOS_QUERY), laghos_schema()))
        )
        node = plan
        while node.children():
            node = node.children()[0]
        assert isinstance(node, TableScanNode)
        node.connector_handle = ConnectorTableHandle(descriptor)
        optimizer = OcsPlanOptimizer(PushdownPolicy.all_operators(), 1)
        span = Tracer(clock=lambda: 0.0).start("optimize.local")
        rewritten = optimizer.optimize(plan, span)
        scan = rewritten
        while scan.children():
            scan = scan.children()[0]
        handle = scan.connector_handle

        def translate():
            substrait = build_pushdown_plan(descriptor, handle.pushed)
            return deserialize_plan(serialize_plan(substrait))

        clone = benchmark(translate)
        assert clone.root_names
