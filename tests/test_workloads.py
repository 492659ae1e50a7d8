"""Unit tests for the workload generators (Table 2 selectivity contracts)."""

import dataclasses
import datetime
import hashlib

import numpy as np
import pytest

from repro.arrowsim.dtypes import DATE32, FLOAT64, INT64, STRING
from repro.metastore.catalog import HiveMetastore
from repro.objectstore.store import ObjectStore
from repro.workloads import (
    DatasetSpec,
    build_dataset,
    customer_spec,
    deepwater_schema,
    deepwater_spec,
    generate_customer,
    generate_deepwater_file,
    generate_laghos_file,
    generate_lineitem,
    generate_orders,
    laghos_schema,
    laghos_spec,
    lineitem_schema,
    lineitem_spec,
    orders_spec,
)
from repro.workloads.tpch import SF1_ROWS


class TestLaghos:
    def test_schema_matches_paper(self):
        schema = laghos_schema()
        assert len(schema) == 10  # paper: 10 columns per file
        assert schema.field("vertex_id").dtype is INT64
        for name in ("x", "y", "z", "e"):
            assert schema.field(name).dtype is FLOAT64

    def test_vertex_ids_repeat_across_timesteps(self):
        a = generate_laghos_file(1000, timestep=0, seed=1)
        b = generate_laghos_file(1000, timestep=5, seed=1)
        assert a.column("vertex_id").to_pylist() == b.column("vertex_id").to_pylist()

    def test_positions_in_domain(self):
        batch = generate_laghos_file(5000, timestep=3, seed=2)
        for axis in ("x", "y", "z"):
            values = batch.column(axis).values
            assert values.min() >= 0.0
            assert values.max() < 4.0

    def test_filter_selectivity_near_volume_fraction(self):
        # (2.4/4)^3 = 21.6%; mesh jitter keeps it close.
        batch = generate_laghos_file(50_000, timestep=0, seed=3)
        mask = np.ones(50_000, dtype=bool)
        for axis in ("x", "y", "z"):
            v = batch.column(axis).values
            mask &= (v >= 0.8) & (v <= 3.2)
        assert 0.17 < mask.mean() < 0.27

    def test_fields_evolve_with_timestep(self):
        a = generate_laghos_file(1000, timestep=0, seed=1)
        b = generate_laghos_file(1000, timestep=1, seed=1)
        assert not np.array_equal(a.column("e").values, b.column("e").values)

    def test_deterministic(self):
        a = generate_laghos_file(500, timestep=2, seed=9)
        b = generate_laghos_file(500, timestep=2, seed=9)
        assert a.equals(b)


class TestDeepWater:
    def test_schema_matches_paper(self):
        schema = deepwater_schema()
        assert len(schema) == 4  # paper: 4 columns per file
        assert schema.field("v02").dtype is FLOAT64
        assert schema.field("timestep").dtype is INT64

    def test_filter_selectivity_near_paper(self):
        # Paper: 30 GB -> 5.37 GB at v02 > 0.1 (~18% pass).
        batch = generate_deepwater_file(100_000, timestep=0, seed=4)
        passing = (batch.column("v02").values > 0.1).mean()
        assert 0.13 < passing < 0.24

    def test_timestep_constant_per_file(self):
        batch = generate_deepwater_file(1000, timestep=7, seed=1)
        values = set(batch.column("timestep").to_pylist())
        assert values == {7}

    def test_rowid_is_cell_index(self):
        batch = generate_deepwater_file(1000, timestep=0, seed=1)
        assert batch.column("rowid").to_pylist() == list(range(1000))

    def test_quantized_fields_compress(self):
        from repro.formats import write_table

        batch = generate_deepwater_file(30_000, timestep=0, seed=5)
        plain = write_table([batch], codec="none")
        packed = write_table([batch], codec="zstd")
        assert len(packed) < 0.6 * len(plain)


class TestLineitem:
    def test_schema_is_full_tpch(self):
        schema = lineitem_schema()
        assert len(schema) == 16  # all spec columns
        assert schema.field("shipdate").dtype is DATE32
        assert schema.field("returnflag").dtype is STRING
        assert schema.field("extendedprice").dtype is FLOAT64

    def test_sf1_row_count_constant(self):
        assert SF1_ROWS == 6_001_215

    def test_q1_groups_are_exactly_four(self):
        batch = generate_lineitem(50_000, seed=1)
        pairs = set(
            zip(
                batch.column("returnflag").to_pylist(),
                batch.column("linestatus").to_pylist(),
            )
        )
        assert pairs == {("A", "F"), ("N", "F"), ("N", "O"), ("R", "F")}

    def test_q1_predicate_passes_most_rows(self):
        batch = generate_lineitem(50_000, seed=2)
        cutoff = (datetime.date(1998, 9, 2) - datetime.date(1970, 1, 1)).days
        passing = (batch.column("shipdate").values <= cutoff).mean()
        assert passing > 0.95  # paper: 98.97%

    def test_value_domains(self):
        batch = generate_lineitem(20_000, seed=3)
        quantity = batch.column("quantity").values
        assert quantity.min() >= 1 and quantity.max() <= 50
        discount = batch.column("discount").values
        assert discount.min() >= 0.0 and discount.max() <= 0.10 + 1e-9
        tax = batch.column("tax").values
        assert tax.max() <= 0.08 + 1e-9

    def test_date_ordering_invariants(self):
        batch = generate_lineitem(20_000, seed=4)
        ship = batch.column("shipdate").values
        receipt = batch.column("receiptdate").values
        assert (receipt > ship).all()  # received after shipped

    def test_linenumbers_restart_per_order(self):
        batch = generate_lineitem(5_000, seed=5)
        orders = batch.column("orderkey").values
        lines = batch.column("linenumber").values
        firsts = np.flatnonzero(np.diff(orders, prepend=orders[0] - 1))
        assert (lines[firsts] == 1).all()
        assert lines.max() <= 7

    def test_start_row_offsets_orderkeys(self):
        a = generate_lineitem(100, seed=1, start_row=0)
        b = generate_lineitem(100, seed=1, start_row=100)
        assert max(a.column("orderkey").to_pylist()) < min(
            b.column("orderkey").to_pylist()
        )


def _stored_sha256(spec: DatasetSpec) -> str:
    store = ObjectStore()
    descriptor = build_dataset(spec, store, HiveMetastore())
    digest = hashlib.sha256()
    for key in descriptor.files:
        digest.update(key.encode())
        digest.update(store.get_object(descriptor.bucket, key))
    return digest.hexdigest()


class TestSpecHelpers:
    """Each ``*_spec`` helper stores, byte for byte, what the hand-written
    literal it replaced across ``repro.bench`` stored."""

    @pytest.mark.parametrize(
        "helper,literal",
        [
            (
                laghos_spec(2, 3000, 5, row_group_rows=1024),
                DatasetSpec(
                    "hpc", "laghos", "data", 2,
                    lambda i: generate_laghos_file(3000, i, seed=5),
                    row_group_rows=1024,
                ),
            ),
            (
                deepwater_spec(
                    2, 3000, 2, codec="zstd", row_group_rows=2048,
                    lossy_error_bounds={"v02": 1e-4, "snd": 1e-4},
                ),
                DatasetSpec(
                    "hpc", "deepwater", "data", 2,
                    lambda i: generate_deepwater_file(3000, i, seed=2),
                    codec="zstd", row_group_rows=2048,
                    lossy_error_bounds={"v02": 1e-4, "snd": 1e-4},
                ),
            ),
            (
                lineitem_spec(2, 2500, 17, row_group_rows=2048),
                DatasetSpec(
                    schema_name="tpch", table_name="lineitem", bucket="data",
                    file_count=2,
                    generator=lambda i: generate_lineitem(
                        2500, seed=17, start_row=i * 2500
                    ),
                    row_group_rows=2048,
                ),
            ),
            (
                orders_spec(2, 2500, 19, codec="snappy"),
                DatasetSpec(
                    schema_name="tpch", table_name="orders", bucket="data",
                    file_count=2,
                    generator=lambda i: generate_orders(
                        2500, seed=19, start_key=i * 2500
                    ),
                    codec="snappy",
                ),
            ),
            (
                customer_spec(2, 1000, 23, bucket="warehouse"),
                DatasetSpec(
                    schema_name="tpch", table_name="customer", bucket="warehouse",
                    file_count=2,
                    generator=lambda i: generate_customer(
                        1000, seed=23, start_key=i * 1000
                    ),
                ),
            ),
        ],
        ids=["laghos", "deepwater", "lineitem", "orders", "customer"],
    )
    def test_helper_stores_the_literals_bytes(self, helper, literal):
        assert dataclasses.replace(helper, generator=None) == dataclasses.replace(
            literal, generator=None
        )
        assert _stored_sha256(helper) == _stored_sha256(literal)
