"""The five workloads: datasets, op lists and how one pass executes.

Everything here is built from the stable surface only — ``repro.workloads``
generators, ``repro.client``, ``RunConfig``/``Environment``,
``repro.service`` and package ``__all__`` names — so harness refactors under
``repro.bench`` cannot break the benchmark they are judged by.

A *pass* runs the workload's whole op list once.  Each op is timed on the
host clock (``perf_counter`` and ``process_time``) around the one public call
that does the work; oracle checks happen between ops, outside the timing.
"""

from __future__ import annotations

import hashlib
import random
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter, process_time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.env import Environment, RunConfig
from repro.client import Client, connect
from repro.config import CacheSpec, ServiceSpec
from repro.formats import ParcelReader
from repro.service import QueryService
from repro.workloads import (
    DEEPWATER_QUERY,
    LAGHOS_QUERY,
    TPCH_Q1,
    TPCH_Q3,
    TPCH_Q3_FULL,
    TPCH_Q4,
    TPCH_Q6,
    TPCH_Q12,
    TPCH_Q18,
    DatasetSpec,
    generate_customer,
    generate_deepwater_file,
    generate_laghos_file,
    generate_lineitem,
    generate_orders,
)

from metrics import CODECS
from oracle import Oracle

__all__ = ["FULL", "TINY", "OpResult", "PassResult", "Sizes", "WORKLOADS"]

#: The stable named configurations.  Defaults are benchmarked on purpose: if
#: the fused backend or always-on tracing is better, a later change flips the
#: default and the number moves.
NONE = RunConfig.none()
PRUNED = RunConfig(label="pruned", mode="hive-raw")
FILTER = RunConfig.filter_only()
ALL_OP = RunConfig(label="ocs", mode="ocs")
DYNAMIC = RunConfig.ocs("dynamic", "filter", dynamic_filters=True)


@dataclass(frozen=True)
class Sizes:
    """Dataset and traffic sizes; frozen in ``FULL`` once the run shape fit."""

    #: (files, rows per file) for the two scan workloads.
    scan_laghos: Tuple[int, int]
    scan_deepwater: Tuple[int, int]
    scan_lineitem: Tuple[int, int]
    scan_row_group_rows: int
    #: lineitem and orders share (files, rows per file); one customer file.
    join_fact: Tuple[int, int]
    join_customer_rows: int
    join_row_group_rows: int
    codec_deepwater: Tuple[int, int]
    codec_lineitem: Tuple[int, int]
    codec_row_group_rows: int
    service_lineitem: Tuple[int, int]
    service_laghos: Tuple[int, int]
    service_deepwater: Tuple[int, int]
    service_row_group_rows: int
    #: Templates per query family (four families) and queries per pass.
    service_templates_per_family: int
    service_queries: int
    #: Cache budgets in bytes (result, split, storage tier), chosen below the
    #: working set so that evictions happen.
    service_budgets: Tuple[int, int, int]
    #: Simulated arrival rates in queries per second (lo, nominal, hi).
    service_rates: Tuple[float, float, float]


FULL = Sizes(
    scan_laghos=(8, 98_304),
    scan_deepwater=(4, 262_144),
    scan_lineitem=(4, 37_500),
    scan_row_group_rows=16_384,
    join_fact=(2, 100_000),
    join_customer_rows=20_000,
    join_row_group_rows=8_192,
    codec_deepwater=(1, 12_288),
    codec_lineitem=(1, 3_072),
    codec_row_group_rows=4_096,
    service_lineitem=(4, 4_096),
    service_laghos=(4, 4_096),
    service_deepwater=(4, 8_192),
    service_row_group_rows=2_048,
    service_templates_per_family=24,
    service_queries=240,
    service_budgets=(24_000, 32_000, 48_000),
    service_rates=(8.0, 16.0, 64.0),
)

#: Shrunken sizes for the self-tests.
TINY = Sizes(
    scan_laghos=(2, 4_096),
    scan_deepwater=(2, 4_096),
    scan_lineitem=(2, 2_000),
    scan_row_group_rows=2_048,
    join_fact=(2, 4_000),
    join_customer_rows=1_000,
    join_row_group_rows=2_048,
    codec_deepwater=(1, 2_048),
    codec_lineitem=(1, 512),
    codec_row_group_rows=1_024,
    service_lineitem=(2, 1_024),
    service_laghos=(2, 1_024),
    service_deepwater=(2, 1_024),
    service_row_group_rows=512,
    service_templates_per_family=3,
    service_queries=24,
    service_budgets=(2_000, 3_000, 4_000),
    service_rates=(8.0, 16.0, 400.0),
)


@dataclass
class OpResult:
    """One op of one pass."""

    name: str
    wall_s: float
    cpu_s: float
    #: How many submitted operations this op stands for (a service wave
    #: counts each of its queries) and how many of them failed.
    attempted: int = 1
    failed: int = 0


@dataclass
class PassResult:
    """Everything one pass produced, on both clocks."""

    ops: List[OpResult] = field(default_factory=list)
    #: Simulated seconds of the pass and the per-op simulated latencies.
    sim_pass_s: float = 0.0
    sim_latencies: List[float] = field(default_factory=list)
    moved_bytes: int = 0
    #: Counters the program already exposes, summed over the pass.
    counters: Dict[str, float] = field(default_factory=dict)
    stage_s: Dict[str, float] = field(default_factory=dict)
    #: ``utilization["storage_cores[0]"]`` of each op that pushed work down.
    storage_busy: List[float] = field(default_factory=list)
    #: Simulated seconds and bytes of the most-pushed configuration's ops,
    #: with the same queries' no-pushdown reference beside them.
    pushed_sim_s: float = 0.0
    pushed_moved: int = 0
    reference_sim_s: float = 0.0
    reference_moved: int = 0

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(op.cpu_s for op in self.ops)

    def add(self, counters: Dict[str, float]) -> None:
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value

    def add_query(self, result) -> None:
        """Fold one ``QueryResult``'s counters and stage seconds in."""
        self.add(result.metrics.snapshot())
        for stage, seconds in result.stage_seconds.items():
            self.stage_s[stage] = self.stage_s.get(stage, 0.0) + seconds
        if result.metrics.value("pushdown_operators"):
            self.storage_busy.append(result.utilization.get("storage_cores[0]", 0.0))


def timed(pass_result: PassResult, name: str, call: Callable[[], object],
          recorder=None):
    """Run ``call`` as one op; returns its value, or None when it raised."""
    if recorder is not None:
        recorder.op_id = len(pass_result.ops)
    wall, cpu = perf_counter(), process_time()
    failed = 0
    try:
        value = call()
    except Exception:  # the op boundary: record the failure, keep measuring
        traceback.print_exc()
        value, failed = None, 1
    op = OpResult(name, perf_counter() - wall, process_time() - cpu, failed=failed)
    if recorder is not None:
        recorder.op_id = -1
    pass_result.ops.append(op)
    return value, op


# -- datasets -----------------------------------------------------------------


class Datasets:
    """Registers generated tables and remembers what was written."""

    def __init__(self, client: Client, keep_batches: bool = False) -> None:
        self.client = client
        #: table -> (codec, descriptor, raw in-memory bytes) as last registered.
        self.latest: Dict[str, tuple] = {}
        #: (table, file index) -> first generated batch, kept only where a
        #: decode check needs it (it would otherwise sit in ``peak_rss_mb``).
        self.batches: Optional[Dict[Tuple[str, int], object]] = (
            {} if keep_batches else None
        )

    def register(self, spec: DatasetSpec):
        raw = 0

        def generate(index: int):
            nonlocal raw
            batch = spec.generator(index)
            raw += batch.nbytes
            if self.batches is not None:
                self.batches.setdefault((spec.table_name, index), batch)
            return batch

        descriptor = self.client.register_dataset(replace(spec, generator=generate))
        self.latest[spec.table_name] = (spec.codec, descriptor, raw)
        return descriptor

    def written(self) -> Dict[str, List[int]]:
        """codec -> [stored bytes, raw bytes] over the tables as they stand."""
        out: Dict[str, List[int]] = {}
        for codec, descriptor, raw in self.latest.values():
            totals = out.setdefault(codec, [0, 0])
            totals[0] += self.client.dataset_bytes(descriptor)
            totals[1] += raw
        return out


def stored_ratios(written: Dict[str, List[int]]) -> Dict[str, float]:
    """Space cost per codec, reported beside read and write cost."""
    return {
        f"formats.stored_bytes_per_raw_byte.{codec}": stored / raw
        for codec, (stored, raw) in written.items()
    }


def laghos_spec(seed: int, size: Tuple[int, int], group: int) -> DatasetSpec:
    files, rows = size
    return DatasetSpec(
        "hpc", "laghos", "data", files,
        lambda i: generate_laghos_file(rows, i, seed=seed), row_group_rows=group,
    )


def deepwater_spec(seed: int, size: Tuple[int, int], group: int,
                   codec: str = "none") -> DatasetSpec:
    files, rows = size
    return DatasetSpec(
        "hpc", "deepwater", "data", files,
        lambda i: generate_deepwater_file(rows, i, seed=seed),
        codec=codec, row_group_rows=group,
    )


def lineitem_spec(seed: int, size: Tuple[int, int], group: int,
                  codec: str = "none") -> DatasetSpec:
    files, rows = size
    return DatasetSpec(
        "tpch", "lineitem", "data", files,
        lambda i: generate_lineitem(rows, seed=17 + seed, start_row=i * rows),
        codec=codec, row_group_rows=group,
    )


def orders_spec(seed: int, size: Tuple[int, int], group: int) -> DatasetSpec:
    files, rows = size
    return DatasetSpec(
        "tpch", "orders", "data", files,
        lambda i: generate_orders(rows, seed=19 + seed, start_key=i * rows),
        row_group_rows=group,
    )


def customer_spec(seed: int, rows: int, group: int) -> DatasetSpec:
    return DatasetSpec(
        "tpch", "customer", "data", 1,
        lambda i: generate_customer(rows, seed=23 + seed, start_key=i * rows),
        row_group_rows=group,
    )


# -- batch workloads ----------------------------------------------------------

#: query name -> (sql, schema).
SCAN_QUERIES = {
    "laghos": (LAGHOS_QUERY, "hpc"),
    "deepwater": (DEEPWATER_QUERY, "hpc"),
    "q1": (TPCH_Q1, "tpch"),
    "q6": (TPCH_Q6, "tpch"),
}
JOIN_QUERIES = {
    "q3": (TPCH_Q3, "tpch"),
    "q3_full": (TPCH_Q3_FULL, "tpch"),
    "q4": (TPCH_Q4, "tpch"),
    "q12": (TPCH_Q12, "tpch"),
    "q18": (TPCH_Q18, "tpch"),
}


@dataclass
class BatchState:
    data: Datasets
    oracle: Oracle = field(default_factory=Oracle)
    #: query name -> (simulated seconds, moved bytes) of the reference run.
    reference: Dict[str, Tuple[float, int]] = field(default_factory=dict)

    @property
    def client(self) -> Client:
        return self.data.client


def run_query(state, pass_result: PassResult, query: str,
              sql_and_schema: Tuple[str, str], config: RunConfig, recorder,
              headline: bool = False, tag: str = "") -> None:
    """One query op on a fresh cluster, checked against the reference."""
    sql, schema = sql_and_schema
    result, op = timed(
        pass_result, f"{query}/{config.label}{tag}",
        lambda: state.client.execute(sql, config, schema=schema), recorder,
    )
    if result is None:
        return
    if not state.oracle.check(query, result.batch):
        op.failed = 1
    pass_result.sim_pass_s += result.execution_seconds
    pass_result.sim_latencies.append(result.execution_seconds)
    pass_result.moved_bytes += result.data_moved_bytes
    pass_result.add_query(result)
    if headline:
        reference_sim, reference_moved = state.reference[query]
        pass_result.pushed_sim_s += result.execution_seconds
        pass_result.pushed_moved += result.data_moved_bytes
        pass_result.reference_sim_s += reference_sim
        pass_result.reference_moved += reference_moved


def run_reference(state, queries: Dict[str, Tuple[str, str]]) -> None:
    """Each distinct query once, untimed, no pushdown, caching off."""
    for query, (sql, schema) in queries.items():
        result = state.client.execute(sql, NONE, schema=schema)
        state.oracle.expect(query, result.batch)
        state.reference[query] = (result.execution_seconds, result.data_moved_bytes)


@dataclass(frozen=True)
class BatchWorkload:
    """Queries x configurations over datasets registered once in set-up."""

    name: str
    why: str
    queries: Dict[str, Tuple[str, str]]
    configs: Tuple[RunConfig, ...]
    specs: Callable[[int, Sizes], Sequence[DatasetSpec]]
    #: Label of the most-pushed configuration (feeds ``core.*`` headlines).
    headline: Optional[str] = None

    def setup(self, seed: int, sizes: Sizes) -> BatchState:
        data = Datasets(connect())
        for spec in self.specs(seed, sizes):
            data.register(spec)
        return BatchState(data)

    def reference(self, state: BatchState) -> None:
        run_reference(state, self.queries)

    def run_pass(self, state: BatchState, recorder=None) -> PassResult:
        out = PassResult()
        for query, sql_and_schema in self.queries.items():
            for config in self.configs:
                run_query(
                    state, out, query, sql_and_schema, config, recorder,
                    headline=config.label == self.headline,
                )
        return out

    def extras(self, state: BatchState) -> Dict[str, float]:
        return stored_ratios(state.data.written())


def _scan_specs(seed: int, sizes: Sizes) -> List[DatasetSpec]:
    group = sizes.scan_row_group_rows
    return [
        laghos_spec(seed, sizes.scan_laghos, group),
        deepwater_spec(seed, sizes.scan_deepwater, group),
        lineitem_spec(seed, sizes.scan_lineitem, group),
    ]


def _join_specs(seed: int, sizes: Sizes) -> List[DatasetSpec]:
    group = sizes.join_row_group_rows
    return [
        lineitem_spec(seed, sizes.join_fact, group),
        orders_spec(seed, sizes.join_fact, group),
        customer_spec(seed, sizes.join_customer_rows, group),
    ]


# -- codec_ingest -------------------------------------------------------------


class CodecIngest:
    """Writes beside reads: re-encode under each codec, then query it."""

    name = "codec_ingest"
    why = ("writes beside reads under none/snappy/gzip/zstd: encode, compress, "
           "PUT and stats, then the pure-Python decoders; a decode gain bought "
           "with a slower or fatter encoding shows here")
    queries = {"deepwater": SCAN_QUERIES["deepwater"], "q6": SCAN_QUERIES["q6"]}

    def _specs(self, seed: int, sizes: Sizes, codec: str) -> List[DatasetSpec]:
        group = sizes.codec_row_group_rows
        return [
            deepwater_spec(seed, sizes.codec_deepwater, group, codec),
            lineitem_spec(seed, sizes.codec_lineitem, group, codec),
        ]

    def setup(self, seed: int, sizes: Sizes) -> "CodecState":
        state = CodecState(
            Datasets(connect(), keep_batches=True),
            specs={codec: self._specs(seed, sizes, codec) for codec in CODECS},
        )
        for spec in state.specs["none"]:
            state.data.register(spec)
        return state

    def reference(self, state: "CodecState") -> None:
        run_reference(state, self.queries)

    def _decodes(self, state: "CodecState", spec: DatasetSpec, descriptor) -> bool:
        """Stored bytes decode to the generated batch.

        A full decode is paid once per distinct stored object; encoding is
        deterministic, so later passes compare the bytes' digest.
        """
        store = state.client.environment.store
        totals = state.written.setdefault(spec.codec, [0, 0])
        totals[1] += state.data.latest[spec.table_name][2]
        for index, key in enumerate(descriptor.files):
            data = store.get_object(descriptor.bucket, key)
            totals[0] += len(data)
            digest = hashlib.sha256(data).hexdigest()
            if state.verified.get((spec.codec, key)) == digest:
                continue
            expected = state.data.batches[(spec.table_name, index)]
            if not ParcelReader(data).read_table().equals(expected):
                return False
            state.verified[(spec.codec, key)] = digest
        return True

    def run_pass(self, state: "CodecState", recorder=None) -> PassResult:
        out = PassResult()
        # Each pass re-counts what it wrote, so the ratio covers one pass.
        state.written.clear()
        for codec in CODECS:
            for spec in state.specs[codec]:
                descriptor, op = timed(
                    out, f"ingest/{spec.table_name}/{codec}",
                    lambda: state.data.register(spec), recorder,
                )
                if descriptor is not None and not self._decodes(state, spec, descriptor):
                    op.failed = 1
            for query, sql_and_schema in self.queries.items():
                for config in (FILTER, ALL_OP):
                    run_query(
                        state, out, query, sql_and_schema, config, recorder,
                        headline=config is ALL_OP, tag=f"/{codec}",
                    )
        return out

    def extras(self, state: "CodecState") -> Dict[str, float]:
        return stored_ratios(state.written)


@dataclass
class CodecState(BatchState):
    #: codec -> the two dataset specs re-registered under it.
    specs: Dict[str, List[DatasetSpec]] = field(default_factory=dict)
    #: (codec, object key) -> sha256 of stored bytes that decoded correctly.
    verified: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: codec -> [stored bytes, raw bytes] written by the current pass.
    written: Dict[str, List[int]] = field(default_factory=dict)


# -- service_mix --------------------------------------------------------------

TENANT_OF_FAMILY = {"q1": "analytics", "q6": "analytics",
                    "laghos": "hpc", "deepwater": "impact"}


@dataclass(frozen=True)
class Template:
    family: str
    sql: str
    schema: str

    @property
    def tenant(self) -> str:
        return TENANT_OF_FAMILY[self.family]

    @property
    def versioned(self) -> bool:
        """Whether the mid-pass lineitem ingest changes this query's answer."""
        return self.schema == "tpch"


def service_templates(per_family: int) -> List[Template]:
    """Parameterised single-table variants of Q1, Q6, Laghos and Deep Water."""
    out: List[Template] = []
    for k in range(per_family):
        out.append(Template("q1", (
            "SELECT returnflag, linestatus, SUM(quantity) AS sum_qty, "
            "AVG(extendedprice) AS avg_price, COUNT(*) AS count_order "
            "FROM lineitem WHERE shipdate <= DATE '1998-09-02' "
            f"AND discount >= {k * 0.004:.3f} "
            "GROUP BY returnflag, linestatus ORDER BY returnflag, linestatus"
        ), "tpch"))
        out.append(Template("q6", (
            "SELECT SUM(extendedprice * discount) AS revenue FROM lineitem "
            "WHERE shipdate >= DATE '1994-01-01' AND shipdate < DATE '1995-01-01' "
            f"AND discount BETWEEN 0.05 AND 0.07 AND quantity < {10 + k}"
        ), "tpch"))
        out.append(Template("laghos", (
            "SELECT min(vertex_id) AS vid, min(x) AS min_x, avg(e) AS avg_e "
            f"FROM laghos WHERE x BETWEEN {0.4 + k * 0.05:.2f} AND 3.2 "
            "AND y BETWEEN 0.8 AND 3.2 AND z BETWEEN 0.8 AND 3.2 "
            "GROUP BY vertex_id ORDER BY avg_e LIMIT 100"
        ), "hpc"))
        out.append(Template("deepwater", (
            "SELECT MAX((rowid % (500 * 500)) / 500) AS max_coord, timestep "
            f"FROM deepwater WHERE v02 > {0.05 + k * 0.01:.2f} GROUP BY timestep"
        ), "hpc"))
    return out


@dataclass
class ServiceState:
    data: Datasets
    sizes: Sizes
    templates: List[Template]
    #: Template index of each query, in submission order.
    sequence: List[int]
    #: Arrival offsets within a wave, in units of the wave's span (0..1].
    arrivals: List[float]
    #: The two lineitem versions: "a" before the mid-pass ingest, "b" after.
    lineitem: Dict[str, DatasetSpec]
    oracle: Oracle = field(default_factory=Oracle)
    #: The last pass's ``SLOReport``.
    report: object = None

    @property
    def client(self) -> Client:
        return self.data.client


class ServiceMix:
    """Open-loop multi-tenant traffic on one shared cluster, caches on."""

    name = "service_mix"
    why = ("open-loop traffic from 3 tenants, caches below the working set, a "
           "mid-run re-ingest: the only workload where sql/plan, cache, admission, "
           "tracing and the event kernel dominate, and the only queue")
    spec = ServiceSpec(max_active_queries=4, policy="fair")

    def config(self, sizes: Sizes) -> RunConfig:
        result, split, storage = sizes.service_budgets
        return RunConfig(
            label="service", mode="ocs",
            cache=CacheSpec(result_budget_bytes=result, split_budget_bytes=split,
                            storage_budget_bytes=storage),
        )

    def setup(self, seed: int, sizes: Sizes) -> ServiceState:
        group = sizes.service_row_group_rows
        lineitem = {
            "a": lineitem_spec(seed, sizes.service_lineitem, group),
            # New seed, new bytes: serving a pre-ingest result is a mismatch.
            "b": lineitem_spec(seed + 7919, sizes.service_lineitem, group),
        }
        data = Datasets(connect())
        data.register(lineitem["a"])
        data.register(laghos_spec(seed, sizes.service_laghos, group))
        data.register(deepwater_spec(seed, sizes.service_deepwater, group))

        templates = service_templates(sizes.service_templates_per_family)
        # The traffic is part of the workload's definition, not of the seed:
        # --seed changes what the tables hold, never who asks what and when.
        # Tail latency under an open loop depends on which cold queries
        # happen to coincide; re-drawing the schedule per seed moved
        # sim_latency_p95_s by 18% between seeds (README, "Seeds").
        rng = random.Random(SCHEDULE_SEED)
        queries = sizes.service_queries
        # A fixed multiset: every template 2 or 3 times, so reuse is 0.6.
        sequence = [i % len(templates) for i in range(queries)]
        rng.shuffle(sequence)
        # Poisson gaps rescaled so each wave's last arrival lands on its
        # span: the offered rate is exact, the spacing is exponential.
        wave = queries // 2
        gaps = [rng.expovariate(1.0) for _ in range(wave)]
        total = sum(gaps)
        arrivals, at = [], 0.0
        for gap in gaps:
            at += gap
            arrivals.append(at / total)
        return ServiceState(data, sizes, templates, sequence, arrivals, lineitem)

    def reference(self, state: ServiceState) -> None:
        def expect(version: str, templates) -> None:
            for index, template in templates:
                result = state.client.execute(
                    template.sql, NONE, schema=template.schema
                )
                state.oracle.expect((index, version), result.batch)

        indexed = list(enumerate(state.templates))
        expect("a", indexed)
        state.data.register(state.lineitem["b"])
        expect("b", [(i, t) for i, t in indexed if t.versioned])
        state.data.register(state.lineitem["a"])

    def run_pass(self, state: ServiceState, recorder=None,
                 rate: Optional[float] = None) -> PassResult:
        sizes = state.sizes
        rate = sizes.service_rates[1] if rate is None else rate
        out = PassResult()
        wave = len(state.arrivals)
        span = wave / rate
        handles: List[Tuple[int, str, object]] = []
        base = state.client.environment

        def start():
            # A fresh view of the same store: cold caches, empty monitor.
            env = Environment(
                testbed=base.testbed, costs=base.costs,
                store=base.store, metastore=base.metastore,
            )
            return QueryService(env, self.spec, base_config=self.config(sizes))

        def run_wave(service: QueryService, which: int, version: str):
            origin = service.sim.now
            for offset, index in zip(
                state.arrivals, state.sequence[which * wave:(which + 1) * wave]
            ):
                template = state.templates[index]
                handles.append((index, version if template.versioned else "a",
                                service.submit(
                                    template.sql, tenant=template.tenant,
                                    schema=template.schema, at=origin + offset * span,
                                )))
            service.drain()

        def check_wave(op: OpResult, which: int) -> None:
            good = sum(
                handle.status() == "succeeded"
                and state.oracle.check((index, version), handle.result().batch)
                for index, version, handle in handles[which * wave:(which + 1) * wave]
            )
            op.attempted, op.failed = wave, wave - good

        service, _ = timed(out, "service/start", start, recorder)
        if service is None:
            return out
        _, op = timed(out, "wave/1", lambda: run_wave(service, 0, "a"), recorder)
        check_wave(op, 0)
        timed(out, "ingest/lineitem",
              lambda: state.data.register(state.lineitem["b"]), recorder)
        _, op = timed(out, "wave/2", lambda: run_wave(service, 1, "b"), recorder)
        check_wave(op, 1)
        report, _ = timed(out, "service/report", service.report, recorder)
        # Untimed: put version "a" back so every pass starts from the same data.
        state.data.register(state.lineitem["a"])
        if report is None:
            return out

        state.report = report
        out.sim_pass_s = report.makespan_s
        out.sim_latencies = [
            handle.latency_seconds for _, _, handle in handles
            if handle.status() == "succeeded"
        ]
        out.moved_bytes = service.cluster.bytes_to_compute()
        for _, _, handle in handles:
            if handle.status() == "succeeded":
                out.add_query(handle.result())
        stats = service.cache.stats()
        tiers = [stats[tier] for tier in ("result", "split", "storage")]
        out.add({
            "cache.result_hits": stats["result"]["hits"],
            "cache.result_lookups": stats["result"]["hits"] + stats["result"]["misses"],
            "cache.split_hits": stats["split"]["hits"],
            "cache.page_hits": stats["storage"]["hits"],
            "cache.evictions": sum(tier["evictions"] for tier in tiers),
            "cache.stale_drops": sum(tier["stale_drops"] for tier in tiers),
            "service.completed": report.completed,
            "service.rejected": _refused(report),
        })
        return out

    def extras(self, state: ServiceState) -> Dict[str, float]:
        """The rate sweep: the same mix once each at r_lo and r_hi (untimed)."""
        lo, nominal, hi = state.sizes.service_rates
        reports = {nominal: state.report}
        for rate in (lo, hi):
            self.run_pass(state, rate=rate)
            reports[rate] = state.report
        return {
            **stored_ratios(state.data.written()),
            "service.queue_wait_s_mean": reports[nominal].mean_queue_wait_s,
            "service.exec_s_mean": reports[nominal].mean_execution_s,
            "service.sim_p95_s.r_lo": reports[lo].p95_latency_s,
            "service.sim_p95_s.r_hi": reports[hi].p95_latency_s,
            "service.rejected.r_hi": _refused(reports[hi]),
            "service.max_rate_within_slo_qps": max(
                (rate for rate, report in reports.items()
                 if report.p95_latency_s <= SLO_P95_S and _refused(report) == 0),
                default=0.0,
            ),
        }


def _refused(report) -> int:
    """Queries of an ``SLOReport`` that did not complete."""
    return report.rejected + report.timed_out + report.failed


#: The latency limit of the rate sweep: simulated p95 and zero rejections.
SLO_P95_S = 1.0
#: Seeds the template order and the arrival gaps of ``service_mix``.
SCHEDULE_SEED = 20250926

WORKLOADS = {
    workload.name: workload
    for workload in (
        BatchWorkload(
            "scan_pushdown",
            "the paper's contribution path (core, substrait, rpc, OCS engine, "
            "decode at storage, Arrow IPC back): filter-only is link-heavy, "
            "all-operator is OCS-engine-heavy; compute-side exec idles",
            SCAN_QUERIES, (FILTER, ALL_OP), _scan_specs, headline="ocs",
        ),
        BatchWorkload(
            "scan_baseline",
            "same data and queries with no pushdown (whole-file and pruned "
            "ranged GETs): bypasses core/substrait/ocs, so a pushdown "
            "optimisation predicts no change and an exec one shows only here",
            SCAN_QUERIES, (NONE, PRUNED), _scan_specs,
        ),
        BatchWorkload(
            "join_exchange",
            "TPC-H Q3/Q3_FULL/Q4/Q12/Q18, static vs dynamic-filter pushdown: "
            "the only workload where rewrite, exchange, hash join and the DAG "
            "scheduler carry weight",
            JOIN_QUERIES, (FILTER, DYNAMIC), _join_specs, headline="dynamic",
        ),
        CodecIngest(),
        ServiceMix(),
    )
}
