"""Experiment environment: datasets once, fresh cluster per query run.

Datasets (object store + metastore) persist across runs; each ``run``
builds a new simulated cluster so clocks, ledgers, and utilization
counters are per-query — the same way each of the paper's measurements
is an isolated query execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.cache.manager import CacheManager
from repro.config import DEFAULT_TESTBED, CacheSpec, FaultSpec, TestbedSpec
from repro.connectors.hive import HiveConnector
from repro.core import OcsConnector, PushdownMonitor, PushdownPolicy
from repro.engine import Cluster, Coordinator, QueryResult, SchedulerSpec, Session
from repro.errors import ConfigError, EngineError
from repro.metastore.catalog import HiveMetastore, TableDescriptor
from repro.objectstore.store import ObjectStore
from repro.analysis.runtime import strict_sanitize_enabled
from repro.rpc.retry import RetryPolicy
from repro.sim.costmodel import DEFAULT_COSTS, CostParams
from repro.workloads.datasets import (
    DatasetSpec,
    build_dataset,
    deepwater_spec,
    laghos_spec,
    lineitem_spec,
)

__all__ = ["RunConfig", "Environment", "paper_environment"]


#: Run modes understood by :meth:`Environment.run`.
RUN_MODES = ("hive-raw", "hive-select", "ocs")


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """One execution configuration (a bar in Figure 5 / 6).

    Keyword-only and validated on construction: a typo'd mode or
    granularity raises :class:`~repro.errors.ConfigError` where the
    config was written, not after the cluster has been built.
    """

    label: str
    #: "hive-raw" (no pushdown), "hive-select" (S3-Select-class), or
    #: "ocs" (Presto-OCS connector with ``policy``).
    mode: str
    policy: Optional[PushdownPolicy] = None
    #: ocs only: "node" (table-level requests) or "file" (per-split).
    split_granularity: str = "node"
    #: hive-raw only: False reproduces the paper's whole-file baseline.
    prune_columns: bool = True
    #: hive-select only: emulate S3 Select's missing float64 support.
    strict_s3_types: bool = True
    #: Injected faults for this run; ``None`` keeps the cluster healthy
    #: (and the Figure 5/6 numbers bit-identical to a fault-free build).
    faults: Optional[FaultSpec] = None
    #: Retry policy for every storage RPC in every mode, and for the
    #: exchange puts of joins.  Its per-call deadline applies to the
    #: pushdown dispatch and exchange puts only; S3-gateway reads retry
    #: without it (see ``Connector.gateway_policy``).
    retry: Optional[RetryPolicy] = None
    #: Run SimTSan (repro.analysis.sanitizer), the happens-before race
    #: detector, over this run's simulator.  None defers to the
    #: process-wide default — on in tests, off in benchmarks (the off
    #: path is zero-cost: digests and simulated time are byte-identical).
    strict_sanitize: Optional[bool] = None
    #: DAG-scheduler policy (speculation, stage restarts — see
    #: docs/SCHEDULER.md).  ``None`` keeps the defaults: speculation off,
    #: restart on exchange faults.
    scheduler: Optional["SchedulerSpec"] = None
    #: Hybrid result/page caching (see docs/CACHE.md).  ``None`` (the
    #: default) disables every tier; runs sharing one
    #: :class:`Environment` and an equal spec share one
    #: :class:`~repro.cache.manager.CacheManager`, so cached state
    #: survives the per-query cluster rebuild.
    cache: Optional[CacheSpec] = None
    #: Rule-driven logical rewriter (see docs/REWRITER.md).  On by
    #: default; off, subquery expressions and WITH clauses reach the
    #: analyzer unrewritten and fail there with a clear diagnostic.
    rewrite: bool = True

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not self.label:
            raise ConfigError("run label must be non-empty")
        if self.mode not in RUN_MODES:
            raise ConfigError(
                f"unknown run mode {self.mode!r}; expected one of {RUN_MODES}"
            )
        if self.split_granularity not in ("node", "file"):
            raise ConfigError(
                f"split_granularity must be 'node' or 'file', "
                f"got {self.split_granularity!r}"
            )

    # Named configurations used throughout the benches -----------------------

    @classmethod
    def none(cls) -> "RunConfig":
        return cls(label="none", mode="hive-raw", prune_columns=False)

    @classmethod
    def filter_only(cls) -> "RunConfig":
        return cls(label="filter", mode="ocs", policy=PushdownPolicy.filter_only())

    @classmethod
    def ocs(cls, label: str, *operators: str, **policy_kwargs) -> "RunConfig":
        return cls(
            label=label, mode="ocs",
            policy=PushdownPolicy.operators(*operators, **policy_kwargs),
        )


@dataclass
class Environment:
    """Shared datasets + per-run cluster construction."""

    testbed: TestbedSpec = field(default_factory=lambda: DEFAULT_TESTBED)
    costs: CostParams = field(default_factory=lambda: DEFAULT_COSTS)
    store: ObjectStore = field(default_factory=ObjectStore)
    metastore: HiveMetastore = field(default_factory=HiveMetastore)
    #: Shared across runs so the sliding-window history accumulates.
    monitor: PushdownMonitor = field(default_factory=PushdownMonitor)
    #: Cache managers memoized per :meth:`CacheSpec.key` — the manager
    #: must outlive the per-query clusters or nothing ever hits.
    _cache_managers: dict = field(default_factory=dict)

    def cache_manager(self, spec: Optional[CacheSpec]) -> Optional[CacheManager]:
        """The environment's shared manager for ``spec`` (None disables)."""
        if spec is None:
            return None
        key = spec.key()
        manager = self._cache_managers.get(key)
        if manager is None:
            manager = CacheManager(spec)
            self._cache_managers[key] = manager
        return manager

    def add_dataset(self, spec: DatasetSpec) -> TableDescriptor:
        return build_dataset(spec, self.store, self.metastore)

    def dataset_bytes(self, descriptor: TableDescriptor) -> int:
        """Total stored bytes of a table (the paper's dataset-size axis)."""
        return sum(
            len(self.store.get_object(descriptor.bucket, key))
            for key in descriptor.files
        )

    def run(
        self,
        sql: str,
        config: RunConfig,
        schema: str,
        catalog: str = "repro",
        *,
        tie_break: str = "fifo",
        observer=None,
    ) -> QueryResult:
        """Execute one query under ``config`` on a fresh cluster.

        ``tie_break``/``observer`` instrument the simulator kernel for
        the determinism harness; the defaults leave runs untouched.

        With ``strict_sanitize`` resolved on (explicitly or via the
        process default), the run executes under SimTSan and any
        same-instant race raises :class:`~repro.errors.SanitizerError`
        at the run boundary.
        """
        cluster = Cluster(
            self.store,
            self.testbed,
            self.costs,
            strict_s3_types=config.strict_s3_types,
            faults=config.faults,
            tie_break=tie_break,
            sim_observer=observer,
            cache=self.cache_manager(config.cache),
        )
        connector = self.build_connector(cluster, config)
        coordinator = Coordinator(
            cluster, {catalog: connector}, scheduler=config.scheduler,
            rewrite=config.rewrite,
        )
        session = Session(catalog=catalog, schema=schema)
        if not strict_sanitize_enabled(config.strict_sanitize):
            return coordinator.execute(sql, session)
        from repro.analysis.sanitizer import install as install_sanitizer

        sanitizer = install_sanitizer(cluster.sim)
        try:
            result = coordinator.execute(sql, session)
        finally:
            sanitizer.uninstall()
        sanitizer.raise_if_races()
        return result

    def explain(
        self,
        sql: str,
        config: RunConfig,
        schema: str,
        catalog: str = "repro",
        analyze: bool = False,
    ) -> str:
        """EXPLAIN under ``config``; with ``analyze=True`` the query runs
        and the output is the recorded span tree."""
        cluster = Cluster(
            self.store, self.testbed, self.costs,
            strict_s3_types=config.strict_s3_types,
            faults=config.faults if analyze else None,
            cache=self.cache_manager(config.cache),
        )
        connector = self.build_connector(cluster, config)
        coordinator = Coordinator(
            cluster, {catalog: connector}, scheduler=config.scheduler,
            rewrite=config.rewrite,
        )
        session = Session(catalog=catalog, schema=schema)
        return coordinator.explain(sql, session, analyze=analyze)

    def build_connector(self, cluster: Cluster, config: RunConfig):
        """Wire the connector ``config`` names onto ``cluster``.

        Public because the query service (:mod:`repro.service`) builds
        one connector per distinct config on its long-lived shared
        cluster, where :meth:`run`'s cluster-per-query model does not
        apply.
        """
        if config.mode == "hive-raw":
            return HiveConnector(
                cluster, self.metastore, mode="raw",
                prune_columns=config.prune_columns, retry_policy=config.retry,
            )
        if config.mode == "hive-select":
            return HiveConnector(
                cluster, self.metastore, mode="select", retry_policy=config.retry
            )
        if config.mode == "ocs":
            policy = config.policy or PushdownPolicy.all_operators()
            return OcsConnector(
                cluster, self.metastore, policy=policy, monitor=self.monitor,
                split_granularity=config.split_granularity,
                retry_policy=config.retry,
            )
        raise EngineError(f"unknown run mode {config.mode!r}")


#: Paper dataset -> (spec helper, raw generator seed, row groups per file).
PAPER_TABLES = {
    "laghos": (laghos_spec, 1, 4),
    "deepwater": (deepwater_spec, 2, 4),
    "tpch": (lineitem_spec, 3, 2),
}


def paper_environment(
    sizes: Mapping[str, Tuple[int, int]],
    *,
    codec: str = "none",
    lossy_error_bounds: Optional[dict] = None,
) -> Environment:
    """The evaluation datasets (Figures 5/6, Table 2, the lossy study).

    ``sizes`` maps each wanted dataset to ``(files, rows per file)`` —
    a row of :data:`repro.bench.scales.SCALES`, or a slice of one.
    """
    env = Environment()
    for dataset, (files, rows) in sizes.items():
        spec, seed, groups = PAPER_TABLES[dataset]
        env.add_dataset(
            spec(
                files, rows, seed, codec=codec,
                row_group_rows=max(2048, rows // groups),
                lossy_error_bounds=lossy_error_bounds,
            )
        )
    return env
