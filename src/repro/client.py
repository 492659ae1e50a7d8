"""repro.client — the one-stop facade over the reproduction stack.

Wraps dataset construction, cluster wiring, and query execution behind
three calls, mirroring how a database driver feels::

    from repro import connect
    from repro.workloads import DatasetSpec

    client = connect()
    client.register_dataset(DatasetSpec(...))
    result = client.execute("SELECT count(*) AS n FROM readings")
    print(result.rows, result.execution_seconds)
    print(client.explain("SELECT ...", analyze=True))

``connect()`` fixes the session-wide knobs (testbed, cost model, fault
injection, retry policy); per-query knobs ride on an optional
:class:`~repro.bench.env.RunConfig`.  Session-level defaults fill any
per-query field left unset, so ``connect(faults=...)`` applies to every
query unless a query's config overrides it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.bench.env import Environment, RunConfig
from repro.config import FaultSpec, ServiceSpec, TestbedSpec
from repro.engine.coordinator import QueryResult
from repro.engine.dag import Stage, StageGraph
from repro.engine.scheduler import DagScheduler, SchedulerSpec
from repro.errors import ConfigError
from repro.metastore.catalog import TableDescriptor
from repro.rpc.retry import RetryPolicy
from repro.service.jobs import QueryHandle
from repro.sim.costmodel import CostParams
from repro.workloads.datasets import DatasetSpec

__all__ = [
    "connect",
    "Client",
    "DEFAULT_CONFIG",
    # Stage-DAG scheduler API, re-exported for embedders: build graphs
    # (Stage/StageGraph), run them (DagScheduler), tune policy
    # (SchedulerSpec, e.g. ``RunConfig(scheduler=...)``).
    "Stage",
    "StageGraph",
    "DagScheduler",
    "SchedulerSpec",
]

#: Per-query default: the paper's full-pushdown Presto-OCS configuration.
DEFAULT_CONFIG = RunConfig(label="ocs", mode="ocs")


def connect(
    *,
    testbed: Optional[TestbedSpec] = None,
    costs: Optional[CostParams] = None,
    faults: Optional[FaultSpec] = None,
    retry: Optional[RetryPolicy] = None,
    catalog: str = "repro",
    service: Optional[ServiceSpec] = None,
) -> "Client":
    """Open a simulated deployment and return a :class:`Client` for it.

    All arguments are keyword-only session defaults:

    * ``testbed`` / ``costs`` — hardware and cost model (Table 1 defaults);
    * ``faults`` — fault injection applied to every query unless a query
      config carries its own :class:`~repro.config.FaultSpec`;
    * ``retry`` — retry policy for every storage RPC in every mode (its
      deadline applies to pushdown dispatches and exchange puts only);
    * ``catalog`` — catalog name queries resolve against;
    * ``service`` — admission/scheduling limits for :meth:`Client.submit`
      (defaults apply when omitted; see :class:`~repro.config.ServiceSpec`).
    """
    kwargs = {}
    if testbed is not None:
        kwargs["testbed"] = testbed
    if costs is not None:
        kwargs["costs"] = costs
    return Client(
        environment=Environment(**kwargs),
        faults=faults,
        retry=retry,
        catalog=catalog,
        service_spec=service,
    )


@dataclass
class Client:
    """A connected session: registered datasets + query execution."""

    environment: Environment = field(default_factory=Environment)
    faults: Optional[FaultSpec] = None
    retry: Optional[RetryPolicy] = None
    catalog: str = "repro"
    #: Admission/scheduling limits for :meth:`submit`; None = defaults.
    service_spec: Optional[ServiceSpec] = None
    _schemas: Dict[str, int] = field(default_factory=dict)
    _service: Optional[object] = field(default=None, repr=False)

    # -- datasets --------------------------------------------------------------

    def register_dataset(self, spec: DatasetSpec) -> TableDescriptor:
        """Build ``spec`` in the object store and register it."""
        descriptor = self.environment.add_dataset(spec)
        self._schemas[spec.schema_name] = self._schemas.get(spec.schema_name, 0) + 1
        return descriptor

    def dataset_bytes(self, descriptor: TableDescriptor) -> int:
        return self.environment.dataset_bytes(descriptor)

    @property
    def monitor(self):
        """The shared pushdown monitor (sliding-window history)."""
        return self.environment.monitor

    # -- queries ---------------------------------------------------------------

    def execute(
        self,
        sql: str,
        config: Optional[RunConfig] = None,
        schema: Optional[str] = None,
    ) -> QueryResult:
        """Run one statement; session defaults fill unset config fields."""
        return self.environment.run(
            sql,
            self._effective_config(config),
            schema=self._resolve_schema(schema),
            catalog=self.catalog,
        )

    def explain(
        self,
        sql: str,
        config: Optional[RunConfig] = None,
        schema: Optional[str] = None,
        analyze: bool = False,
    ) -> str:
        """EXPLAIN (or, with ``analyze=True``, EXPLAIN ANALYZE) one query."""
        return self.environment.explain(
            sql,
            self._effective_config(config),
            schema=self._resolve_schema(schema),
            catalog=self.catalog,
            analyze=analyze,
        )

    # -- concurrent submission -------------------------------------------------

    def submit(
        self,
        sql: str,
        config: Optional[RunConfig] = None,
        schema: Optional[str] = None,
        *,
        tenant: str = "default",
        at: Optional[float] = None,
        memory_bytes: Optional[int] = None,
        label: Optional[str] = None,
    ) -> QueryHandle:
        """Submit without waiting; returns a :class:`QueryHandle`.

        Unlike :meth:`execute` (one fresh cluster per query), submitted
        queries share one long-lived simulated cluster and pass through
        the multi-tenant service's admission control and scheduler
        (:mod:`repro.service`), so concurrent submissions contend for
        the same workers and storage nodes.  ``handle.result()`` drives
        the simulation to that query's completion; :meth:`gather`
        finishes everything in flight.
        """
        return self._query_service().submit(
            sql,
            tenant=tenant,
            schema=self._resolve_schema(schema),
            config=self._effective_config(config),
            at=at,
            memory_bytes=memory_bytes,
            label=label,
        )

    def gather(self, *handles: QueryHandle) -> list:
        """Drain the service; return ``handles``' results in order.

        Raises the first submission's error if one failed or was
        rejected (inspect ``handle.status()`` / ``handle.exception()``
        first to handle rejections without raising).
        """
        service = self._query_service()
        service.drain()
        return [handle.result() for handle in handles]

    def service_report(self):
        """SLO report over every :meth:`submit` so far (drains first)."""
        return self._query_service().report()

    def _query_service(self):
        if self._service is None:
            from repro.service.service import QueryService

            self._service = QueryService(
                self.environment,
                self.service_spec,
                catalog=self.catalog,
                base_config=self._effective_config(None),
            )
        return self._service

    # -- internals -------------------------------------------------------------

    def _effective_config(self, config: Optional[RunConfig]) -> RunConfig:
        config = config if config is not None else DEFAULT_CONFIG
        updates = {}
        if config.faults is None and self.faults is not None:
            updates["faults"] = self.faults
        if config.retry is None and self.retry is not None:
            updates["retry"] = self.retry
        return replace(config, **updates) if updates else config

    def _resolve_schema(self, schema: Optional[str]) -> str:
        if schema is not None:
            return schema
        if len(self._schemas) == 1:
            return next(iter(self._schemas))
        if not self._schemas:
            raise ConfigError("no datasets registered; call register_dataset first")
        raise ConfigError(
            f"multiple schemas registered ({sorted(self._schemas)}); "
            f"pass schema=... to disambiguate"
        )
