"""Connector Service Provider Interface (SPI).

Mirrors the Presto SPI surface the paper builds on (Section 3.4):

* ``ConnectorTableHandle`` — opaque per-connector table state; the
  Presto-OCS connector's local optimizer *enriches* its handle with the
  operators it pushes down.
* ``ConnectorSplit`` — one schedulable unit of scan work.
* ``Connector.page_source`` — the PageSourceProvider: a DES generator
  that talks to storage over simulated links and resolves to a
  :class:`PageSourceResult`.
* ``ConnectorPlanOptimizer`` — the local-optimizer hook invoked after
  global optimization (Figure 3, step 4).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Any, Generator, Hashable, List, Optional

from repro.arrowsim.record_batch import RecordBatch
from repro.arrowsim.schema import Schema
from repro.metastore.catalog import TableDescriptor
from repro.plan.nodes import PlanNode
from repro.rpc.retry import RetryPolicy
from repro.trace import Span

__all__ = [
    "ConnectorTableHandle",
    "ConnectorSplit",
    "PageSourceResult",
    "ConnectorPlanOptimizer",
    "Connector",
]


@dataclass
class ConnectorTableHandle:
    """Base table handle: the catalog descriptor plus connector state."""

    descriptor: TableDescriptor

    @property
    def table_schema(self) -> Schema:
        return self.descriptor.table_schema


@dataclass(frozen=True)
class ConnectorSplit:
    """One unit of scan work assigned to a worker driver."""

    split_id: int
    #: Object keys this split covers (one file for raw scans; every key on
    #: a storage node for OCS table-level pushdown).
    keys: tuple
    #: Which storage node serves this split.
    node_index: int = 0


@dataclass
class PageSourceResult:
    """What a page source delivers to the worker's pipeline."""

    batches: List[RecordBatch]
    #: Payload bytes that crossed into the compute layer for this split.
    bytes_received: int = 0
    #: Compute-side cycles to materialize the pages (Arrow
    #: deserialize or Parcel decode — charged by the worker driver).
    ingest_cycles: float = 0.0


class ConnectorPlanOptimizer(ABC):
    """Connector hook into the coordinator's local-optimization phase."""

    @abstractmethod
    def optimize(self, plan: PlanNode, span: Span) -> PlanNode:
        """Rewrite ``plan`` (e.g. collapse pushdown-eligible operators).

        ``span`` is the local-optimization span; decisions are counted
        on it (``span.add``).
        """


class Connector(ABC):
    """A pluggable storage backend."""

    name: str = "connector"
    #: Whether the page source blocks on computation at storage (a pushdown
    #: round trip) before it delivers pages.  Such a split holds no scan
    #: driver while it waits, as a Presto driver whose page source is
    #: blocked yields its thread: it takes one only after the page source
    #: returns, for ingest and the split-local operators.  Otherwise (the
    #: default) the split holds its driver from before the page source
    #: opens, because the page source *is* the worker's ingest stream —
    #: the Hive raw path's single stream is the no-pushdown calibration.
    page_source_blocks: bool = False
    #: Retry policy of this connector's storage RPCs and of the exchange
    #: puts of joins over its tables (no deadline by default).
    retry_policy: RetryPolicy = RetryPolicy()

    def __init__(self, retry_policy: Optional[RetryPolicy] = None) -> None:
        if retry_policy is not None:
            self.retry_policy = retry_policy
        #: Every S3-gateway call (GET_TAIL, GET_RANGES) in every mode
        #: retries under ``retry_policy`` *without* its per-call deadline.
        #: Only the pushdown dispatch has a fallback below it, so only there
        #: can a timeout buy a faster path; a gateway read is the fallback or
        #: the baseline, and a deadline would just fail a slow read.
        self.gateway_policy = replace(self.retry_policy, deadline_s=None)

    @abstractmethod
    def get_table_handle(self, schema: str, table: str) -> ConnectorTableHandle:
        """Resolve a table to a handle (metadata phase)."""

    @abstractmethod
    def get_splits(self, handle: ConnectorTableHandle) -> List[ConnectorSplit]:
        """Partition the scan into schedulable splits."""

    @abstractmethod
    def page_source(
        self,
        handle: ConnectorTableHandle,
        split: ConnectorSplit,
        trace: Span,
    ) -> Generator:
        """DES generator resolving to a :class:`PageSourceResult`.

        ``trace`` is the split's span; connectors parent their data-path
        spans (IR generation, RPC attempts, fallback GETs) under it and
        count each piece of work on the span that did it.

        A scan that a join's dynamic filter prunes also gets a keyword
        ``dynamic_filter``: a DES generator function of one span to
        parent the wait under, returning once the filter is published
        into the handle's pushed operators (and raising the build's
        error if it failed).  Only a connector that pushes a plan gets
        one.
        """

    def plan_optimizer(self) -> Optional[ConnectorPlanOptimizer]:
        """The connector's local optimizer, if it has one."""
        return None

    def plan_identity(self) -> Optional[Hashable]:
        """Every setting of this connector that shapes a statement's plan,
        or ``None`` (the default): its statements skip the plan tier.

        The plan tier (:mod:`repro.cache`) keys prepared plans on it:
        connectors built from different run configurations share one
        cache manager, and must never be served each other's plans.
        """
        return None

    def end_query(self, handle: Any) -> None:
        """The query that scanned ``handle`` has ended: drop what the
        connector kept on it for that query's splits.  A finished query's
        record keeps its branches, and with them their handles.  Nothing
        by default."""

    def speculative_page_source(
        self,
        handle: ConnectorTableHandle,
        split: ConnectorSplit,
        trace: Span,
    ) -> Optional[Generator]:
        """An *alternative* page source for straggler speculation.

        The scheduler launches this as a backup attempt when ``split``'s
        primary page source is straggling (e.g. a degraded storage
        node's pushdown engine running slow).  The backup must produce
        batches byte-identical to the primary's — speculation may change
        latency, never results.  Connectors with no alternative data
        path return ``None`` (the default): that split then simply
        waits for its primary.
        """
        return None
