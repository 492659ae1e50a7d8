"""Cluster wiring: simulated nodes, links, OCS services, S3 gateway.

One :class:`Cluster` is built per query run so the clock, ledgers, and
utilization counters are per-query.  Topology follows Table 1 / Figure 4:

    compute (Presto) <--10GbE--> OCS frontend <--10GbE--> storage node(s)

All storage traffic — raw GETs, S3-Select results, OCS Arrow results —
crosses the compute<->frontend link, whose ledger is the paper's
"data movement from OCS to Presto" metric.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import FaultSpec, TestbedSpec
from repro.exchange.shuffle import ExchangeFabric
from repro.objectstore.store import ObjectStore
from repro.ocs.frontend import OcsFrontend
from repro.ocs.storage_node import OcsStorageNode
from repro.rpc.channel import RpcClient
from repro.sim.costmodel import CostParams
from repro.sim.faults import FaultInjector
from repro.sim.kernel import Simulator
from repro.sim.network import Link
from repro.sim.node import SimNode
from repro.sim.resources import Resource
from repro.trace import Tracer
from repro.engine.gateway import S3Gateway

__all__ = ["Cluster"]


class Cluster:
    """A fully wired simulated testbed for one query execution."""

    def __init__(
        self,
        store: ObjectStore,
        testbed: TestbedSpec,
        costs: CostParams,
        strict_s3_types: bool = True,
        faults: Optional[FaultSpec] = None,
        tie_break: str = "fifo",
        sim_observer=None,
        cache=None,
    ) -> None:
        self.testbed = testbed
        self.costs = costs
        self.store = store
        #: Optional :class:`~repro.cache.manager.CacheManager`.  The manager
        #: outlives the cluster (clusters are per-query); each storage node
        #: borrows its per-node page-cache tier from it, and the
        #: coordinator reads the result/split tiers off this handle.
        self.cache = cache
        #: tie_break/sim_observer feed the determinism harness
        #: (repro.analysis.determinism); production runs use the defaults.
        self.sim = Simulator(tie_break=tie_break, observer=sim_observer)
        #: One tracer shared by every component on the cluster, bound to
        #: the simulated clock.  Always on; it charges no simulated time.
        self.tracer = Tracer(clock=lambda: self.sim.now)
        #: Per-run fault state (None when the run is healthy).
        self.faults = FaultInjector(faults) if faults is not None else None

        self.compute = SimNode(self.sim, testbed.compute)
        self.frontend = SimNode(self.sim, testbed.frontend)
        self.storage: List[SimNode] = []
        net = testbed.network
        self.link_cf = Link(
            self.sim, net.bandwidth_bps, net.latency_s,
            name="compute-frontend", faults=self.faults,
        )
        self.links_fs: List[Link] = []
        self.storage_nodes: List[OcsStorageNode] = []
        for i in range(testbed.storage_node_count):
            # Distinct node names keep per-node ledgers separable.
            spec = testbed.storage
            if testbed.storage_node_count > 1:
                spec = type(spec)(**{**spec.__dict__, "name": f"{spec.name}-{i}"})
            node = SimNode(self.sim, spec)
            self.storage.append(node)
            self.links_fs.append(
                Link(
                    self.sim, net.bandwidth_bps, net.latency_s,
                    name=f"frontend-storage-{i}", faults=self.faults,
                )
            )
            self.storage_nodes.append(
                OcsStorageNode(
                    self.sim, node, store, costs, i, tracer=self.tracer,
                    page_cache=cache.storage_tier(i) if cache is not None else None,
                )
            )

        self.ocs_frontend = OcsFrontend(
            self.sim, self.frontend, self.storage_nodes, self.links_fs, costs,
            faults=self.faults, tracer=self.tracer,
        )
        self.s3_gateway = S3Gateway(
            self.sim,
            self.frontend,
            self.storage,
            self.links_fs,
            store,
            costs,
            strict_types=strict_s3_types,
            tracer=self.tracer,
        )
        # Both services live on the frontend; the compute node reaches them
        # over the same physical link.
        self.ocs_client = RpcClient(
            self.sim, self.compute, self.link_cf, self.ocs_frontend.service, costs,
            tracer=self.tracer,
        )
        self.s3_client = RpcClient(
            self.sim, self.compute, self.link_cf, self.s3_gateway.service, costs,
            tracer=self.tracer,
        )
        #: Presto processes each split through a single-threaded driver;
        #: this pool is the worker's scan concurrency (cost model doc).
        self.scan_drivers = Resource(self.sim, costs.scan_stream_concurrency)

        #: Worker-to-worker shuffle path.  The exchange fabric lives on
        #: the compute node; pages cross a dedicated link (same class of
        #: 10GbE as the storage path) so shuffle traffic is ledgered
        #: separately from storage->compute movement and the fault
        #: injector can drop shuffle frames independently.
        self.link_exchange = Link(
            self.sim, net.bandwidth_bps, net.latency_s,
            name="exchange", faults=self.faults,
        )
        self.exchange = ExchangeFabric(
            self.sim, self.compute, costs, tracer=self.tracer
        )
        self.exchange_client = RpcClient(
            self.sim, self.compute, self.link_exchange, self.exchange.service,
            costs, tracer=self.tracer,
        )

    # -- placement -------------------------------------------------------------

    def node_for_key(self, index: int) -> int:
        """Round-robin object placement across storage nodes."""
        return index % len(self.storage_nodes)

    # -- load signals ----------------------------------------------------------

    def storage_queue_depth(self) -> int:
        """Deepest storage-node core queue right now (backpressure signal).

        The query service defers dispatching new queries while this
        exceeds its configured threshold — the OASIS observation that
        contention on storage-side compute is what breaks offloading
        under concurrency.
        """
        return max((node.cores.queue_length for node in self.storage), default=0)

    # -- reporting ----------------------------------------------------------------

    def bytes_to_compute(self) -> int:
        """Data movement from the storage layer into Presto (paper metric)."""
        return self.link_cf.ledger.total_bytes(dst=self.compute.name)

    def bytes_from_compute(self) -> int:
        return self.link_cf.ledger.total_bytes(src=self.compute.name)

    def shuffle_bytes(self) -> int:
        """Bytes moved worker-to-worker over the exchange link."""
        return self.link_exchange.ledger.total_bytes(dst=self.compute.name)
