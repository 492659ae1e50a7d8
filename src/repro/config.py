"""Testbed configuration mirroring the paper's Table 1.

The paper evaluates on three physical machines:

* a **compute node** running a single-node Presto deployment
  (Xeon Gold 6226R, 64 cores @ 2.9 GHz, 384 GB RAM, 1 TB NVMe),
* an **OCS frontend node** (Xeon Silver 4410Y, 48 cores @ 3.9 GHz,
  64 GB RAM, 1 TB NVMe), and
* an **OCS storage node** deliberately restricted to 16 cores @ 2.0 GHz
  to emulate resource-constrained production storage hardware
  (64 GB RAM, 1 TB NVMe + 512 GB SATA SSD),

all on a 10 GbE network.  :class:`TestbedSpec` captures those numbers and
is the single source the simulator's resource model reads, so experiments
can dial a different testbed without touching cost-model code.

Every public spec here is a frozen, keyword-only dataclass whose
``validate()`` runs at construction: a zero-core node, an out-of-range
probability, or a negative bandwidth fails with a typed
:class:`~repro.errors.ConfigError` where the value was written, not deep
inside the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Mapping

from repro.errors import ConfigError

GIB = 1024**3
GB = 10**9
MB = 10**6
KB = 10**3


@dataclass(frozen=True, kw_only=True)
class NodeSpec:
    """Hardware description of one machine in the testbed."""

    name: str
    cores: int
    clock_ghz: float
    memory_gb: int
    disk_bandwidth_bps: float
    #: Fraction of theoretical core throughput realistically achieved by a
    #: query engine (branchy, memory-bound code does not retire 1 useful
    #: row-op per cycle).
    ipc_efficiency: float = 1.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.cores < 1:
            raise ConfigError(f"node {self.name!r} needs at least one core, got {self.cores}")
        if self.clock_ghz <= 0:
            raise ConfigError(f"node {self.name!r} clock must be positive, got {self.clock_ghz}")
        if self.memory_gb <= 0:
            raise ConfigError(f"node {self.name!r} memory must be positive, got {self.memory_gb}")
        if self.disk_bandwidth_bps <= 0:
            raise ConfigError(
                f"node {self.name!r} disk bandwidth must be positive, "
                f"got {self.disk_bandwidth_bps}"
            )
        if not 0.0 < self.ipc_efficiency <= 1.0:
            raise ConfigError(
                f"node {self.name!r} ipc_efficiency must be in (0, 1], "
                f"got {self.ipc_efficiency}"
            )

    @property
    def effective_hz(self) -> float:
        """Aggregate useful cycles per second across all cores."""
        return self.cores * self.clock_ghz * 1e9 * self.ipc_efficiency


@dataclass(frozen=True, kw_only=True)
class NetworkSpec:
    """Interconnect description (paper: 10 GbE switch)."""

    bandwidth_bps: float = 10e9 / 8  # 10 GbE -> 1.25 GB/s
    latency_s: float = 100e-6
    #: Per-message framing/syscall overhead charged in addition to latency.
    per_message_cpu_cycles: float = 20_000.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ConfigError(f"network bandwidth must be positive, got {self.bandwidth_bps}")
        if self.latency_s < 0:
            raise ConfigError(f"network latency cannot be negative, got {self.latency_s}")
        if self.per_message_cpu_cycles < 0:
            raise ConfigError(
                f"per-message CPU cycles cannot be negative, got {self.per_message_cpu_cycles}"
            )


@dataclass(frozen=True, kw_only=True)
class FaultSpec:
    """Fault-injection knobs for resilience experiments (all off by default).

    The faults model degraded-but-alive infrastructure, mirroring how real
    NDP deployments fail: frames drop on the wire, a storage node's
    *pushdown engine* goes away (transiently or permanently) while its
    plain object-GET path keeps serving, or a node simply runs slow.  A
    :class:`~repro.sim.faults.FaultInjector` built from this spec holds the
    per-run mutable state (deterministic RNG, remaining transient budgets).
    """

    #: Probability that any single link transfer is lost in flight.
    link_drop_probability: float = 0.0
    #: node index -> number of initial pushdown requests that fail with
    #: UNAVAILABLE before the node's embedded engine recovers.
    transient_storage_failures: Mapping[int, int] = field(default_factory=dict)
    #: Node indices whose embedded engine never answers (raw GETs still work).
    permanent_storage_failures: FrozenSet[int] = frozenset()
    #: node index -> wall-time multiplier for pushdown service on that node.
    storage_latency_multipliers: Mapping[int, float] = field(default_factory=dict)
    #: Seed for the injector's deterministic RNG (same seed -> same trace).
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not 0.0 <= self.link_drop_probability < 1.0:
            raise ConfigError(
                f"link_drop_probability must be in [0, 1), got {self.link_drop_probability}"
            )
        for node, count in self.transient_storage_failures.items():
            if node < 0:
                raise ConfigError(f"negative storage node index {node}")
            if count < 0:
                raise ConfigError(f"negative transient failure count for node {node}")
        for node in self.permanent_storage_failures:
            if node < 0:
                raise ConfigError(f"negative storage node index {node}")
        for node, mult in self.storage_latency_multipliers.items():
            if mult < 1.0:
                raise ConfigError(f"latency multiplier for node {node} must be >= 1.0")


@dataclass(frozen=True, kw_only=True)
class ServiceSpec:
    """Knobs of the multi-tenant query service (:mod:`repro.service`).

    The service layers admission control and concurrent scheduling over
    one shared simulated cluster: at most ``max_active_queries`` queries
    execute at once, and at most ``max_queue_depth`` more wait in the run
    queue, each for at most ``queue_timeout_s``.  Every limit violation
    surfaces as a typed :class:`~repro.errors.AdmissionError` subclass.
    """

    #: Queries executing concurrently on the shared cluster.
    max_active_queries: int = 4
    #: Bounded run queue; submissions beyond it are rejected with
    #: ``ADMISSION_QUEUE_FULL``.
    max_queue_depth: int = 32
    #: Simulated seconds a query may wait in the queue before failing
    #: with ``ADMISSION_QUEUE_TIMEOUT``; ``None`` waits forever.
    queue_timeout_s: float | None = None
    #: Dispatch policy: "fifo" (arrival order) or "fair" (fair-share
    #: across tenants: least-loaded, then least-served tenant first).
    policy: str = "fifo"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.max_active_queries < 1:
            raise ConfigError(
                f"max_active_queries must be >= 1, got {self.max_active_queries}"
            )
        if self.max_queue_depth < 0:
            raise ConfigError(
                f"max_queue_depth cannot be negative, got {self.max_queue_depth}"
            )
        if self.queue_timeout_s is not None and self.queue_timeout_s <= 0:
            raise ConfigError(
                f"queue_timeout_s must be positive, got {self.queue_timeout_s}"
            )
        if self.policy not in ("fifo", "fair"):
            raise ConfigError(
                f"policy must be 'fifo' or 'fair', got {self.policy!r}"
            )


@dataclass(frozen=True, kw_only=True)
class CacheSpec:
    """Knobs of the hybrid result/page cache (:mod:`repro.cache`).

    Two tiers share this one spec: the coordinator-tier result cache
    (whole-query results plus per-split pushed-subplan pages, keyed by
    canonical Substrait fingerprint + object versions) and the
    storage-tier page cache on each OCS node (pushed-subplan Arrow
    result pages keyed by object/row-group/fingerprint).  Budgets are
    byte ceilings enforced by deterministic least-recently-used eviction
    (a zero budget turns that tier off).  Any spec also turns the
    coordinator's prepared-plan tier on, at the fixed budget
    :data:`repro.cache.manager.PLAN_BUDGET_BYTES`.
    """

    #: Coordinator-tier budget over whole-query result entries.
    result_budget_bytes: int = 64 * MB
    #: Coordinator-tier budget over per-split page entries.
    split_budget_bytes: int = 128 * MB
    #: Per-OCS-node budget over storage-tier page entries.
    storage_budget_bytes: int = 64 * MB

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for label, value in (
            ("result_budget_bytes", self.result_budget_bytes),
            ("split_budget_bytes", self.split_budget_bytes),
            ("storage_budget_bytes", self.storage_budget_bytes),
        ):
            if value < 0:
                raise ConfigError(f"{label} cannot be negative, got {value}")


@dataclass(frozen=True, kw_only=True)
class TestbedSpec:
    """The full three-node testbed of Table 1."""

    # Not a test class, despite the name (keeps pytest collection quiet).
    __test__ = False

    compute: NodeSpec = field(
        default_factory=lambda: NodeSpec(
            name="compute",
            cores=64,
            clock_ghz=2.9,
            memory_gb=384,
            disk_bandwidth_bps=2.5 * GB,
            ipc_efficiency=0.35,
        )
    )
    frontend: NodeSpec = field(
        default_factory=lambda: NodeSpec(
            name="ocs-frontend",
            cores=48,
            clock_ghz=3.9,
            memory_gb=64,
            disk_bandwidth_bps=2.5 * GB,
            ipc_efficiency=0.35,
        )
    )
    storage: NodeSpec = field(
        default_factory=lambda: NodeSpec(
            name="ocs-storage",
            cores=16,
            clock_ghz=2.0,
            memory_gb=64,
            disk_bandwidth_bps=1.8 * GB,
            ipc_efficiency=0.35,
        )
    )
    network: NetworkSpec = field(default_factory=NetworkSpec)
    storage_node_count: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.storage_node_count < 1:
            raise ConfigError(
                f"testbed needs at least one storage node, got {self.storage_node_count}"
            )
        # Node/network specs validate themselves at construction; re-check
        # here so hand-built instances passed in cannot skip validation.
        for spec in (self.compute, self.frontend, self.storage):
            spec.validate()
        self.network.validate()

    def node(self, name: str) -> NodeSpec:
        """Look up a node spec by role name."""
        for spec in (self.compute, self.frontend, self.storage):
            if spec.name == name:
                return spec
        raise KeyError(f"no node named {name!r} in testbed")


#: Default testbed used by examples, benches, and integration tests.
DEFAULT_TESTBED = TestbedSpec()
