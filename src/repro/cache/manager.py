"""The cache manager: one object owning every tier plus version plumbing.

A :class:`CacheManager` is built from a :class:`~repro.config.CacheSpec`
and *outlives individual queries and clusters* — the bench environment
and the query service hold one manager across runs so reuse is possible
at all.  It owns three tiers of :class:`~repro.cache.budget.ByteBudgetCache`:

* ``results`` — coordinator tier, whole-query result batches keyed by a
  composite of every branch's canonical Substrait fingerprint, the
  residual (post-pushdown) logical plan, and the output schema.
* ``splits`` — coordinator tier, per-split post-operator Arrow pages
  keyed by ``(table, pushed-plan fingerprint, residual-plan signature,
  split keys)``.  This is the tier behind partial-hit hybrid plans: the
  cached fraction of a scan is served locally from here while only the
  residual splits are pushed to storage.
* per-node ``storage`` tiers — on each OCS node, serialized pushed-
  subplan result pages keyed by ``(bucket, object keys, fingerprint of
  the deserialized plan)``; a hit skips the disk read and the engine
  CPU, paying only a serve charge.

Invalidation is lazy and version-driven: every entry records a
*version signature* — the metastore descriptor version plus the object
store's per-object write counters for everything the value derives
from — and a lookup whose recomputed signature differs drops the entry
(both tiers see the same bumped counters, so one PUT or one stats
refresh invalidates everywhere).

Accounting is a callback seam: the query service points ``accountant``
at its admission controller so per-tenant hit/miss/fill/refusal
counters land in the same ledgers the SLO report reads.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

from repro.config import CacheSpec
from repro.cache.budget import ByteBudgetCache, VersionSignature
from repro.metastore.catalog import TableDescriptor
from repro.objectstore.store import ObjectStore

__all__ = [
    "CacheManager",
    "object_version_signature",
    "table_version_signature",
]

#: accountant(event, tenant, nbytes) with event in
#: {"hit", "miss", "fill", "stale", "quota"}.
Accountant = Callable[[str, str, int], None]


def object_version_signature(
    store: ObjectStore, bucket: str, keys: Sequence[str]
) -> VersionSignature:
    """Write-counter signature of a set of objects (order preserved)."""
    return tuple((key, store.object_version(bucket, key)) for key in keys)


def table_version_signature(
    store: ObjectStore, descriptor: TableDescriptor, keys: Optional[Sequence[str]] = None
) -> VersionSignature:
    """Descriptor version (bumped by stats refreshes) + the write counter
    of ``keys`` (default: every data file of the table)."""
    meta = (f"meta:{descriptor.qualified_name}", descriptor.version)
    return (meta,) + object_version_signature(
        store, descriptor.bucket, descriptor.files if keys is None else keys
    )


class CacheManager:
    """Owns every cache tier built from one :class:`CacheSpec`."""

    def __init__(self, spec: CacheSpec) -> None:
        self.spec = spec
        self.results = ByteBudgetCache(
            spec.result_budget_bytes if spec.enable_results else 0,
            policy=spec.policy,
            reservations=spec.tenant_reservations,
            name="result",
        )
        self.splits = ByteBudgetCache(
            spec.split_budget_bytes if spec.enable_splits else 0,
            policy=spec.policy,
            reservations=spec.tenant_reservations,
            name="split",
        )
        self._storage: Dict[int, ByteBudgetCache] = {}
        self.accountant: Optional[Accountant] = None
        #: Per-table lookup ledger (table -> [lookups, hits]), fed by the
        #: coordinator's run path only (EXPLAIN probes are pure peeks).
        #: The adaptive controller reads it to bias pushdown decisions
        #: for hot-cached tables — see repro.core.adaptive.
        self._tables: Dict[str, list] = {}

    # -- tiers -------------------------------------------------------------

    def storage_tier(self, node_index: int) -> ByteBudgetCache:
        """The page cache of one OCS node (created on first use)."""
        tier = self._storage.get(node_index)
        if tier is None:
            tier = ByteBudgetCache(
                self.spec.storage_budget_bytes if self.spec.enable_storage else 0,
                policy=self.spec.policy,
                reservations=self.spec.tenant_reservations,
                name=f"storage:{node_index}",
            )
            self._storage[node_index] = tier
        return tier

    # -- keys --------------------------------------------------------------

    @staticmethod
    def result_key(fingerprint: str) -> Hashable:
        return ("result", fingerprint)

    @staticmethod
    def split_key(
        table: str, pushed_fingerprint: str, plan_signature: str, keys: Tuple[str, ...]
    ) -> Hashable:
        return ("split", table, pushed_fingerprint, plan_signature, keys)

    @staticmethod
    def storage_key(bucket: str, keys: Tuple[str, ...], fingerprint: str) -> Hashable:
        return ("page", bucket, keys, fingerprint)

    # -- accounting --------------------------------------------------------

    def account(self, event: str, tenant: str, nbytes: int) -> None:
        if self.accountant is not None:
            self.accountant(event, tenant, nbytes)

    def record_table_lookup(self, table: str, *, hits: int, misses: int) -> None:
        """Fold one run's cache outcomes for ``table`` into the ledger."""
        entry = self._tables.setdefault(table, [0, 0])
        entry[0] += hits + misses
        entry[1] += hits

    # -- reporting ---------------------------------------------------------

    def table_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-table lookup counters with derived hit rates."""
        return {
            table: {
                "lookups": lookups,
                "hits": hits,
                "hit_rate": (hits / lookups) if lookups else 0.0,
            }
            for table, (lookups, hits) in sorted(self._tables.items())
        }

    def stats(self) -> Dict[str, Dict]:
        """Deterministic per-tier counters (storage tiers merged) plus
        the per-table lookup ledger under ``"tables"``."""
        storage = {
            "hits": 0,
            "misses": 0,
            "fills": 0,
            "evictions": 0,
            "stale_drops": 0,
            "quota_refusals": 0,
            "bytes_served": 0,
            "bytes_filled": 0,
            "bytes_evicted": 0,
        }
        for index in sorted(self._storage):
            for name, value in self._storage[index].stats.as_dict().items():
                storage[name] += value
        return {
            "result": self.results.stats.as_dict(),
            "split": self.splits.stats.as_dict(),
            "storage": storage,
            "tables": self.table_stats(),
        }

    def clear(self) -> None:
        self.results.clear()
        self.splits.clear()
        for tier in self._storage.values():
            tier.clear()
        self._tables.clear()
