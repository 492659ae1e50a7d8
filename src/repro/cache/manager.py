"""The cache manager: one object owning every tier plus version plumbing.

A :class:`CacheManager` is built from a :class:`~repro.config.CacheSpec`
and *outlives individual queries and clusters* — the bench environment
and the query service hold one manager across runs so reuse is possible
at all.  It owns four tiers of :class:`~repro.cache.budget.ByteBudgetCache`:

* ``results`` — coordinator tier, whole-query result batches keyed by a
  composite of every branch's canonical Substrait fingerprint, the
  residual (post-pushdown) logical plan, and the output schema.
* ``splits`` — coordinator tier, per-split post-operator Arrow pages
  keyed by ``(table, pushed-plan fingerprint, residual-plan signature,
  split keys)``.  This is the tier behind partial-hit hybrid plans: the
  cached fraction of a scan is served locally from here while only the
  residual splits are pushed to storage.
* ``plans`` — coordinator tier, prepared plans keyed by the
  whitespace-normalised statement text, the session's catalog and
  schema, and the planning identity of the coordinator and connector
  (pushdown mode, policy, split granularity, rewrite): the optimized
  plan plus each scan branch's pushed operators, serialized Substrait
  and canonical fingerprint.  A hit skips parse through the connector's
  local optimizer and the page source's Substrait generation.
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

A tier with a zero budget is off: it stores nothing and every lookup
misses.  The plan tier's budget is fixed (:data:`PLAN_BUDGET_BYTES`), so
it is on under every spec.  Each tier keeps its own totals (:attr:`ByteBudgetCache.stats`);
what one query got from the cache is counted on its spans
(``result_cache_*``, ``split_cache_*``, ``plan_cache_hits``,
``ocs_page_cache_hits``).
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence, Tuple

from repro.config import MB, CacheSpec
from repro.cache.budget import ByteBudgetCache, CacheStats, VersionSignature
from repro.metastore.catalog import TableDescriptor
from repro.objectstore.store import ObjectStore

__all__ = [
    "PLAN_BUDGET_BYTES",
    "CacheManager",
    "object_version_signature",
    "table_version_signature",
]

#: Budget of the prepared-plan tier.  An entry is a few KB (the plans and
#: their Substrait), so this holds a few hundred statements: more than any
#: service's template set.
PLAN_BUDGET_BYTES = 1 * MB


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
        self.results = ByteBudgetCache(spec.result_budget_bytes, name="result")
        self.splits = ByteBudgetCache(spec.split_budget_bytes, name="split")
        self.plans = ByteBudgetCache(PLAN_BUDGET_BYTES, name="plan")
        self._storage: Dict[int, ByteBudgetCache] = {}

    # -- tiers -------------------------------------------------------------

    def storage_tier(self, node_index: int) -> ByteBudgetCache:
        """The page cache of one OCS node (created on first use)."""
        tier = self._storage.get(node_index)
        if tier is None:
            tier = ByteBudgetCache(
                self.spec.storage_budget_bytes, name=f"storage:{node_index}"
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
    def plan_key(
        statement: str, catalog: str, schema: str, identity: Hashable
    ) -> Hashable:
        return ("plan", statement, catalog, schema, identity)

    @staticmethod
    def storage_key(bucket: str, keys: Tuple[str, ...], fingerprint: str) -> Hashable:
        return ("page", bucket, keys, fingerprint)

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Deterministic per-tier counters (storage tiers merged)."""
        storage = CacheStats().as_dict()
        for index in sorted(self._storage):
            for name, value in self._storage[index].stats.as_dict().items():
                storage[name] += value
        return {
            "result": self.results.stats.as_dict(),
            "split": self.splits.stats.as_dict(),
            "plan": self.plans.stats.as_dict(),
            "storage": storage,
        }

    def clear(self) -> None:
        self.results.clear()
        self.splits.clear()
        self.plans.clear()
        for tier in self._storage.values():
            tier.clear()
