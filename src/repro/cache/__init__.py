"""Hybrid result/page caching for the pushdown engine.

Two tiers — a coordinator-tier result/split cache and a per-OCS-node
storage page cache — keyed by canonical Substrait plan fingerprints
(:mod:`repro.substrait.fingerprint`) plus object/metastore version
counters, and a coordinator-tier plan cache keyed by statement text,
with deterministic byte-budgeted LRU eviction.  See ``docs/CACHE.md``.
"""

from repro.cache.budget import ByteBudgetCache, CacheEntry, CacheStats
from repro.cache.manager import (
    CacheManager,
    object_version_signature,
    table_version_signature,
)

__all__ = [
    "ByteBudgetCache",
    "CacheEntry",
    "CacheStats",
    "CacheManager",
    "object_version_signature",
    "table_version_signature",
]
