"""Deterministic byte-budgeted LRU cache.

:class:`ByteBudgetCache` is the storage engine behind every cache tier
(coordinator results, coordinator split pages, per-OCS-node storage
pages).  It is a pure data structure — simulated *cost* of serving or
filling is charged by the caller — but its *state* is shared across
concurrently simulated queries, so every transition polls
:mod:`repro.sim.santrack`.

Determinism: recency is a logical sequence counter bumped per access
(never wall clock, never simulated time — two accesses at the same
simulated instant still order by arrival), and eviction scans are full
sorts with the sequence number as the final tie-break, so a given access
sequence always evicts the same victims.

Eviction is least-recently-used: a fill evicts the oldest-recency
entries until it fits.  A fill larger than the whole budget is refused
and counted — fills are best-effort, never query failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.sim import santrack

__all__ = ["CacheEntry", "CacheStats", "ByteBudgetCache"]

#: version signature: ((label, counter), ...) in a fixed caller-chosen order.
VersionSignature = Tuple[Tuple[str, int], ...]


@dataclass
class CacheEntry:
    """One resident value plus the bookkeeping eviction needs."""

    key: Hashable
    value: object
    nbytes: int
    #: Recorded version signature of everything the value derives from.
    versions: VersionSignature
    #: Logical recency (bumped on every hit).
    seq: int
    hits: int = 0


@dataclass
class CacheStats:
    """Deterministic per-tier totals (:meth:`~repro.cache.manager.CacheManager.stats`)."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    stale_drops: int = 0
    quota_refusals: int = 0
    bytes_served: int = 0
    bytes_filled: int = 0
    bytes_evicted: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "fills": self.fills,
            "evictions": self.evictions,
            "stale_drops": self.stale_drops,
            "quota_refusals": self.quota_refusals,
            "bytes_served": self.bytes_served,
            "bytes_filled": self.bytes_filled,
            "bytes_evicted": self.bytes_evicted,
        }


class ByteBudgetCache:
    """Keyed byte-budgeted cache; see module docstring for semantics."""

    def __init__(self, budget_bytes: int, *, name: str = "cache") -> None:
        self.budget_bytes = budget_bytes
        self.name = name
        self.stats = CacheStats()
        self._entries: Dict[Hashable, CacheEntry] = {}
        self._seq = 0

    # -- SimTSan -----------------------------------------------------------

    def _track(self, kind: str, site: str) -> None:
        """One shared surface per tier.  Every transition (including a
        lookup, which bumps recency) mutates eviction order, so all are
        recorded as updates; pure size probes record reads."""
        sanitizer = santrack.active()
        if sanitizer is None:
            return
        key = ("cache", id(self), self.name)
        if kind == "u":
            sanitizer.record_update(key, site, depth=2)
        else:
            sanitizer.record_read(key, site, depth=2)

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def resident_bytes(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    def entry(self, key: Hashable) -> Optional[CacheEntry]:
        """Peek without touching recency or stats (tests, EXPLAIN)."""
        return self._entries.get(key)

    # -- the cache protocol ------------------------------------------------

    def get(
        self,
        key: Hashable,
        *,
        versions: Optional[VersionSignature] = None,
    ) -> Optional[object]:
        """The cached value, or None on miss.

        When ``versions`` is given, an entry whose recorded signature
        differs is *stale*: it is dropped (both the entry and its bytes)
        and the lookup counts as a miss — soft invalidation, no error.
        """
        self._track("u", f"cache.get:{self.name}")
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if versions is not None and entry.versions != versions:
            del self._entries[key]
            self.stats.stale_drops += 1
            self.stats.misses += 1
            return None
        self._seq += 1
        entry.seq = self._seq
        entry.hits += 1
        self.stats.hits += 1
        self.stats.bytes_served += entry.nbytes
        return entry.value

    def put(
        self,
        key: Hashable,
        value: object,
        *,
        nbytes: int,
        versions: VersionSignature = (),
    ) -> bool:
        """Insert (replacing any same-key entry); True when resident.

        Returns False — and counts a quota refusal — when the entry
        exceeds the whole budget.
        """
        self._track("u", f"cache.put:{self.name}")
        self._entries.pop(key, None)
        if nbytes > self.budget_bytes:
            self.stats.quota_refusals += 1
            return False
        self._make_room(nbytes)
        self._seq += 1
        self._entries[key] = CacheEntry(
            key=key, value=value, nbytes=nbytes, versions=versions, seq=self._seq
        )
        self.stats.fills += 1
        self.stats.bytes_filled += nbytes
        return True

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; True when it was resident."""
        self._track("u", f"cache.invalidate:{self.name}")
        if self._entries.pop(key, None) is None:
            return False
        self.stats.stale_drops += 1
        return True

    def clear(self) -> None:
        self._track("u", f"cache.clear:{self.name}")
        self._entries.clear()

    # -- eviction ----------------------------------------------------------

    def _make_room(self, nbytes: int) -> None:
        """Evict least-recently-used entries until ``nbytes`` more fit
        (the caller has checked that ``nbytes`` fits the budget)."""
        need = self.resident_bytes + nbytes - self.budget_bytes
        if need <= 0:
            return
        for victim in sorted(self._entries.values(), key=lambda e: e.seq):
            if need <= 0:
                break
            del self._entries[victim.key]
            self.stats.evictions += 1
            self.stats.bytes_evicted += victim.nbytes
            need -= victim.nbytes
