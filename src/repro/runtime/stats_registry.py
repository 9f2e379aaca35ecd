"""Cross-client sharing of per-table statistics caches.

The paper's headline performance claim is *computation sharing*: global
statistics are computed once per table and reused by every query.  The
:class:`SharedStatsRegistry` extends that guarantee across clients — it
keys one :class:`~repro.core.stats_cache.StatsCache` per table
**fingerprint** (content hash, never object identity) and hands the same
instance to every session, job and batch that touches that table, so two
clients exploring one table pay the preparation cost once between them.

The registry is lock-striped: fingerprints map onto a small fixed set of
locks, so concurrent lookups for *different* tables proceed in parallel
while lookups for the *same* table serialize just long enough to agree on
one cache instance.  The caches themselves are thread-safe (see
:class:`StatsCache`), so borrowers use them without further coordination.

Borrowers are tracked per fingerprint, which is how the registry can
report **cross-client hits** — the observable evidence that sharing is
happening (surfaced by the shared-cache benchmark and the acceptance
tests).

Registration warms a table's cache through :meth:`SharedStatsRegistry.warm`,
which builds the table's sketch
(:meth:`~repro.core.stats_cache.StatsCache.ensure_sketch`).  That is what
puts registry caches on the sketch tier; a cache that never saw
``ensure_sketch`` answers exactly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from zlib import crc32

from repro.core.stats_cache import StatsCache
from repro.engine.table import Table

#: Default number of lock stripes (power of two; collisions are harmless,
#: they only serialize unrelated lookups occasionally).
DEFAULT_STRIPES = 16


class _Shard:
    """One stripe's slice of the registry: a lock plus the maps it guards."""

    __slots__ = ("lock", "caches", "borrowers")

    def __init__(self):
        self.lock = threading.Lock()
        self.caches: dict[str, StatsCache] = {}
        self.borrowers: dict[str, set[str]] = {}


@dataclass(frozen=True)
class RegistryStats:
    """A snapshot of the registry's sharing behaviour."""

    caches: int
    entries: int
    hits: int
    misses: int
    cross_client_hits: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served by an existing cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "caches": self.caches, "entries": self.entries,
            "hits": self.hits, "misses": self.misses,
            "cross_client_hits": self.cross_client_hits,
            "evictions": self.evictions, "hit_rate": self.hit_rate,
        }


class SharedStatsRegistry:
    """One :class:`StatsCache` per table fingerprint, shared by everyone.

    Args:
        stripes: number of locks guarding the fingerprint map.
    """

    def __init__(self, stripes: int = DEFAULT_STRIPES):
        if stripes < 1:
            raise ValueError("stripes must be at least 1")
        # Each stripe owns its slice of the fingerprint space: a lock and
        # the cache/borrower maps it guards.  Lookups for fingerprints on
        # different stripes genuinely proceed in parallel; whole-registry
        # operations (stats, clear) visit the stripes one at a time.
        self._shards = tuple(_Shard() for _ in range(stripes))
        self._counter_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.cross_client_hits = 0
        self.evictions = 0

    def _shard(self, fingerprint: str) -> "_Shard":
        return self._shards[crc32(fingerprint.encode()) % len(self._shards)]

    # -- lookup -------------------------------------------------------------------

    def cache_for(self, table: Table,
                  borrower: str = "anonymous") -> StatsCache:
        """The shared cache for one table, created on first borrow.

        ``borrower`` identifies the client/session asking; a lookup that
        finds a cache first borrowed by *someone else* counts as a
        cross-client hit.
        """
        return self.cache_for_fingerprint(table.fingerprint(),
                                          borrower=borrower)

    def cache_for_fingerprint(self, fingerprint: str,
                              borrower: str = "anonymous") -> StatsCache:
        """Fingerprint-keyed variant (for callers that pre-hashed)."""
        shard = self._shard(fingerprint)
        with shard.lock:
            cache = shard.caches.get(fingerprint)
            created = cache is None
            if created:
                cache = StatsCache()
                shard.caches[fingerprint] = cache
                shard.borrowers[fingerprint] = set()
            borrowers = shard.borrowers[fingerprint]
            cross = not created and bool(borrowers - {borrower})
            borrowers.add(borrower)
        with self._counter_lock:
            if created:
                self.misses += 1
            else:
                self.hits += 1
                if cross:
                    self.cross_client_hits += 1
        return cache

    def warm(self, table: Table,
             snapshot: StatsCache | None = None) -> StatsCache:
        """Warm the table's cache without counting a borrow.

        Registration-time plumbing: gets (or creates) the cache for the
        table, merges an optional pre-warmed ``snapshot`` first (so a
        persisted or shipped sketch short-circuits the build), then
        ensures the table's sketch exists — the sketch is what converts
        the warm hot path from linear to sublinear.  Neither the
        registry's hit/miss/borrower accounting nor the cache's own
        counters move — warming is infrastructure, not a client lookup,
        and the sharing metrics the benchmarks assert on must not be
        polluted by it.
        """
        fingerprint = table.fingerprint()
        shard = self._shard(fingerprint)
        with shard.lock:
            cache = shard.caches.get(fingerprint)
            if cache is None:
                cache = StatsCache()
                shard.caches[fingerprint] = cache
                shard.borrowers[fingerprint] = set()
        if snapshot is not None:
            cache.merge_from(snapshot)
        cache.ensure_sketch(table)
        return cache

    def peek(self, fingerprint: str) -> StatsCache | None:
        """The cache for a fingerprint, without creating or counting."""
        shard = self._shard(fingerprint)
        with shard.lock:
            return shard.caches.get(fingerprint)

    def items(self) -> "list[tuple[str, StatsCache]]":
        """Every ``(fingerprint, cache)`` pair currently registered.

        A point-in-time copy (stripe by stripe), not a live view — this
        is what the persistence layer's snapshot daemon walks, and what
        lets it do so without holding any registry lock while pickling.
        """
        pairs: list[tuple[str, StatsCache]] = []
        for shard in self._shards:
            with shard.lock:
                pairs.extend(shard.caches.items())
        return pairs

    # -- eviction -----------------------------------------------------------------

    def evict(self, fingerprint: str) -> bool:
        """Drop the cache for one fingerprint (table-store eviction hook).

        Borrowers already holding the cache keep a working reference; the
        registry simply stops handing it out, so its entries become
        collectable as soon as the last borrower lets go.
        """
        shard = self._shard(fingerprint)
        with shard.lock:
            cache = shard.caches.pop(fingerprint, None)
            shard.borrowers.pop(fingerprint, None)
        if cache is None:
            return False
        with self._counter_lock:
            self.evictions += 1
        return True

    def clear(self) -> None:
        """Drop every cache (counters are preserved)."""
        for shard in self._shards:
            with shard.lock:
                shard.caches.clear()
                shard.borrowers.clear()

    # -- introspection ------------------------------------------------------------

    def stats(self) -> RegistryStats:
        """Counters plus current cache/entry totals."""
        with self._counter_lock:
            hits, misses = self.hits, self.misses
            cross, evictions = self.cross_client_hits, self.evictions
        caches: list[StatsCache] = []
        for shard in self._shards:
            with shard.lock:
                caches.extend(shard.caches.values())
        return RegistryStats(
            caches=len(caches),
            entries=sum(c.size for c in caches),
            hits=hits, misses=misses,
            cross_client_hits=cross, evictions=evictions,
        )
