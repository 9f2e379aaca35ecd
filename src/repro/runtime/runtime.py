"""The shared runtime — all cross-request state under one roof.

A :class:`ZiggyRuntime` owns one entry per table **fingerprint**: the
table's shared :class:`StatsCache`, the table's ``nbytes``, a pin count,
an LRU tick and the set of borrowers that asked for it.  It holds no
table reference: catalogs (:class:`~repro.engine.database.Database`)
own tables, the runtime owns how long their derived state stays
resident.

Every way into an entry — :meth:`ZiggyRuntime.register_table`,
:meth:`ZiggyRuntime.stats_for` and :meth:`ZiggyRuntime.lease` — goes
through one helper, which also ensures the table's sketch (outside the
runtime lock).  So an entry created again after an eviction comes back
on the sketch tier it left, whichever path recreated it.

Sessions and services *borrow* state from the runtime instead of owning
it: :meth:`ZiggyRuntime.stats_for` hands out the shared cache for a
table, and :meth:`ZiggyRuntime.lease` pins the entry for the duration of
a characterization so eviction never races a running query.

A process-wide default runtime (:func:`get_runtime`) makes sharing the
zero-configuration behaviour — two independently constructed sessions in
one process automatically share per-table statistics.  Deployments that
want their own limits build a runtime explicitly and pass it down
(``repro serve --max-tables N --cache-bytes B`` does exactly that).
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.stats_cache import StatsCache
from repro.engine.table import Table
from repro.errors import ReproError

#: Default eviction limits of the process-wide runtime (and of
#: ``repro serve``): plenty for interactive exploration, small enough
#: that a long-lived process cannot accrete unbounded table state.
DEFAULT_MAX_TABLES = 16
DEFAULT_MAX_BYTES = 1 << 30  # 1 GiB of column data


@dataclass
class _Entry:
    """The runtime's record of one table's content."""

    cache: StatsCache
    nbytes: int
    pins: int = 0
    last_used: int = 0
    borrowers: set[str] = field(default_factory=set)


class ZiggyRuntime:
    """Cross-request state: one statistics cache per table fingerprint,
    evicted least-recently-used first under two limits.

    Args:
        max_tables: most tables whose statistics stay cached
            (None = unbounded).
        max_bytes: budget over those tables' column data, in bytes
            (None = unbounded).

    ``hits``, ``misses``, ``cross_client_hits`` and ``evictions`` count
    over the runtime's lifetime.  A borrow (:meth:`stats_for`,
    :meth:`lease`) is a hit when the entry already existed and a miss
    when it created it; a hit is cross-client when someone other than
    the borrower had borrowed the entry before.  Registration is not a
    borrow.
    """

    def __init__(self, max_tables: int | None = DEFAULT_MAX_TABLES,
                 max_bytes: int | None = DEFAULT_MAX_BYTES):
        if max_tables is not None and max_tables < 1:
            raise ReproError("max_tables must be at least 1")
        if max_bytes is not None and max_bytes < 0:
            raise ReproError("max_bytes must be non-negative")
        self.max_tables = max_tables
        self.max_bytes = max_bytes
        self._entries: dict[str, _Entry] = {}
        self._clock = itertools.count(1)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.cross_client_hits = 0
        self.evictions = 0

    # -- the one way into an entry --------------------------------------------------

    def _enter(self, table: Table, *, borrower: str | None = None,
               pin: bool = False,
               snapshot: StatsCache | None = None) -> _Entry:
        fingerprint = table.fingerprint()
        with self._lock:
            entry = self._entries.get(fingerprint)
            created = entry is None
            if created:
                entry = _Entry(StatsCache(), table.nbytes())
                self._entries[fingerprint] = entry
            entry.last_used = next(self._clock)
            if borrower is not None:
                if created:
                    self.misses += 1
                else:
                    self.hits += 1
                    if entry.borrowers - {borrower}:
                        self.cross_client_hits += 1
                entry.borrowers.add(borrower)
            if pin:
                # Pin before enforcing, so a lease taken under limit
                # pressure is never its own eviction victim.
                entry.pins += 1
            self._enforce_limits()
        # Outside the runtime lock: a merge or a sketch build for one
        # table never stalls borrows of another.  A merged snapshot that
        # carries the sketch makes the build a lookup.
        try:
            if snapshot is not None:
                entry.cache.merge_from(snapshot)
            entry.cache.ensure_sketch(table)
        except BaseException:
            if pin:
                self._unpin(entry)  # no lease will release it
            raise
        return entry

    def _unpin(self, entry: _Entry) -> None:
        with self._lock:
            entry.pins -= 1
            self._enforce_limits()

    def _enforce_limits(self) -> None:
        # Caller holds the lock.
        while True:
            entries = self._entries
            over_count = (self.max_tables is not None
                          and len(entries) > self.max_tables)
            over_bytes = (self.max_bytes is not None
                          and sum(e.nbytes for e in entries.values())
                          > self.max_bytes)
            if not (over_count or over_bytes):
                return
            victims = [(e.last_used, fp) for fp, e in entries.items()
                       if e.pins == 0]
            if not victims:
                return  # everything is pinned; re-checked on release
            del entries[min(victims)[1]]
            self.evictions += 1

    # -- borrowing ----------------------------------------------------------------

    def register_table(self, table: Table, *,
                       snapshot: StatsCache | None = None) -> StatsCache:
        """Make a table known to the runtime (idempotent, LRU bump);
        returns the table's cache.

        Merges an optional pre-warmed ``snapshot`` (a persisted or
        shipped cache) into the table's cache, then builds the table's
        sketch unless the cache already has it, so the first query runs
        on the sketch tier.  Not a borrow: the counters do not move.
        """
        return self._enter(table, snapshot=snapshot).cache

    def stats_for(self, table: Table,
                  borrower: str = "anonymous") -> StatsCache:
        """The shared statistics cache for one table (one borrow)."""
        return self._enter(table, borrower=borrower).cache

    @contextmanager
    def lease(self, table: Table,
              borrower: str = "anonymous") -> Iterator[StatsCache]:
        """Pin a table's entry for the duration of a characterization.

        Yields the table's shared cache (one borrow); while the lease is
        held the entry cannot be evicted, so limits never interrupt
        running work — they apply between requests.
        """
        entry = self._enter(table, borrower=borrower, pin=True)
        try:
            yield entry.cache
        finally:
            self._unpin(entry)

    # -- introspection ------------------------------------------------------------

    def caches(self) -> list[tuple[str, StatsCache]]:
        """Every ``(fingerprint, cache)`` pair currently resident.

        A point-in-time copy, not a live view: the snapshot daemon walks
        it without holding the runtime lock while it pickles.
        """
        with self._lock:
            return [(fp, e.cache) for fp, e in self._entries.items()]

    def stats_snapshot(self) -> dict:
        """Runtime health in one JSON-able dict (``/v2/state``)."""
        with self._lock:
            entries = list(self._entries.values())
            hits, misses = self.hits, self.misses
            cross, evictions = self.cross_client_hits, self.evictions
        lookups = hits + misses
        return {
            "tables": {
                "tables": len(entries), "resident": len(entries),
                "pinned": sum(1 for e in entries if e.pins > 0),
                "resident_bytes": sum(e.nbytes for e in entries),
                "evictions": evictions,
                "max_tables": self.max_tables, "max_bytes": self.max_bytes,
            },
            "registry": {
                "caches": len(entries),
                "entries": sum(e.cache.size for e in entries),
                "hits": hits, "misses": misses,
                "cross_client_hits": cross, "evictions": evictions,
                "hit_rate": hits / lookups if lookups else 0.0,
            },
        }


# ---------------------------------------------------------------------------
# The process-wide default
# ---------------------------------------------------------------------------

_default_runtime: ZiggyRuntime | None = None
_default_lock = threading.Lock()


def get_runtime() -> ZiggyRuntime:
    """The process-wide runtime, created on first use."""
    global _default_runtime
    with _default_lock:
        if _default_runtime is None:
            _default_runtime = ZiggyRuntime()
        return _default_runtime


def set_runtime(runtime: ZiggyRuntime) -> ZiggyRuntime:
    """Install a specific runtime as the process-wide default."""
    global _default_runtime
    with _default_lock:
        _default_runtime = runtime
        return runtime


def reset_runtime() -> None:
    """Forget the process-wide runtime (tests; a fresh one is lazily
    created on the next :func:`get_runtime` call)."""
    global _default_runtime
    with _default_lock:
        _default_runtime = None
