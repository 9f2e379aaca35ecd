"""Cross-query statistics cache — the paper's computation-sharing strategy.

Section 3 ("Preparation"): "This is often the most time consuming step.
In our full paper, we present a strategy to share computations between
queries, and therefore reduce the amount of data to read."

The cache exploits two algebraic facts:

1. :class:`~repro.stats.descriptive.SummaryStats` (centered moments up to
   order 4) and :class:`~repro.stats.correlation.PairwiseMoments` are
   *additive over disjoint row sets*.  Whole-table ("global") statistics
   are computed once per table; for each query only the **inside** group
   is scanned, and the **outside** group's statistics are derived as
   ``global - inside``.  Since explorers' selections are typically small
   slices of a big table, this removes the dominant share of the scan.
2. Inside-group statistics depend only on the predicate's canonical
   fingerprint, so re-running, refining the projection of, or re-ranking
   the same selection costs nothing.

The dependency matrix and the pair moments are keyed by the column set
they cover, and the preparation stage
(:class:`~repro.core.preparation.PreparationEngine`) asks for them over
every column its configuration can make active, whatever the predicate
(the table's columns minus the configured exclusions; predicate columns
stay in).  So they are computed **once per table and configuration**,
not once per query, and each query reads an index slice of them.
Every estimator behind them is pairwise — pairwise-deletion Pearson
and Spearman, per-column NMI bins, Cramér's V, η, and the pair moments
— so the slice for a column subset equals the subset computation.  The
stores and their keys:

* ``_column_stats`` — ``(fingerprint, column)``: whole-table summary of
  one numeric column;
* ``_global_moments`` — ``(fingerprint, columns)``: whole-table pair
  moments over ``columns``;
* ``_dependency`` — ``(fingerprint, method, bins, columns)``: the
  dependency matrix over ``columns``;
* ``_sketches`` — ``(fingerprint,)``: the sketch tier (below);
* ``_inside_stats`` — ``(fingerprint, predicate, column)`` and
  ``_inside_moments`` — ``(fingerprint, predicate, columns)``: the
  selected rows' summaries and pair moments, the only per-predicate
  stores.

Tables are immutable in this engine, so cache entries never go stale.
Entries are keyed by :meth:`~repro.engine.table.Table.fingerprint` — a
content hash — so the cache holds **no reference to the tables
themselves**: dropping a table frees its rows even while its derived
moments stay cached, and two loads of identical content share one set of
entries.  (Earlier revisions pinned a strong reference per table to keep
``id(table)`` stable; that leaked every table the cache ever saw.)

One bound keeps a long-lived shared cache healthy: the two per-predicate
stores share a byte budget, :data:`INSIDE_BUDGET_BYTES`, and give up
their least recently used entries beyond it.  The table-level stores
hold a fixed number of entries per table and configuration, so a cache
— and its snapshot — stops growing with the number of distinct
predicates it has seen.  How long a whole cache stays resident is the
runtime's decision (:class:`~repro.runtime.ZiggyRuntime` evicts it with
its table's entry).

The **sketch tier** sits underneath the exact stores.  Once
:meth:`StatsCache.ensure_sketch` has built a
:class:`~repro.stats.sketches.TableSketch` for a table, per-query
component scoring is answered from the sketch's shared reservoir sample
whenever the sample is large enough for the configured error bound to
decide the comparison — the exact tier only runs for the undecided
remainder.  The runtime builds the sketch whenever a table enters it
(registration, borrow or lease); a library
:class:`~repro.core.pipeline.Ziggy` cache never does, so it always
answers exactly.  Sketches live in a regular entry store, so
``snapshot()`` / ``merge_from`` / pickling carry them across shards and
restarts for free.

Accessors are serialized with a reentrant lock so one cache instance can
be shared across client sessions and job threads — the basis of the
process-wide :class:`~repro.runtime.ZiggyRuntime`.  Computation
happens under the lock, which is exactly the sharing contract: the first
arrival pays for a table-level statistic, every concurrent and later
arrival reuses it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from repro.core.dependency import DependencyMatrix, compute_dependency_matrix
from repro.core.profiling import PROFILER
from repro.engine.database import Selection
from repro.engine.table import Table
from repro.stats.correlation import PairwiseMoments
from repro.stats.descriptive import (
    SummaryStats,
    summarize,
    summarize_columns,
)
from repro.stats.sketches import (
    DEFAULT_SKETCH_CAPACITY,
    DEFAULT_SKETCH_SEED,
    TableSketch,
    required_sample,
)

#: Byte budget shared by the two per-predicate stores of one cache
#: (``_inside_stats`` and ``_inside_moments``).  A us_crime predicate
#: costs ~0.57 MB there (pair moments over 126 numeric columns plus one
#: summary per column), so 40 MiB holds ~73 predicates: more than a
#: session's history of 64 (``repro.app.session.HISTORY_LIMIT``).
INSIDE_BUDGET_BYTES = 40 << 20

#: Bytes charged per cached :class:`SummaryStats`: the object, its
#: attribute dict and eight numbers.
_SUMMARY_NBYTES = 512


def _entry_nbytes(value) -> int:
    """Bytes a per-predicate entry is charged against the budget."""
    if isinstance(value, PairwiseMoments):
        return value.nbytes
    return _SUMMARY_NBYTES


@dataclass
class CacheCounters:
    """Hit/miss counters, exposed for the caching benchmark (EXT-CACHE).

    ``sketch_hits`` / ``sketch_fallbacks`` instrument the sketch tier: a
    sketch hit answered scoring without touching the exact stores (it
    counts in *neither* ``hits`` nor ``misses`` — the exact-tier ratios
    keep their historical meaning), a fallback is a query the sketch's
    error bound could not decide.  ``inside_evictions`` counts entries
    dropped by the per-predicate byte budget.
    """

    column_hits: int = 0
    column_misses: int = 0
    inside_hits: int = 0
    inside_misses: int = 0
    moments_hits: int = 0
    moments_misses: int = 0
    dependency_hits: int = 0
    dependency_misses: int = 0
    sketch_hits: int = 0
    sketch_fallbacks: int = 0
    inside_evictions: int = 0

    @property
    def hits(self) -> int:
        """Total exact-tier hits across all entry kinds."""
        return (self.column_hits + self.inside_hits + self.moments_hits
                + self.dependency_hits)

    @property
    def misses(self) -> int:
        """Total exact-tier misses across all entry kinds."""
        return (self.column_misses + self.inside_misses + self.moments_misses
                + self.dependency_misses)


def _restore_counters(obj) -> CacheCounters:
    """Rebuild counters from a pickled instance, tolerating pickles from
    revisions that predate newer fields."""
    if obj is None:
        return CacheCounters()
    return CacheCounters(**{f.name: int(getattr(obj, f.name, 0) or 0)
                            for f in fields(CacheCounters)})


@dataclass
class StatsCache:
    """Shared statistics across queries over immutable tables.

    All accessors take the objects (table / selection) rather than keys;
    key construction is internal (content fingerprints, never object
    identity).  Safe to share across threads.

    A table answers from the sketch tier exactly when
    :meth:`ensure_sketch` ran for it (or a sketch arrived through
    :meth:`merge_from`):

    * :meth:`sketch_column_answer` answers all of a query's numeric
      columns in one masked pass, gating each column on its non-missing
      sample count inside **and** outside reaching
      :func:`~repro.stats.sketches.required_sample` for the margin;
    * :meth:`sketch_group_correlations` gates the same way on sampled
      row counts.

    Tables at or under ``sketch_capacity`` rows return ``None`` from both
    (``covers_all``): the exact tier is already cheap there and stays
    authoritative, so small-table results are bit-identical with or
    without a sketch.  Every undecided column or correlation answer
    falls back to the exact accessors and is counted in
    ``counters.sketch_fallbacks``.

    Args:
        sketch_capacity: reservoir rows of the sketches
            :meth:`ensure_sketch` builds.
        sketch_seed: seed of the sketches' row reservoir.
    """

    counters: CacheCounters = field(default_factory=CacheCounters)
    sketch_capacity: int = DEFAULT_SKETCH_CAPACITY
    sketch_seed: int = DEFAULT_SKETCH_SEED

    #: The entry stores pickled by ``__getstate__``, in declaration order.
    _STORES = ("_column_stats", "_inside_stats", "_global_moments",
               "_inside_moments", "_dependency", "_sketches")

    #: Stores under the per-predicate byte budget.
    _BOUNDED = frozenset({"_inside_stats", "_inside_moments"})

    #: Configuration carried by pickles and snapshots, with the defaults
    #: a pickle that lacks a field restores.
    _CONFIG = {"sketch_capacity": DEFAULT_SKETCH_CAPACITY,
               "sketch_seed": DEFAULT_SKETCH_SEED}

    def __post_init__(self):
        self._lock = threading.RLock()
        self._column_stats: dict[tuple[str, str], SummaryStats] = {}
        self._inside_stats: dict[tuple[str, str, str], SummaryStats] = {}
        self._global_moments: dict[tuple[str, tuple[str, ...]], PairwiseMoments] = {}
        self._inside_moments: dict[tuple[str, str, tuple[str, ...]], PairwiseMoments] = {}
        self._dependency: dict[tuple[str, str, int, tuple[str, ...]], DependencyMatrix] = {}
        self._sketches: dict[tuple[str], TableSketch] = {}
        self._reset_budget()

    # -- store plumbing ----------------------------------------------------------

    def _reset_budget(self) -> None:
        #: ``(store, key) -> charged bytes`` of every per-predicate
        #: entry, least recently used first.
        self._lru: OrderedDict[tuple[str, tuple], int] = OrderedDict()
        self._inside_bytes = 0

    def _get(self, name: str, key: tuple):
        """Lookup that refreshes LRU position on bounded stores.  Caller
        holds the lock."""
        value = getattr(self, name).get(key)
        if value is not None and name in self._BOUNDED:
            self._lru.move_to_end((name, key))
        return value

    def _put(self, name: str, key: tuple, value) -> None:
        """Insert, then evict least recently used per-predicate entries
        until they fit the budget.  Caller holds the lock."""
        getattr(self, name)[key] = value
        if name not in self._BOUNDED:
            return
        slot = (name, key)
        charged = _entry_nbytes(value)
        self._inside_bytes += charged - self._lru.pop(slot, 0)
        self._lru[slot] = charged
        while self._inside_bytes > INSIDE_BUDGET_BYTES and self._lru:
            (victim, victim_key), size = self._lru.popitem(last=False)
            del getattr(self, victim)[victim_key]
            self._inside_bytes -= size
            self.counters.inside_evictions += 1

    # -- serialization -----------------------------------------------------------

    def _config(self) -> dict:
        return {name: getattr(self, name) for name in self._CONFIG}

    def __getstate__(self) -> dict:
        """Pickle the entries, counters and config, never the lock.

        Entries are :class:`SummaryStats` / :class:`PairwiseMoments` /
        :class:`DependencyMatrix` / :class:`TableSketch` values keyed by
        content fingerprints, so a cache snapshot is self-contained:
        executor backends ship it to worker processes to warm a shard
        without re-scanning the table.
        """
        with self._lock:
            state = {name: dict(getattr(self, name)) for name in self._STORES}
            state["counters"] = self.counters
            state["config"] = self._config()
            return state

    def __setstate__(self, state: dict) -> None:
        self.counters = _restore_counters(state.pop("counters", None))
        config = state.pop("config", None) or {}
        for name, default in self._CONFIG.items():
            setattr(self, name, int(config.get(name, default)))
        self._lock = threading.RLock()
        self._reset_budget()
        for name in self._STORES:
            setattr(self, name, {})
            for key, value in (state.get(name) or {}).items():
                self._put(name, key, value)

    def snapshot(self) -> "StatsCache":
        """A detached, picklable copy of this cache's current entries.

        Counters start fresh on the copy (they describe *this* cache's
        history, not the snapshot's).  This is what the process executor
        ships when it replays table registrations into a respawned
        worker shard: snapshotting at replay time — rather than reusing
        the registration-time object — means statistics computed since
        registration warm-restore too.
        """
        clone = StatsCache(**self._config())
        clone.merge_from(self)
        return clone

    def entry_signature(self) -> int:
        """Order-independent hash of the cached entry *keys*.

        Keys are content fingerprints (plus predicate/column/config
        parts) and every value is derived deterministically from its
        key, so two caches with equal signatures hold equal entries.
        This is the snapshot store's change detector: it catches a cache
        whose budgeted stores evicted and replaced entries without the
        total count moving, which a size comparison cannot.
        Process-local (``hash`` of strings is seed-randomized) — never
        persist it.
        """
        with self._lock:
            return hash(frozenset(
                (name, key) for name in self._STORES
                for key in getattr(self, name)))

    def merge_from(self, other: "StatsCache") -> int:
        """Absorb another cache's entries (existing keys win); returns the
        number of entries copied.  This is how a worker shard adopts a
        pre-warmed snapshot shipped from the coordinating process.
        """
        copied = 0
        with other._lock:
            snapshots = [dict(getattr(other, name)) for name in self._STORES]
        with self._lock:
            for name, snap in zip(self._STORES, snapshots):
                store = getattr(self, name)
                for key, value in snap.items():
                    if key not in store:
                        self._put(name, key, value)
                        copied += 1
        return copied

    # -- keys -------------------------------------------------------------------

    @staticmethod
    def _key(table: Table) -> str:
        return table.fingerprint()

    # -- per-column summaries ------------------------------------------------------

    def global_column_stats(self, table: Table, column: str) -> SummaryStats:
        """Whole-table summary of one numeric column (computed once).

        With a sketch for the table, the summary is served from the
        sketch's streaming moments.  They are exact (one full pass at
        build time), so this is not an approximation — it just avoids a
        second scan of the column on a cold exact store.  Served entries
        count as ``sketch_hits``, not exact-tier traffic.
        """
        key = (self._key(table), column)
        with self._lock:
            cached = self._get("_column_stats", key)
            if cached is not None:
                self.counters.column_hits += 1
                return cached
            sketch = self._sketches.get((key[0],))
            col = sketch.columns.get(column) if sketch is not None else None
            if col is not None:
                self.counters.sketch_hits += 1
                self._put("_column_stats", key, col.moments)
                return col.moments
            self.counters.column_misses += 1
            with PROFILER.timer("kernel.column_summary"):
                stats = summarize(table.column(column).numeric_values())
            self._put("_column_stats", key, stats)
            return stats

    def inside_column_stats(self, selection: Selection, column: str) -> SummaryStats:
        """Summary of the selected rows of one column (per-predicate memo)."""
        key = (self._key(selection.table), selection.fingerprint, column)
        with self._lock:
            cached = self._get("_inside_stats", key)
            if cached is not None:
                self.counters.inside_hits += 1
                return cached
            self.counters.inside_misses += 1
            with PROFILER.timer("kernel.inside_summary"):
                values = selection.table.column(column).numeric_values()[selection.mask]
                stats = summarize(values)
            self._put("_inside_stats", key, stats)
            return stats

    def outside_column_stats(self, selection: Selection, column: str) -> SummaryStats:
        """Complement summary, derived without scanning the complement."""
        return self.global_column_stats(selection.table, column).subtract(
            self.inside_column_stats(selection, column))

    # -- pairwise moments ------------------------------------------------------------

    def global_moments(self, table: Table,
                       columns: tuple[str, ...]) -> PairwiseMoments:
        """Whole-table pairwise moments over the numeric columns."""
        key = (self._key(table), columns)
        with self._lock:
            cached = self._get("_global_moments", key)
            if cached is not None:
                self.counters.moments_hits += 1
                return cached
            self.counters.moments_misses += 1
            with PROFILER.timer("kernel.global_moments"):
                moments = PairwiseMoments.from_matrix(table.numeric_matrix(columns))
            self._put("_global_moments", key, moments)
            return moments

    def inside_moments(self, selection: Selection,
                       columns: tuple[str, ...]) -> PairwiseMoments:
        """Pairwise moments of the selected rows (per-predicate memo)."""
        key = (self._key(selection.table), selection.fingerprint, columns)
        with self._lock:
            cached = self._get("_inside_moments", key)
            if cached is not None:
                self.counters.moments_hits += 1
                return cached
            self.counters.moments_misses += 1
            with PROFILER.timer("kernel.inside_moments"):
                data = selection.table.numeric_matrix(columns)[selection.mask]
                moments = PairwiseMoments.from_matrix(data)
            self._put("_inside_moments", key, moments)
            return moments

    def group_correlations(self, selection: Selection,
                           columns: tuple[str, ...]) -> tuple[
                               np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(corr_in, n_in, corr_out, n_out)`` for the numeric columns.

        The outside matrices come from moment subtraction — the core of
        the sharing strategy.
        """
        inside = self.inside_moments(selection, columns)
        global_ = self.global_moments(selection.table, columns)
        outside = global_.subtract(inside)
        corr_in, n_in = inside.correlations()
        corr_out, n_out = outside.correlations()
        return corr_in, n_in, corr_out, n_out

    # -- dependency matrix -------------------------------------------------------------

    def dependency_matrix(self, table: Table, columns: tuple[str, ...],
                          method: str, mi_bins: int) -> DependencyMatrix:
        """Whole-table dependency matrix (query-independent, so shared)."""
        key = (self._key(table), method, mi_bins, columns)
        with self._lock:
            cached = self._get("_dependency", key)
            if cached is not None:
                self.counters.dependency_hits += 1
                return cached
            self.counters.dependency_misses += 1
            with PROFILER.timer("kernel.dependency_matrix"):
                matrix = compute_dependency_matrix(table, columns, method=method,
                                                   mi_bins=mi_bins)
            self._put("_dependency", key, matrix)
            return matrix

    # -- maintenance ---------------------------------------------------------------------

    def clear(self) -> None:
        """Drop everything (counters are preserved)."""
        with self._lock:
            for name in self._STORES:
                getattr(self, name).clear()
            self._reset_budget()

    @property
    def size(self) -> int:
        """Total number of cached entries."""
        with self._lock:
            return sum(len(getattr(self, name)) for name in self._STORES)

    # -- the sketch store --------------------------------------------------------

    def ensure_sketch(self, table: Table) -> TableSketch:
        """The table's sketch, built on first call (one pass per column).

        The runtime calls this on every way into a table's entry; a
        sketch that arrived via :meth:`merge_from` (shard handoff,
        persistence restore) short-circuits the build.
        """
        key = (self._key(table),)
        # Lock-free once built (a dict read is atomic): a lease must not
        # wait out another thread's computation under the cache lock.
        sketch = self._sketches.get(key)
        if sketch is not None:
            return sketch
        with self._lock:
            sketch = self._sketches.get(key)
            if sketch is None:
                with PROFILER.timer("kernel.sketch_build"):
                    sketch = TableSketch.build(table,
                                               capacity=self.sketch_capacity,
                                               seed=self.sketch_seed)
                self._put("_sketches", key, sketch)
            return sketch

    def sketch_for(self, fingerprint: str) -> TableSketch | None:
        """The sketch for a fingerprint, or None (never builds)."""
        with self._lock:
            return self._sketches.get((fingerprint,))

    # -- sketch answers ----------------------------------------------------------

    def sketch_column_answer(self, selection: Selection,
                             columns: Sequence[str],
                             max_margin: float) -> dict[str, tuple[
                                 SummaryStats, SummaryStats,
                                 np.ndarray, np.ndarray]] | None:
        """Inside/outside summaries of many columns from the sketch sample.

        One mask of the sampled rows and one masked pass over the
        sketch's sample matrix answer every column at once.  Each
        answered column maps to ``(inside_stats, outside_stats,
        inside_sample, outside_sample)``: the summaries carry the
        *observed sample* counts (honest: every downstream significance
        test then runs at the sample size actually seen, which is
        conservative), and the samples, views of the masked matrix, let
        raw-value tests (Levene, Mann-Whitney) run on the sampled rows.

        The error bound gates each column on its own: one whose
        non-missing sample count inside or outside is below
        ``required_sample(max_margin)`` is left out for the exact tier
        and counted in ``sketch_fallbacks``; each answered column counts
        one ``sketch_hit``.  Returns None when no column is answered:
        the sketch is missing, the table is small enough that the exact
        tier is authoritative (``covers_all``), no column is sketched,
        or every column fell back.
        """
        sketch = self.sketch_for(self._key(selection.table))
        if sketch is None or sketch.covers_all:
            return None
        if selection.mask.size != sketch.n_rows:
            return None
        names = [c for c in columns if c in sketch.columns]
        if not names:
            return None
        k_req = required_sample(max_margin)
        with PROFILER.timer("kernel.sketch_answer"):
            # The pass covers every sketched column: gathering the named
            # columns first would cost more than the few extra ones.
            inside_mask = sketch.sample_mask(selection.mask)
            values_in = sketch.samples[inside_mask]
            values_out = sketch.samples[~inside_mask]
            inside = summarize_columns(values_in)
            outside = summarize_columns(values_out)
        answers = {
            name: (inside[j], outside[j], values_in[:, j], values_out[:, j])
            for name, j in zip(names, sketch.positions(names))
            if inside[j].n >= k_req and outside[j].n >= k_req}
        with self._lock:
            self.counters.sketch_hits += len(answers)
            self.counters.sketch_fallbacks += len(names) - len(answers)
        return answers or None

    def sketch_group_correlations(self, selection: Selection,
                                  columns: tuple[str, ...],
                                  max_margin: float) -> tuple[
                                      np.ndarray, np.ndarray,
                                      np.ndarray, np.ndarray] | None:
        """``(corr_in, n_in, corr_out, n_out)`` from the sketch sample.

        The reservoir is row-aligned across columns, so the sampled
        inside rows feed the same four-GEMM pairwise estimator the exact
        tier uses — at O(sample x M^2) instead of O(rows x M^2) — and,
        as on the exact tier, the outside moments are a subtraction: the
        sketch's whole-sample moments (computed once, with the sketch)
        minus the inside ones.  Pair counts are the observed sample
        counts.  Returns None when the sketch is missing, the table is
        small enough that the exact tier is authoritative
        (``covers_all``), a column is not sketched, or either group's
        sampled row count is below ``required_sample(max_margin)``.
        """
        sketch = self.sketch_for(self._key(selection.table))
        if sketch is None or sketch.covers_all:
            return None
        if selection.mask.size != sketch.n_rows:
            return None
        if any(c not in sketch.columns for c in columns):
            return None
        k_req = required_sample(max_margin)
        inside_mask = sketch.sample_mask(selection.mask)
        k_in = int(inside_mask.sum())
        k_out = int(inside_mask.size - k_in)
        if k_in < k_req or k_out < k_req:
            with self._lock:
                self.counters.sketch_fallbacks += 1
            return None
        with PROFILER.timer("kernel.sketch_answer"):
            inside = PairwiseMoments.from_matrix(
                sketch.samples[inside_mask] - sketch.center)
            outside = sketch.sample_moments.subtract(inside)
            index = sketch.positions(columns)
            corr_in, n_in = inside.restrict(index).correlations()
            corr_out, n_out = outside.restrict(index).correlations()
        with self._lock:
            self.counters.sketch_hits += 1
        return corr_in, n_in, corr_out, n_out


#: Another name for :class:`StatsCache`.  It must stay the very same
#: class object: code that builds or patches caches through this name
#: then reaches every cache the runtime creates.
TieredStatsCache = StatsCache
