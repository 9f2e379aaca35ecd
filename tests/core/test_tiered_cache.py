"""Tests for the statistics cache's sketch tier: sketch answers, exact
fallback, LRU bounding, indexed invalidation, and snapshot/merge/pickle
transport."""

import pickle

import numpy as np
import pytest

from repro.core import stats_cache
from repro.core.stats_cache import StatsCache
from repro.engine.database import Database, selection_from_mask
from repro.engine.table import Table
from repro.stats.descriptive import summarize

N_BIG = 20_000


def make_table(n, seed=11, name="tiered_t"):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    return Table.from_dict({
        "x": x,
        "y": x * 0.6 + rng.normal(scale=0.8, size=n),
        "z": rng.normal(loc=3.0, size=n),
    }, name=name)


@pytest.fixture(scope="module")
def big_table():
    return make_table(N_BIG)


@pytest.fixture(scope="module")
def big_db(big_table):
    db = Database()
    db.register(big_table)
    return db


def test_tiered_name_is_the_cache_class():
    # perfbench builds its reference cache and patches the sketch-tier
    # methods through this name; a subclass would leave the runtime's
    # caches unpatched.
    assert stats_cache.TieredStatsCache is StatsCache


class TestSketchColumnAnswer:
    def test_small_table_stays_exact(self):
        table = make_table(500, name="small_t")
        db = Database()
        db.register(table)
        cache = StatsCache()
        cache.ensure_sketch(table)
        sel = db.select("small_t", "x > 0")
        assert cache.sketch_column_answer(sel, "y", 0.1) is None
        assert cache.counters.sketch_fallbacks == 0  # covers_all, not a gate

    def test_answer_close_to_exact(self, big_db, big_table):
        cache = StatsCache()
        cache.ensure_sketch(big_table)
        sel = big_db.select("tiered_t", "x > 0")
        answer = cache.sketch_column_answer(sel, "y", 0.1)
        assert answer is not None
        inside, outside, values_in, values_out = answer
        assert cache.counters.sketch_hits >= 1
        exact_in = summarize(
            big_table.column("y").numeric_values()[sel.mask])
        # sample estimates: means agree within a few standard errors
        assert inside.mean == pytest.approx(exact_in.mean,
                                            abs=4 * inside.sem)
        assert inside.n + outside.n <= cache.sketch_capacity
        assert values_in.size == inside.total
        assert values_out.size == outside.total

    def test_tight_margin_falls_back(self, big_db, big_table):
        cache = StatsCache()
        cache.ensure_sketch(big_table)
        sel = big_db.select("tiered_t", "x > 0")
        # margin 0.01 needs ~38k samples; the reservoir holds 4096
        assert cache.sketch_column_answer(sel, "y", 0.01) is None
        assert cache.counters.sketch_fallbacks == 1

    def test_selective_predicate_falls_back(self, big_db, big_table):
        cache = StatsCache()
        cache.ensure_sketch(big_table)
        sel = big_db.select("tiered_t", "x > 2.8")  # ~0.3% of rows
        assert cache.sketch_column_answer(sel, "y", 0.1) is None
        assert cache.counters.sketch_fallbacks == 1

    def test_unknown_column_returns_none(self, big_db, big_table):
        cache = StatsCache()
        cache.ensure_sketch(big_table)
        sel = big_db.select("tiered_t", "x > 0")
        assert cache.sketch_column_answer(sel, "nope", 0.1) is None

    def test_no_sketch_returns_none(self, big_db, big_table):
        cache = StatsCache()
        sel = big_db.select("tiered_t", "x > 0")
        assert cache.sketch_column_answer(sel, "y", 0.1) is None


class TestSketchGroupCorrelations:
    def test_close_to_exact(self, big_db, big_table):
        cache = StatsCache()
        cache.ensure_sketch(big_table)
        sel = big_db.select("tiered_t", "z > 3")
        columns = ("x", "y", "z")
        answer = cache.sketch_group_correlations(sel, columns, 0.1)
        assert answer is not None
        corr_in, n_in, corr_out, n_out = answer
        exact = StatsCache().group_correlations(sel, columns)
        # the planted x-y correlation survives sampling on both sides
        assert corr_in[0, 1] == pytest.approx(exact[0][0, 1], abs=0.1)
        assert corr_out[0, 1] == pytest.approx(exact[2][0, 1], abs=0.1)
        assert n_in.max() <= cache.sketch_capacity

    def test_fallback_counted(self, big_db, big_table):
        cache = StatsCache()
        cache.ensure_sketch(big_table)
        sel = big_db.select("tiered_t", "x > 2.8")
        assert cache.sketch_group_correlations(sel, ("x", "y"), 0.1) is None
        assert cache.counters.sketch_fallbacks == 1


class TestGlobalStatsFromSketch:
    def test_served_exactly_without_exact_traffic(self, big_table):
        cache = StatsCache()
        cache.ensure_sketch(big_table)
        stats = cache.global_column_stats(big_table, "y")
        exact = summarize(big_table.column("y").numeric_values())
        assert stats == exact  # streaming moments are exact
        assert cache.counters.sketch_hits == 1
        assert cache.counters.column_misses == 0
        # second call hits the materialized exact store
        cache.global_column_stats(big_table, "y")
        assert cache.counters.column_hits == 1


class TestTransport:
    def test_snapshot_keeps_tier_and_sketch(self, big_table):
        cache = StatsCache(sketch_capacity=512)
        cache.ensure_sketch(big_table)
        clone = cache.snapshot()
        assert clone.sketch_capacity == 512
        assert clone.sketch_for(big_table.fingerprint()) is not None

    def test_pickle_round_trip(self, big_table):
        cache = StatsCache(max_inside_entries=77, sketch_capacity=512)
        cache.ensure_sketch(big_table)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.max_inside_entries == 77
        assert clone.sketch_capacity == 512
        sketch = clone.sketch_for(big_table.fingerprint())
        assert sketch is not None and sketch.sample_size == 512

    def test_merge_carries_sketch(self, big_table):
        warm = StatsCache()
        warm.ensure_sketch(big_table)
        cold = StatsCache()
        assert cold.merge_from(warm) >= 1
        assert cold.sketch_for(big_table.fingerprint()) is not None


class TestBounding:
    def test_inside_stores_lru_capped(self):
        table = make_table(300, name="lru_t")
        cache = StatsCache(max_inside_entries=10)
        mask = np.zeros(table.n_rows, dtype=bool)
        mask[:50] = True
        for i in range(25):
            sel = selection_from_mask(table, np.roll(mask, i), label=str(i))
            cache.inside_column_stats(sel, "x")
        assert len(cache._inside_stats) == 10
        assert cache.counters.inside_evictions == 15

    def test_lru_keeps_recently_used(self):
        table = make_table(300, name="lru_t2")
        cache = StatsCache(max_inside_entries=2)
        sels = [selection_from_mask(
            table, np.arange(table.n_rows) % (i + 2) == 0, label=str(i))
            for i in range(3)]
        cache.inside_column_stats(sels[0], "x")
        cache.inside_column_stats(sels[1], "x")
        cache.inside_column_stats(sels[0], "x")  # refresh 0
        cache.inside_column_stats(sels[2], "x")  # evicts 1, not 0
        hits_before = cache.counters.inside_hits
        cache.inside_column_stats(sels[0], "x")
        assert cache.counters.inside_hits == hits_before + 1

    def test_eviction_maintains_fingerprint_index(self):
        table = make_table(300, name="lru_t3")
        cache = StatsCache(max_inside_entries=5)
        for i in range(12):
            sel = selection_from_mask(
                table, np.arange(table.n_rows) % 7 == i % 7, label=str(i))
            cache.inside_column_stats(sel, "x")
        cache.invalidate_fingerprint(table.fingerprint())
        assert cache.size == 0
        assert not cache._by_fingerprint


class TestInvalidation:
    def test_only_named_fingerprint_dropped(self, big_db, big_table):
        other = make_table(400, seed=5, name="other_t")
        cache = StatsCache()
        cache.ensure_sketch(big_table)
        cache.ensure_sketch(other)
        cache.global_column_stats(big_table, "x")
        cache.global_column_stats(other, "x")
        before = cache.size
        cache.invalidate_fingerprint(big_table.fingerprint())
        assert cache.sketch_for(big_table.fingerprint()) is None
        assert cache.sketch_for(other.fingerprint()) is not None
        assert cache.size < before
        # the surviving table's entries still serve
        hits = cache.counters.column_hits
        cache.global_column_stats(other, "x")
        assert cache.counters.column_hits == hits + 1
