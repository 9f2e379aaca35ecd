"""Tests for the statistics cache's sketch tier: sketch answers, exact
fallback, the per-predicate byte budget, and snapshot/merge/pickle
transport."""

import pickle

import numpy as np
import pytest

from repro.core import stats_cache
from repro.core.config import ZiggyConfig
from repro.core.preparation import PreparationEngine
from repro.core.stats_cache import StatsCache
from repro.engine.database import Database, selection_from_mask
from repro.engine.table import Table
from repro.stats.correlation import pearson
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


COLUMNS = ("x", "y", "z")


class TestSketchColumnAnswer:
    def test_small_table_stays_exact(self):
        table = make_table(500, name="small_t")
        db = Database()
        db.register(table)
        cache = StatsCache()
        cache.ensure_sketch(table)
        sel = db.select("small_t", "x > 0")
        assert cache.sketch_column_answer(sel, COLUMNS, 0.1) is None
        assert cache.counters.sketch_fallbacks == 0  # covers_all, not a gate

    def test_answer_close_to_exact(self, big_db, big_table):
        cache = StatsCache()
        cache.ensure_sketch(big_table)
        sel = big_db.select("tiered_t", "x > 0")
        answers = cache.sketch_column_answer(sel, COLUMNS, 0.1)
        assert answers is not None and set(answers) == set(COLUMNS)
        assert cache.counters.sketch_hits == len(COLUMNS)
        inside, outside, values_in, values_out = answers["y"]
        exact_in = summarize(
            big_table.column("y").numeric_values()[sel.mask])
        # sample estimates: means agree within a few standard errors
        assert inside.mean == pytest.approx(exact_in.mean,
                                            abs=4 * inside.sem)
        assert inside.n + outside.n <= cache.sketch_capacity
        assert values_in.size == inside.total
        assert values_out.size == outside.total
        # one masked pass: each column's summaries are its own sample's
        sketch = cache.sketch_for(big_table.fingerprint())
        in_sample = sketch.sample_mask(sel.mask)
        for name in COLUMNS:
            sample = sketch.columns[name].sample
            assert np.array_equal(answers[name][2], sample[in_sample])
            assert answers[name][0].mean == pytest.approx(
                summarize(sample[in_sample]).mean, rel=1e-12)
            assert answers[name][1].m2 == pytest.approx(
                summarize(sample[~in_sample]).m2, rel=1e-12)

    def test_tight_margin_falls_back(self, big_db, big_table):
        cache = StatsCache()
        cache.ensure_sketch(big_table)
        sel = big_db.select("tiered_t", "x > 0")
        # margin 0.01 needs ~38k samples; the reservoir holds 4096
        assert cache.sketch_column_answer(sel, COLUMNS, 0.01) is None
        assert cache.counters.sketch_fallbacks == len(COLUMNS)

    def test_selective_predicate_falls_back(self, big_db, big_table):
        cache = StatsCache()
        cache.ensure_sketch(big_table)
        sel = big_db.select("tiered_t", "x > 2.8")  # ~0.3% of rows
        assert cache.sketch_column_answer(sel, COLUMNS, 0.1) is None
        assert cache.counters.sketch_fallbacks == len(COLUMNS)

    def test_unknown_column_returns_none(self, big_db, big_table):
        cache = StatsCache()
        cache.ensure_sketch(big_table)
        sel = big_db.select("tiered_t", "x > 0")
        assert cache.sketch_column_answer(sel, ("nope",), 0.1) is None
        answers = cache.sketch_column_answer(sel, ("nope", "y"), 0.1)
        assert set(answers) == {"y"}

    def test_no_sketch_returns_none(self, big_db, big_table):
        cache = StatsCache()
        sel = big_db.select("tiered_t", "x > 0")
        assert cache.sketch_column_answer(sel, COLUMNS, 0.1) is None


class TestPerColumnGate:
    """A column too sparse for the error bound goes to the exact tier on
    its own; its neighbours keep their sketch answers."""

    @pytest.fixture(scope="class")
    def sparse(self):
        rng = np.random.default_rng(5)
        n = N_BIG
        x = rng.normal(size=n)
        sparse = rng.normal(size=n)
        sparse[rng.random(n) < 0.95] = np.nan  # ~200 sampled values
        table = Table.from_dict({
            "x": x,
            "y": x * 0.6 + rng.normal(scale=0.8, size=n),
            "z": rng.normal(loc=3.0, size=n),
            "sparse": sparse,
        }, name="sparse_t")
        db = Database()
        db.register(table)
        return table, db

    def test_sparse_column_falls_back_alone(self, sparse):
        table, db = sparse
        cache = StatsCache()
        cache.ensure_sketch(table)
        sel = db.select("sparse_t", "x > 0")
        answers = cache.sketch_column_answer(
            sel, ("x", "y", "z", "sparse"), 0.1)
        assert set(answers) == {"x", "y", "z"}
        assert cache.counters.sketch_hits == 3
        assert cache.counters.sketch_fallbacks == 1
        assert cache.sketch_column_answer(sel, ("sparse",), 0.1) is None
        assert cache.counters.sketch_fallbacks == 2

    def test_preparation_answers_the_sparse_column_exactly(self, sparse):
        table, db = sparse
        cache = StatsCache()
        cache.ensure_sketch(table)
        sel = db.select("sparse_t", "x > 0")
        prepared = PreparationEngine(cache=cache).prepare(sel,
                                                          ZiggyConfig())
        slices = prepared.column_slices
        sample_in = int(cache.sketch_for(table.fingerprint())
                        .sample_mask(sel.mask).sum())
        assert slices["y"].inside.size == sample_in
        assert slices["z"].inside.size == sample_in
        assert slices["sparse"].inside.size == sel.n_inside
        assert slices["sparse"].inside_stats == cache.inside_column_stats(
            sel, "sparse")
        assert "sketch tier answered 2/3 numeric columns" in \
            " ".join(prepared.notes)


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

    def test_subtracted_outside_matches_the_sample(self):
        # Outside moments are the whole sample's minus the inside ones;
        # "big" has mean/sd 1e5, where uncentred moments cancel.
        rng = np.random.default_rng(3)
        n = N_BIG
        x = rng.normal(size=n)
        big = 1e6 + 10.0 * (0.7 * x + rng.normal(scale=0.7, size=n))
        gappy = x - 0.5 * rng.normal(size=n)
        gappy[rng.random(n) < 0.2] = np.nan
        table = Table.from_dict({"x": x, "big": big, "gappy": gappy,
                                 "z": rng.normal(size=n)}, name="cancel_t")
        db = Database()
        db.register(table)
        cache = StatsCache()
        sketch = cache.ensure_sketch(table)
        sel = db.select("cancel_t", "z > 0.3")
        columns = ("gappy", "big", "x")
        corr_in, n_in, corr_out, n_out = cache.sketch_group_correlations(
            sel, columns, 0.1)
        inside = sketch.sample_mask(sel.mask)
        for group, corr, counts in ((inside, corr_in, n_in),
                                    (~inside, corr_out, n_out)):
            for i, a in enumerate(columns):
                for j, b in enumerate(columns):
                    xa = sketch.columns[a].sample[group]
                    xb = sketch.columns[b].sample[group]
                    both = ~(np.isnan(xa) | np.isnan(xb))
                    assert counts[i, j] == both.sum()
                    if i != j:
                        assert corr[i, j] == pytest.approx(
                            pearson(xa, xb), abs=1e-9)


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
        cache = StatsCache(sketch_capacity=512)
        cache.ensure_sketch(big_table)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.sketch_capacity == 512
        sketch = clone.sketch_for(big_table.fingerprint())
        assert sketch is not None and sketch.sample_size == 512

    def test_merge_carries_sketch(self, big_table):
        warm = StatsCache()
        warm.ensure_sketch(big_table)
        cold = StatsCache()
        assert cold.merge_from(warm) >= 1
        assert cold.sketch_for(big_table.fingerprint()) is not None


def budget_of(monkeypatch, summaries: int) -> None:
    """Shrink the per-predicate budget to room for ``summaries``
    summaries."""
    monkeypatch.setattr(stats_cache, "INSIDE_BUDGET_BYTES",
                        summaries * stats_cache._SUMMARY_NBYTES)


class TestBounding:
    def test_inside_stores_lru_capped(self, monkeypatch):
        budget_of(monkeypatch, 10)
        table = make_table(300, name="lru_t")
        cache = StatsCache()
        mask = np.zeros(table.n_rows, dtype=bool)
        mask[:50] = True
        for i in range(25):
            sel = selection_from_mask(table, np.roll(mask, i), label=str(i))
            cache.inside_column_stats(sel, "x")
        assert len(cache._inside_stats) == 10
        assert cache.counters.inside_evictions == 15
        assert cache._inside_bytes == stats_cache.INSIDE_BUDGET_BYTES

    def test_lru_keeps_recently_used(self, monkeypatch):
        budget_of(monkeypatch, 2)
        table = make_table(300, name="lru_t2")
        cache = StatsCache()
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
