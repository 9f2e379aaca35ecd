"""Tests for the cross-query statistics cache."""

import numpy as np
import pytest

from repro.core.stats_cache import StatsCache
from repro.engine.database import Database
from repro.engine.table import Table
from repro.stats.correlation import masked_correlation_matrix
from repro.stats.descriptive import summarize


@pytest.fixture
def db_and_table(rng):
    n = 500
    x = rng.normal(size=n)
    table = Table.from_dict({
        "x": x,
        "y": x * 0.7 + rng.normal(scale=0.5, size=n),
        "z": rng.normal(size=n),
        "gappy": np.where(rng.random(n) < 0.1, np.nan, rng.normal(size=n)),
    }, name="cache_t")
    db = Database()
    db.register(table)
    return db, table


class TestColumnStats:
    def test_global_cached(self, db_and_table):
        db, table = db_and_table
        cache = StatsCache()
        a = cache.global_column_stats(table, "x")
        b = cache.global_column_stats(table, "x")
        assert a is b
        assert cache.counters.column_hits == 1
        assert cache.counters.column_misses == 1

    def test_inside_keyed_by_fingerprint(self, db_and_table):
        db, table = db_and_table
        cache = StatsCache()
        sel1 = db.select("cache_t", "x > 0")
        sel1_again = db.select("cache_t", "x > 0.0")  # same canonical form
        cache.inside_column_stats(sel1, "y")
        cache.inside_column_stats(sel1_again, "y")
        assert cache.counters.inside_hits == 1

    def test_outside_derived_matches_direct(self, db_and_table):
        db, table = db_and_table
        cache = StatsCache()
        sel = db.select("cache_t", "x > 0.5")
        derived = cache.outside_column_stats(sel, "gappy")
        direct = summarize(table.column("gappy").numeric_values()[~sel.mask])
        assert derived.n == direct.n
        assert derived.n_missing == direct.n_missing
        assert derived.mean == pytest.approx(direct.mean)
        assert derived.variance == pytest.approx(direct.variance)


class TestGroupCorrelations:
    def test_outside_matches_direct_computation(self, db_and_table):
        db, table = db_and_table
        cache = StatsCache()
        sel = db.select("cache_t", "z > 0")
        cols = ("x", "y", "gappy")
        _, _, corr_out, n_out = cache.group_correlations(sel, cols)
        direct, n_direct = masked_correlation_matrix(
            table.numeric_matrix(cols)[~sel.mask])
        assert np.allclose(corr_out, direct, atol=1e-8, equal_nan=True)
        assert np.allclose(n_out, n_direct)

    def test_second_query_reuses_global_moments(self, db_and_table):
        db, table = db_and_table
        cache = StatsCache()
        cols = ("x", "y", "z")
        cache.group_correlations(db.select("cache_t", "x > 0"), cols)
        misses_before = cache.counters.moments_misses
        cache.group_correlations(db.select("cache_t", "x > 1"), cols)
        # Only the new inside moments miss; global moments hit.
        assert cache.counters.moments_misses == misses_before + 1
        assert cache.counters.moments_hits >= 1


class TestDependencyCache:
    def test_shared_across_queries(self, db_and_table):
        db, table = db_and_table
        cache = StatsCache()
        cols = table.numeric_column_names()
        a = cache.dependency_matrix(table, cols, "pearson", 8)
        b = cache.dependency_matrix(table, cols, "pearson", 8)
        assert a is b
        assert cache.counters.dependency_hits == 1

    def test_method_distinguished(self, db_and_table):
        db, table = db_and_table
        cache = StatsCache()
        cols = ("x", "y")
        a = cache.dependency_matrix(table, cols, "pearson", 8)
        b = cache.dependency_matrix(table, cols, "spearman", 8)
        assert a is not b


class TestMaintenance:
    def test_clear_preserves_counters(self, db_and_table):
        db, table = db_and_table
        cache = StatsCache()
        cache.global_column_stats(table, "x")
        cache.clear()
        assert cache.size == 0
        assert cache.counters.column_misses == 1

    def test_distinct_tables_do_not_collide(self, rng):
        t1 = Table.from_dict({"v": rng.normal(size=50)}, name="t1")
        t2 = Table.from_dict({"v": rng.normal(loc=100, size=50)}, name="t2")
        cache = StatsCache()
        s1 = cache.global_column_stats(t1, "v")
        s2 = cache.global_column_stats(t2, "v")
        assert abs(s1.mean - s2.mean) > 50
