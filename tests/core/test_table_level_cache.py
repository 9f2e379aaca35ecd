"""Table-level statistics computed once per table and configuration and
sliced per query, and the per-predicate byte budget."""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.app.session import HISTORY_LIMIT
from repro.core import dependency as dependency_module
from repro.core import stats_cache
from repro.core.config import ZiggyConfig
from repro.core.dependency import compute_dependency_matrix
from repro.core.pipeline import Ziggy
from repro.core.stats_cache import StatsCache
from repro.data.registry import load_dataset
from repro.engine.database import selection_from_mask
from repro.engine.table import Table
from repro.stats.correlation import PairwiseMoments

METHODS = ("pearson", "spearman", "nmi")

#: Predicates on four different columns: each query drops a different
#: predicate column from its active set.
PREDICATES = ("x > 0.3", "gappy < 0", "w >= 3", "holes > 1")


@pytest.fixture(scope="module")
def mixed_table():
    """Numeric columns with and without NaNs, plus two categoricals
    (one with missing labels)."""
    rng = np.random.default_rng(21)
    n = 400
    x = rng.normal(size=n)
    gappy = np.where(rng.random(n) < 0.15, np.nan, x + rng.normal(size=n))
    holes = np.where(rng.random(n) < 0.3, np.nan, rng.exponential(size=n))
    kinds = rng.choice(["a", "b", "c", None], size=n).tolist()
    return Table.from_dict({
        "x": x,
        "gappy": gappy,
        "z": rng.normal(size=n) * 3 + x,
        "kind": kinds,
        "holes": holes,
        "flag": (x > 0).tolist(),
        "tier": rng.choice(["lo", "mid", "hi"], size=n).tolist(),
        "w": rng.integers(0, 5, size=n).astype(float),
    }, name="mixed")


def subsets(table):
    names = table.column_names
    return [names, names[1:], names[::2], tuple(reversed(names[:5])),
            ("holes", "kind", "gappy"), ("tier", "x")]


class TestSlicesMatchSubsets:
    @pytest.mark.parametrize("method", METHODS)
    def test_dependency_slice_matches_subset_computation(self, mixed_table,
                                                         method):
        full = StatsCache().dependency_matrix(
            mixed_table, mixed_table.column_names, method, 6)
        for columns in subsets(mixed_table):
            sliced = full.restrict(columns)
            direct = compute_dependency_matrix(mixed_table, columns,
                                               method=method, mi_bins=6)
            assert sliced.names == direct.names
            np.testing.assert_allclose(sliced.matrix, direct.matrix,
                                       rtol=0, atol=1e-12, equal_nan=True)

    def test_correlation_slices_match_subset_computation(self, mixed_table):
        mask = mixed_table.column("x").numeric_values() > 0.3
        selection = selection_from_mask(mixed_table, mask, label="x>0.3")
        numeric = mixed_table.numeric_column_names()
        full = StatsCache().group_correlations(selection, numeric)
        position = {name: i for i, name in enumerate(numeric)}
        for columns in (numeric[1:], ("holes", "x"), numeric[::-2]):
            index = [position[c] for c in columns]
            direct = StatsCache().group_correlations(selection, columns)
            for whole, part in zip(full, direct):
                np.testing.assert_allclose(whole[np.ix_(index, index)], part,
                                           rtol=1e-12, atol=1e-12,
                                           equal_nan=True)


class TestSharedAcrossQueries:
    @pytest.mark.parametrize("method", METHODS)
    def test_one_computation_per_table_and_configuration(self, mixed_table,
                                                         method):
        cache = StatsCache()
        engine = Ziggy(mixed_table, cache=cache,
                       config=ZiggyConfig(dependency_method=method))
        for where in PREDICATES:
            engine.characterize(where)
        # Each query's active columns differ (its predicate column is
        # out), yet the matrix and the global moments are computed once.
        assert cache.counters.dependency_misses == 1
        assert cache.counters.dependency_hits == len(PREDICATES) - 1
        assert len(cache._global_moments) == 1
        assert len(cache._inside_moments) == len(PREDICATES)

    def test_slices_answer_like_the_subset_computation(self, mixed_table):
        shared = Ziggy(mixed_table, cache=StatsCache())
        for where in PREDICATES:
            got = shared.characterize(where)
            # A fresh cache asked only for this query's active columns.
            prepared = shared.last_prepared
            direct = compute_dependency_matrix(
                mixed_table, prepared.active_columns)
            np.testing.assert_allclose(prepared.dependency.matrix,
                                       direct.matrix, rtol=0, atol=1e-12,
                                       equal_nan=True)
            want = Ziggy(mixed_table, share_statistics=False).characterize(
                where)
            assert [v.view for v in got.views] == [v.view for v in want.views]
            for a, b in zip(got.views, want.views):
                assert a.score == pytest.approx(b.score, rel=1e-12, abs=0)
                assert a.p_value == pytest.approx(b.p_value, rel=1e-12,
                                                  abs=0)


class TestConfigurationBoundsTheColumns:
    @pytest.fixture(scope="class")
    def keyed_table(self):
        """Two unique-per-row string columns (an id and a name) beside
        ordinary columns."""
        rng = np.random.default_rng(8)
        n = 3000
        x = rng.normal(size=n)
        return Table.from_dict({
            "id": [f"row-{i:05d}" for i in range(n)],
            "name": [f"name-{i * 7919 % n:05d}" for i in range(n)],
            "x": x,
            "y": x + rng.normal(size=n),
            "z": rng.exponential(size=n),
            "kind": rng.choice(["a", "b", "c"], size=n).tolist(),
            "tier": rng.choice(["lo", "hi"], size=n).tolist(),
        }, name="keyed")

    @pytest.fixture
    def cramer_sizes(self, monkeypatch):
        """The category counts every Cramér's V call sees."""
        sizes = []
        real = dependency_module.cramers_v

        def spy(codes_a, codes_b, k_a, k_b):
            sizes.append((k_a, k_b))
            return real(codes_a, codes_b, k_a, k_b)

        monkeypatch.setattr(dependency_module, "cramers_v", spy)
        return sizes

    def test_excluded_categoricals_never_reach_cramers_v(self, keyed_table,
                                                         cramer_sizes):
        config = ZiggyConfig(excluded_columns=("id", "name"))
        cache = StatsCache()
        engine = Ziggy(keyed_table, cache=cache, config=config)
        engine.characterize("x > 0.5")
        engine.characterize("kind = 'a'")
        # Only kind x tier: the id and name codes (3,000 labels each,
        # a 9e6-cell contingency table) are never tabulated.
        assert cramer_sizes == [(3, 2)]
        (key,) = cache._dependency
        assert "id" not in key[-1] and "name" not in key[-1]

    def test_categoricals_off_leaves_them_out_of_the_matrix(self, keyed_table,
                                                            cramer_sizes):
        config = ZiggyConfig(include_categorical=False)
        cache = StatsCache()
        Ziggy(keyed_table, cache=cache, config=config).characterize("x > 0.5")
        assert cramer_sizes == []
        (key,) = cache._dependency
        assert key[-1] == ("x", "y", "z")


class TestByteBudget:
    @pytest.fixture(scope="class")
    def crime(self):
        return load_dataset("us_crime")

    def test_many_predicates_stay_under_budget(self, crime):
        cache = StatsCache()
        numeric = crime.numeric_column_names()
        values = crime.column(numeric[0]).numeric_values()
        order = np.argsort(values, kind="stable")
        rng = np.random.default_rng(5)
        for i in range(500):
            start = int(rng.integers(0, crime.n_rows // 2))
            mask = np.zeros(crime.n_rows, dtype=bool)
            mask[order[start:start + crime.n_rows // 3]] = True
            selection = selection_from_mask(crime, mask, label=f"p{i}")
            cache.inside_moments(selection, numeric)
            for column in numeric:
                cache.inside_column_stats(selection, column)
            if i + 1 == HISTORY_LIMIT:
                # A session's whole history fits before anything goes.
                assert cache.counters.inside_evictions == 0
        budget = stats_cache.INSIDE_BUDGET_BYTES
        held = (sum(m.nbytes for m in cache._inside_moments.values())
                + len(cache._inside_stats) * stats_cache._SUMMARY_NBYTES)
        assert held == cache._inside_bytes <= budget
        assert cache.counters.inside_evictions > 0
        # The blob of a saturated cache is bounded by the budget too.
        assert len(pickle.dumps(cache)) < 2 * budget

    def test_entry_larger_than_budget_is_not_kept(self, mixed_table,
                                                  monkeypatch):
        monkeypatch.setattr(stats_cache, "INSIDE_BUDGET_BYTES", 64)
        cache = StatsCache()
        mask = np.arange(mixed_table.n_rows) % 3 == 0
        selection = selection_from_mask(mixed_table, mask, label="thirds")
        moments = cache.inside_moments(selection, ("x", "z"))
        assert moments.n[0, 1] == mask.sum()
        assert cache._inside_bytes == 0 and not cache._inside_moments


    def test_concurrent_fills_keep_the_ledger_exact(self, mixed_table,
                                                    monkeypatch):
        """Threads racing to fill and evict per-predicate entries never
        lose an update to the byte ledger."""
        numeric = mixed_table.numeric_column_names()
        moments_bytes = PairwiseMoments.from_matrix(
            mixed_table.numeric_matrix(numeric)).nbytes
        monkeypatch.setattr(stats_cache, "INSIDE_BUDGET_BYTES",
                            5 * moments_bytes)
        cache = StatsCache()
        n_rows = mixed_table.n_rows
        errors = []

        def fill(worker):
            try:
                for i in range(40):
                    mask = np.arange(n_rows) % (i % 7 + 2) == worker % 2
                    selection = selection_from_mask(
                        mixed_table, mask, label=f"{worker}/{i}")
                    cache.group_correlations(selection, numeric)
                    for column in numeric:
                        cache.inside_column_stats(selection, column)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=fill, args=(w,))
                       for w in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        held = (sum(m.nbytes for m in cache._inside_moments.values())
                + len(cache._inside_stats) * stats_cache._SUMMARY_NBYTES)
        assert held == cache._inside_bytes <= stats_cache.INSIDE_BUDGET_BYTES
        assert set(cache._lru) == (
            {("_inside_moments", key) for key in cache._inside_moments}
            | {("_inside_stats", key) for key in cache._inside_stats})
        assert cache.counters.inside_evictions > 0
