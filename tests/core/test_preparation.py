"""Tests for the preparation stage."""

import numpy as np
import pytest

from repro.core.components.base import default_registry
from repro.core.config import ZiggyConfig
from repro.core.preparation import PreparationEngine, active_components
from repro.engine.database import Database
from repro.engine.table import Table
from repro.errors import EmptySelectionError


@pytest.fixture
def prep_db(rng):
    n = 400
    factor = rng.normal(size=n)
    table = Table.from_dict({
        "driver": rng.normal(size=n),
        "t1": factor + rng.normal(scale=0.3, size=n),
        "t2": factor + rng.normal(scale=0.3, size=n),
        "lonely": rng.normal(size=n),
        "cat": [("u", "v", "w")[k] for k in rng.integers(0, 3, size=n)],
    }, name="prep")
    db = Database()
    db.register(table)
    return db


class TestActiveComponents:
    def test_default_set(self):
        chosen = active_components(default_registry(), ZiggyConfig())
        names = {c.name for c, _ in chosen}
        assert names == {"mean_shift", "spread_shift", "correlation_shift",
                         "frequency_shift", "missing_shift"}

    def test_zero_weight_disables(self):
        cfg = ZiggyConfig(weights={"mean_shift": 0.0})
        names = {c.name for c, _ in
                 active_components(default_registry(), cfg)}
        assert "mean_shift" not in names

    def test_optional_component_enabled_by_weight(self):
        cfg = ZiggyConfig(weights={"dominance": 2.0})
        chosen = dict((c.name, w) for c, w in
                      active_components(default_registry(), cfg))
        assert chosen["dominance"] == 2.0


class TestPrepare:
    def test_structure(self, prep_db):
        sel = prep_db.select("prep", "driver > 0")
        prepared = PreparationEngine().prepare(sel, ZiggyConfig())
        assert set(prepared.active_columns) == {"t1", "t2", "lonely", "cat"}
        assert set(prepared.column_slices) == set(prepared.active_columns)
        # t1-t2 is the only tight numeric pair.
        assert ("t1", "t2") in prepared.pair_slices

    def test_predicate_columns_excluded_by_default(self, prep_db):
        sel = prep_db.select("prep", "driver > 0")
        prepared = PreparationEngine().prepare(sel, ZiggyConfig())
        assert "driver" not in prepared.active_columns
        assert any("driver" in n for n in prepared.notes)

    def test_predicate_columns_kept_when_configured(self, prep_db):
        sel = prep_db.select("prep", "driver > 0")
        cfg = ZiggyConfig(exclude_predicate_columns=False)
        prepared = PreparationEngine().prepare(sel, cfg)
        assert "driver" in prepared.active_columns

    def test_explicit_exclusions(self, prep_db):
        sel = prep_db.select("prep", "driver > 0")
        cfg = ZiggyConfig(excluded_columns=("lonely", "cat"))
        prepared = PreparationEngine().prepare(sel, cfg)
        assert "lonely" not in prepared.active_columns
        assert "cat" not in prepared.active_columns

    def test_categorical_excluded_when_configured(self, prep_db):
        sel = prep_db.select("prep", "driver > 0")
        cfg = ZiggyConfig(include_categorical=False)
        prepared = PreparationEngine().prepare(sel, cfg)
        assert "cat" not in prepared.active_columns

    def test_pairwise_disabled(self, prep_db):
        sel = prep_db.select("prep", "driver > 0")
        cfg = ZiggyConfig(correlation_components=False)
        prepared = PreparationEngine().prepare(sel, cfg)
        assert prepared.pair_slices == {}

    def test_empty_selection_raises(self, prep_db):
        sel = prep_db.select("prep", "driver > 1000")
        with pytest.raises(EmptySelectionError):
            PreparationEngine().prepare(sel, ZiggyConfig())

    def test_full_selection_raises(self, prep_db):
        sel = prep_db.select("prep", None)
        with pytest.raises(EmptySelectionError):
            PreparationEngine().prepare(sel, ZiggyConfig())

    def test_min_group_size_enforced(self, prep_db):
        table = prep_db.table("prep")
        values = np.sort(table.column("driver").numeric_values())
        # Select exactly 3 rows.
        sel = prep_db.select("prep", f"driver < {values[3]:.9f}")
        with pytest.raises(EmptySelectionError):
            PreparationEngine().prepare(sel, ZiggyConfig(min_group_size=8))

    def test_catalog_populated(self, prep_db):
        sel = prep_db.select("prep", "driver > 0")
        prepared = PreparationEngine().prepare(sel, ZiggyConfig())
        assert prepared.catalog.unary        # every column got components
        assert "cat" in prepared.catalog.unary  # frequency shift ran
        mean_scores = [s for scores in prepared.catalog.unary.values()
                       for s in scores if s.component == "mean_shift"]
        assert mean_scores

    def test_pair_slice_correlations_correct(self, prep_db):
        sel = prep_db.select("prep", "driver > 0")
        prepared = PreparationEngine().prepare(sel, ZiggyConfig())
        pair = prepared.pair_slices[("t1", "t2")]
        table = prep_db.table("prep")
        from repro.stats.correlation import pearson
        t1 = table.column("t1").numeric_values()
        t2 = table.column("t2").numeric_values()
        assert pair.r_inside == pytest.approx(
            pearson(t1[sel.mask], t2[sel.mask]), abs=1e-9)
        assert pair.r_outside == pytest.approx(
            pearson(t1[~sel.mask], t2[~sel.mask]), abs=1e-9)
        assert pair.n_inside == sel.n_inside

    def test_categorical_slices_have_profiles(self, prep_db):
        sel = prep_db.select("prep", "driver > 0")
        prepared = PreparationEngine().prepare(sel, ZiggyConfig())
        cat_slice = prepared.column_slices["cat"]
        assert cat_slice.is_categorical
        assert cat_slice.inside_profile.n == sel.n_inside
        assert cat_slice.outside_profile.n == sel.n_outside

    def test_shared_cache_reused_across_calls(self, prep_db):
        from repro.core.stats_cache import StatsCache
        cache = StatsCache()
        engine = PreparationEngine(cache=cache)
        engine.prepare(prep_db.select("prep", "driver > 0"), ZiggyConfig())
        hits_before = cache.counters.hits
        engine.prepare(prep_db.select("prep", "driver > 0.5"), ZiggyConfig())
        assert cache.counters.hits > hits_before


class TestComponentBatches:
    """The stage makes one ``compute_batch`` call per component."""

    def test_one_batch_per_component(self, prep_db, monkeypatch):
        from repro.core.components.numeric import MeanShiftComponent
        calls = []
        batch = MeanShiftComponent.compute_batch

        def counted(self, slices):
            calls.append(len(slices))
            return batch(self, slices)

        monkeypatch.setattr(MeanShiftComponent, "compute_batch", counted)
        sel = prep_db.select("prep", "driver > 0")
        PreparationEngine().prepare(sel, ZiggyConfig())
        assert calls == [3]  # t1, t2, lonely; driver is the predicate's

    def test_compute_only_component_runs_through_the_default(self, prep_db):
        from repro.core.components.base import (
            ComponentOutcome,
            ZigComponent,
        )

        class Span(ZigComponent):
            name = "span"

            def compute(self, data):
                data.ensure_stats()
                return ComponentOutcome(raw=data.inside_stats.value_range,
                                        direction="higher")

        registry = default_registry().copy()
        registry.register(Span())
        sel = prep_db.select("prep", "driver > 0")
        prepared = PreparationEngine(registry=registry).prepare(
            sel, ZiggyConfig(weights={"span": 1.0}))
        assert {s.component for s in prepared.catalog.unary["t1"]} >= {
            "span", "mean_shift"}

    def test_batch_of_the_wrong_length_is_refused(self, prep_db):
        from repro.core.components.base import ZigComponent
        from repro.errors import ComponentError

        class Short(ZigComponent):
            name = "short"

            def compute_batch(self, slices):
                return []

        registry = default_registry().copy()
        registry.register(Short())
        sel = prep_db.select("prep", "driver > 0")
        with pytest.raises(ComponentError, match="0 outcomes for 3"):
            PreparationEngine(registry=registry).prepare(
                sel, ZiggyConfig(weights={"short": 1.0}))
