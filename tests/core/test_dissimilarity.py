"""Tests for normalization and the Zig-Dissimilarity aggregation."""

import numpy as np
import pytest

from repro.core.components.base import ComponentOutcome
from repro.core.config import ZiggyConfig
from repro.core.dissimilarity import (
    ComponentCatalog,
    Normalizer,
    build_normalizer,
    make_component_score,
    score_view,
    zig_dissimilarity,
)
from repro.core.views import ComponentScore, View
from repro.errors import ConfigError
from repro.stats.robust import mad


class TestBuildNormalizer:
    def test_robust_z_scales_by_population(self):
        population = [0.1, 0.12, 0.09, 0.11, 0.1, 2.0]
        norm = build_normalizer(population, "robust_z")
        assert norm.normalize(2.0) > 5.0          # clear outlier
        assert norm.normalize(0.1) < 1.0           # typical value

    def test_robust_z_subnormal_scale_falls_through(self):
        # MAD 0, IQR subnormal: the population standard deviation scales.
        population = [0.0, 0.0, 0.0, 1e-320, 1e6]
        norm = build_normalizer(population, "robust_z")
        assert norm.scale == pytest.approx(np.std(population))
        assert np.isfinite(norm.normalize(1e6))

    def test_robust_z_infinite_raw_keeps_the_mad(self):
        population = [0.0, 10.0, 20.0, 30.0, float("inf")]
        norm = build_normalizer(population, "robust_z")
        assert norm.scale == mad(np.array(population))

    def test_robust_z_sign_insensitive(self):
        norm = build_normalizer([0.5, -0.5, 0.4, -0.6], "robust_z")
        assert norm.normalize(-2.0) == norm.normalize(2.0)

    def test_rank_normalization_bounds(self):
        norm = build_normalizer([1.0, 2.0, 3.0, 4.0], "rank")
        assert norm.normalize(5.0) == 1.0
        assert norm.normalize(0.5) == 0.0
        assert 0.0 < norm.normalize(2.5) < 1.0

    def test_none_passthrough(self):
        norm = build_normalizer([1.0, 100.0], "none")
        assert norm.normalize(-3.0) == 3.0

    def test_degenerate_population(self):
        norm = build_normalizer([0.0, 0.0, 0.0], "robust_z")
        assert norm.normalize(1.0) > 0.0          # newcomer still scores
        assert norm.normalize(0.0) == 0.0

    def test_empty_population(self):
        norm = build_normalizer([], "robust_z")
        assert norm.normalize(1.0) == 1.0

    def test_nan_values_skipped(self):
        norm = build_normalizer([1.0, float("nan"), 2.0], "rank")
        assert norm.population.size == 2

    def test_unknown_method_raises(self):
        with pytest.raises(ConfigError):
            build_normalizer([1.0], "zscore")


class TestMakeComponentScore:
    def test_carries_fields(self):
        outcome = ComponentOutcome(raw=-1.5, direction="lower",
                                   detail={"k": 1})
        score = make_component_score("mean_shift", ("a",), outcome,
                                     Normalizer(method="none"), weight=2.0)
        assert score.raw == -1.5
        assert score.normalized == 1.5
        assert score.weighted == 3.0
        assert score.detail == {"k": 1}


def make_score(component="mean_shift", columns=("a",), normalized=1.0,
               weight=1.0):
    return ComponentScore(component=component, columns=columns, raw=1.0,
                          normalized=normalized, weight=weight, test=None,
                          direction="higher")


class TestZigDissimilarity:
    def test_mean_mode(self):
        cfg = ZiggyConfig(score_mode="mean")
        comps = (make_score(normalized=2.0), make_score(normalized=4.0))
        assert zig_dissimilarity(comps, cfg) == pytest.approx(3.0)

    def test_sum_mode(self):
        cfg = ZiggyConfig(score_mode="sum")
        comps = (make_score(normalized=2.0), make_score(normalized=4.0))
        assert zig_dissimilarity(comps, cfg) == pytest.approx(6.0)

    def test_weights_respected(self):
        cfg = ZiggyConfig(score_mode="mean")
        comps = (make_score(normalized=2.0, weight=3.0),
                 make_score(normalized=10.0, weight=1.0))
        assert zig_dissimilarity(comps, cfg) == pytest.approx(
            (6.0 + 10.0) / 4.0)

    def test_zero_weight_excluded(self):
        cfg = ZiggyConfig()
        comps = (make_score(normalized=100.0, weight=0.0),
                 make_score(normalized=2.0, weight=1.0))
        assert zig_dissimilarity(comps, cfg) == pytest.approx(2.0)

    def test_empty_zero(self):
        assert zig_dissimilarity((), ZiggyConfig()) == 0.0


class TestComponentCatalog:
    def make_catalog(self):
        catalog = ComponentCatalog()
        catalog.unary["a"] = [make_score(columns=("a",), normalized=1.0)]
        catalog.unary["b"] = [make_score(columns=("b",), normalized=3.0)]
        catalog.pairwise[("a", "b")] = [
            make_score("correlation_shift", ("a", "b"), normalized=2.0)]
        return catalog

    def test_components_for_view_collects_unary_and_pairs(self):
        catalog = self.make_catalog()
        comps = catalog.components_for_view(View(columns=("a", "b")))
        names = sorted(c.component for c in comps)
        assert names == ["correlation_shift", "mean_shift", "mean_shift"]

    def test_single_column_view_no_pairs(self):
        catalog = self.make_catalog()
        comps = catalog.components_for_view(View(columns=("a",)))
        assert len(comps) == 1

    def test_missing_column_empty(self):
        catalog = self.make_catalog()
        assert catalog.components_for_view(View(columns=("zzz",))) == ()

    def test_column_score_best_weighted(self):
        catalog = self.make_catalog()
        assert catalog.column_score("b") == 3.0
        assert catalog.column_score("zzz") == 0.0

    def test_score_view_end_to_end(self):
        catalog = self.make_catalog()
        cfg = ZiggyConfig(score_mode="mean")
        score, comps = score_view(View(columns=("a", "b")), catalog, cfg)
        assert score == pytest.approx((1.0 + 3.0 + 2.0) / 3.0)
        assert len(comps) == 3
