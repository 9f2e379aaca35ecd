"""Tests for the extension features: shape components."""

import numpy as np

from repro.core.components.base import ColumnSlice
from repro.core.components.shape import SkewShiftComponent
from repro.core.config import ZiggyConfig
from repro.core.pipeline import Ziggy
from repro.engine.table import Table


class TestSkewShift:
    def make_slice(self, rng, inside_skewed=True):
        inside = (rng.exponential(size=800) if inside_skewed
                  else rng.normal(size=800))
        outside = rng.normal(size=2000)
        return ColumnSlice("col", False, inside, outside)

    def test_detects_skew_gap(self, rng):
        outcome = SkewShiftComponent().compute(self.make_slice(rng))
        assert outcome.raw > 1.0
        assert outcome.direction == "higher"
        assert outcome.test is not None
        assert outcome.test.p_value < 0.05

    def test_null_quiet(self, rng):
        outcome = SkewShiftComponent().compute(
            self.make_slice(rng, inside_skewed=False))
        assert abs(outcome.raw) < 0.5

    def test_small_groups_skipped(self, rng):
        s = ColumnSlice("c", False, rng.normal(size=5),
                        rng.normal(size=100))
        assert SkewShiftComponent().compute(s) is None

    def test_opt_in_through_weights(self, rng):
        n = 4000
        driver = rng.normal(size=n)
        value = np.where(driver > 1.0, rng.exponential(size=n) * 2.0,
                         rng.normal(size=n))
        table = Table.from_dict({"driver": driver, "val": value,
                                 "noise": rng.normal(size=n)}, name="skew")
        inactive = Ziggy(table).characterize("driver > 1")
        comps = {c.component for v in inactive.views for c in v.components}
        assert "skew_shift" not in comps
        active = Ziggy(table, config=ZiggyConfig(
            weights={"skew_shift": 1.0})).characterize("driver > 1")
        comps = {c.component for v in active.views for c in v.components}
        assert "skew_shift" in comps

    def test_explanation_phrase(self, rng):
        from repro.core.explain.vocabulary import phrase_for
        from repro.core.views import ComponentScore
        score = ComponentScore("skew_shift", ("col",), 1.5, 2.0, 1.0,
                               None, "higher")
        assert "right-skewed" in phrase_for(score)
