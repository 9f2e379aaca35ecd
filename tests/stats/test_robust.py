"""Tests for robust location/scale estimators."""

import numpy as np
import pytest

from repro.errors import InsufficientDataError
from repro.stats.robust import (
    MAD_TO_SIGMA,
    iqr,
    mad,
    median,
    robust_zscores,
    trimmed_mean,
    winsorize,
)


class TestMedianMad:
    def test_median_basic(self):
        assert median(np.array([3.0, 1.0, 2.0])) == 2.0

    def test_median_drops_nan(self):
        assert median(np.array([1.0, np.nan, 3.0])) == 2.0

    def test_median_empty_raises(self):
        with pytest.raises(InsufficientDataError):
            median(np.array([np.nan]))

    def test_mad_known_value(self):
        data = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert mad(data, scale_to_sigma=False) == 1.0
        assert mad(data) == pytest.approx(MAD_TO_SIGMA)

    def test_mad_estimates_sigma_for_gaussian(self, rng):
        data = rng.normal(scale=2.5, size=20000)
        assert mad(data) == pytest.approx(2.5, rel=0.05)

    def test_mad_ignores_outliers(self, rng):
        data = np.concatenate([rng.normal(size=1000), [1e9] * 10])
        assert mad(data) < 2.0

    def test_iqr_known(self):
        assert iqr(np.arange(1.0, 101.0)) == pytest.approx(49.5)


class TestTrimmedMean:
    def test_no_trim_equals_mean(self, rng):
        data = rng.normal(size=100)
        assert trimmed_mean(data, 0.0) == pytest.approx(data.mean())

    def test_trim_removes_outliers(self):
        data = np.array([1.0, 2.0, 3.0, 4.0, 1000.0])
        assert trimmed_mean(data, 0.2) == pytest.approx(3.0)

    def test_invalid_proportion(self):
        with pytest.raises(ValueError):
            trimmed_mean(np.array([1.0]), 0.5)

    def test_tiny_sample_falls_back_to_median(self):
        assert trimmed_mean(np.array([5.0]), 0.4) == 5.0


class TestWinsorize:
    def test_clamps_tails(self, rng):
        data = np.concatenate([rng.normal(size=1000), [100.0, -100.0]])
        w = winsorize(data, 0.05)
        assert w.max() < 10.0
        assert w.min() > -10.0

    def test_preserves_nan(self):
        w = winsorize(np.array([1.0, np.nan, 2.0, 3.0]), 0.1)
        assert np.isnan(w[1])

    def test_zero_proportion_identity(self):
        data = np.array([1.0, 5.0, 9.0])
        assert list(winsorize(data, 0.0)) == list(data)

    def test_returns_copy(self):
        data = np.array([1.0, 2.0, 3.0])
        w = winsorize(data, 0.1)
        assert w is not data


class TestRobustZscores:
    def test_center_and_scale(self, rng):
        data = rng.normal(loc=10.0, scale=3.0, size=5000)
        z = robust_zscores(data)
        assert np.median(z) == pytest.approx(0.0, abs=0.05)
        assert mad(z) == pytest.approx(1.0, rel=0.05)

    def test_ties_fall_back_to_iqr(self):
        # MAD is 0 (majority at the median) but IQR is positive.
        data = np.array([5.0] * 6 + [1.0, 2.0, 9.0, 10.0])
        z = robust_zscores(data)
        assert np.all(np.isfinite(z))
        assert z.max() > 0.0

    def test_constant_column_all_zero(self):
        z = robust_zscores(np.full(10, 2.0))
        assert np.all(z == 0.0)

    def test_subnormal_scale_falls_through(self):
        # MAD is 0 and the IQR is a subnormal 1e-320: dividing 1e6 by
        # it overflows, so the cascade moves on to the standard deviation.
        data = np.array([0.0, 0.0, 0.0, 1e-320, 1e6])
        with np.errstate(over="raise", divide="raise"):
            z = robust_zscores(data)
        assert np.all(np.isfinite(z))
        assert z[-1] == pytest.approx(1e6 / np.std(data, ddof=1))

    def test_infinite_value_keeps_the_mad(self):
        # The spread a scale must divide covers the finite values only:
        # no scale divides inf, so counting it would discard the MAD.
        data = np.array([0.0, 10.0, 20.0, 30.0, np.inf])
        z = robust_zscores(data)
        np.testing.assert_allclose(z[:4], (data[:4] - 20.0) / mad(data))
        assert z[-1] == np.inf

    def test_empty_passthrough(self):
        z = robust_zscores(np.array([]))
        assert z.size == 0
