"""Tests for the asymptotic significance tests (vs scipy where possible)."""

import numpy as np
import pytest
from scipy import stats as sps

from repro.errors import InsufficientDataError
from repro.stats.descriptive import summarize
from repro.stats.tests_ import (
    TestResult,
    chi2_independence_test,
    f_test_variances,
    fisher_z_test,
    levene_test,
    mann_whitney_u_test,
    two_proportion_z_test,
    welch_t_test,
)


class TestWelch:
    def test_matches_scipy(self, rng):
        a = rng.normal(0.3, 1.2, size=80)
        b = rng.normal(0.0, 0.8, size=200)
        ours = welch_t_test(a, b)
        theirs = sps.ttest_ind(a, b, equal_var=False)
        assert ours.statistic == pytest.approx(theirs.statistic)
        assert ours.p_value == pytest.approx(theirs.pvalue)

    def test_null_uniform_ish(self, rng):
        # Under H0 the p-value should not systematically be small.
        ps = []
        for _ in range(200):
            a = rng.normal(size=30)
            b = rng.normal(size=50)
            ps.append(welch_t_test(a, b).p_value)
        assert 0.3 < np.mean(ps) < 0.7

    def test_works_from_summaries(self, rng):
        a, b = rng.normal(1, 1, 60), rng.normal(0, 1, 60)
        from_raw = welch_t_test(a, b)
        from_stats = welch_t_test(summarize(a), summarize(b))
        assert from_raw.p_value == pytest.approx(from_stats.p_value)

    def test_constant_groups(self):
        equal = welch_t_test(np.full(5, 1.0), np.full(5, 1.0))
        assert equal.p_value == 1.0
        different = welch_t_test(np.full(5, 1.0), np.full(5, 2.0))
        assert different.p_value == 0.0

    def test_small_sample_raises(self):
        with pytest.raises(InsufficientDataError):
            welch_t_test(np.array([1.0]), np.array([1.0, 2.0]))

    def test_tiny_variances_keep_their_degrees_of_freedom(self):
        # Both squared standard errors underflow to 0 in the textbook
        # df formula.  Welch's t is scale-free, so the same samples
        # scaled into the normal range are the reference (ttest_ind is
        # none: it replaces an undefined df with 1).
        inside = np.array([0.0, 1e-160, 2e-160, 0.0])
        outside = np.array([1e-160, 0.0, 3e-160, 1e-160, 0.0])
        tiny = welch_t_test(inside, outside)
        scaled = welch_t_test(inside * 1e160, outside * 1e160)
        assert scaled.df == pytest.approx(7.0, rel=1e-3)
        # The subnormal squares carry ~11 significant bits.
        assert tiny.df == pytest.approx(scaled.df, rel=1e-3)
        assert tiny.statistic == pytest.approx(scaled.statistic, rel=1e-3)
        assert tiny.p_value == pytest.approx(scaled.p_value, rel=1e-3)

    def test_df_matches_the_textbook_form(self, rng):
        for _ in range(200):
            a = rng.normal(0, rng.uniform(0.1, 10), rng.integers(2, 60))
            b = rng.normal(0, rng.uniform(0.1, 10), rng.integers(2, 60))
            va = a.var(ddof=1) / a.size
            vb = b.var(ddof=1) / b.size
            textbook = (va + vb) ** 2 / (va ** 2 / (a.size - 1)
                                         + vb ** 2 / (b.size - 1))
            assert welch_t_test(a, b).df == pytest.approx(textbook,
                                                          rel=1e-13)


class TestVarianceTests:
    def test_f_test_detects_ratio(self, rng):
        a = rng.normal(scale=3.0, size=200)
        b = rng.normal(scale=1.0, size=200)
        assert f_test_variances(a, b).p_value < 1e-6

    def test_f_test_null(self, rng):
        a = rng.normal(size=200)
        b = rng.normal(size=200)
        assert f_test_variances(a, b).p_value > 0.01

    def test_levene_matches_scipy(self, rng):
        a = rng.normal(scale=2.0, size=100)
        b = rng.normal(scale=1.0, size=150)
        ours = levene_test(a, b)
        theirs = sps.levene(a, b, center="median")
        assert ours.statistic == pytest.approx(theirs.statistic)
        assert ours.p_value == pytest.approx(theirs.pvalue)

    def test_levene_mean_center(self, rng):
        a = rng.normal(size=60)
        b = rng.normal(size=60)
        ours = levene_test(a, b, center="mean")
        theirs = sps.levene(a, b, center="mean")
        assert ours.p_value == pytest.approx(theirs.pvalue)

    def test_levene_bad_center(self):
        with pytest.raises(ValueError):
            levene_test(np.arange(5.0), np.arange(5.0), center="mode")

    def test_both_constant(self):
        result = f_test_variances(np.full(10, 1.0), np.full(10, 5.0))
        assert result.p_value == 1.0


class TestFisherZTest:
    def test_detects_correlation_gap(self):
        result = fisher_z_test(0.8, 200, 0.1, 500)
        assert result.p_value < 1e-10

    def test_null(self):
        result = fisher_z_test(0.5, 300, 0.5, 300)
        assert result.p_value == pytest.approx(1.0)

    def test_small_groups_raise(self):
        with pytest.raises(InsufficientDataError):
            fisher_z_test(0.5, 3, 0.2, 100)

    def test_statistic_sign(self):
        assert fisher_z_test(0.7, 100, 0.2, 100).statistic > 0
        assert fisher_z_test(0.2, 100, 0.7, 100).statistic < 0


class TestChi2:
    def test_matches_scipy_on_clean_table(self):
        table = np.array([[30, 20, 10], [15, 25, 40]], dtype=float)
        ours = chi2_independence_test(table, min_expected=0.0)
        theirs = sps.chi2_contingency(table, correction=False)
        assert ours.statistic == pytest.approx(theirs.statistic)
        assert ours.p_value == pytest.approx(theirs.pvalue)

    def test_independent_table_large_p(self):
        table = np.outer([50, 50], [30, 30, 40]) / 100.0 * 100
        assert chi2_independence_test(table).p_value > 0.99

    def test_weak_cells_pooled(self):
        # One tiny category; pooling must keep the test well-defined.
        table = np.array([[100, 1, 0], [100, 0, 1]], dtype=float)
        result = chi2_independence_test(table, min_expected=1.0)
        assert 0.0 <= result.p_value <= 1.0

    def test_requires_2x2(self):
        with pytest.raises(ValueError):
            chi2_independence_test(np.array([[1.0, 2.0]]))

    def test_empty_raises(self):
        with pytest.raises(InsufficientDataError):
            chi2_independence_test(np.zeros((2, 2)))


class TestTwoProportion:
    def test_detects_gap(self):
        assert two_proportion_z_test(80, 100, 20, 100).p_value < 1e-10

    def test_null(self):
        assert two_proportion_z_test(50, 100, 50, 100).p_value == 1.0

    def test_matches_manual_formula(self):
        k1, n1, k2, n2 = 30, 120, 45, 260
        result = two_proportion_z_test(k1, n1, k2, n2)
        p = (k1 + k2) / (n1 + n2)
        se = np.sqrt(p * (1 - p) * (1 / n1 + 1 / n2))
        z = (k1 / n1 - k2 / n2) / se
        assert result.statistic == pytest.approx(z)

    def test_degenerate_pool(self):
        assert two_proportion_z_test(0, 10, 0, 10).p_value == 1.0


class TestMannWhitney:
    def test_matches_scipy(self, rng):
        a = rng.normal(0.5, 1, size=60)
        b = rng.normal(0.0, 1, size=80)
        ours = mann_whitney_u_test(a, b)
        theirs = sps.mannwhitneyu(a, b, alternative="two-sided",
                                  method="asymptotic", use_continuity=False)
        assert ours.statistic == pytest.approx(theirs.statistic)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-6)

    def test_with_ties(self, rng):
        a = rng.integers(0, 4, size=50).astype(float)
        b = rng.integers(0, 4, size=50).astype(float)
        result = mann_whitney_u_test(a, b)
        assert 0.0 <= result.p_value <= 1.0

    def test_all_identical(self):
        result = mann_whitney_u_test(np.full(10, 1.0), np.full(10, 1.0))
        assert result.p_value == 1.0


class TestTestResult:
    def test_confidence(self):
        r = TestResult("x", 1.0, 0.03)
        assert r.confidence == pytest.approx(0.97)
        assert r.significant(0.05)
        assert not r.significant(0.01)
