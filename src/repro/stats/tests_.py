"""Asymptotic significance tests for Zig-Components.

Ziggy's post-processing stage (Section 3) "tests the significance of the
Zig-Components separately, using asymptotic bounds from the literature".
Each test here returns a :class:`TestResult` carrying the statistic, the
p-value and the degrees of freedom, so the aggregation layer can combine
them and the explanation layer can report confidence.

Test statistics are computed from sufficient statistics whenever possible
(so the cache can run them without re-reading data).  The p-values come
from the :mod:`scipy.special` distribution functions that
:mod:`scipy.stats` itself wraps (``ndtr``, ``stdtr``, ``fdtr``,
``fdtrc``, ``chdtrc``): called directly they return the same bits
without the ~40 µs of argument handling per scalar call, and the
service never imports :mod:`scipy.stats` at all.  The helpers below
apply the support rule the ``scipy.stats`` wrappers add (a statistic at
or below the lower end of a positive support has ``sf`` 1 and ``cdf``
0); the degrees of freedom passed here are always positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from repro.errors import InsufficientDataError
from repro.stats.correlation import fisher_z, fisher_z_batch
from repro.stats.descriptive import SummaryStats, summarize


@dataclass(frozen=True)
class TestResult:
    """Outcome of one hypothesis test.

    (``__test__ = False`` tells pytest this is not a test class.)

    Attributes:
        name: short identifier of the test ("welch_t", "fisher_z", ...).
        statistic: the test statistic.
        p_value: two-sided p-value in [0, 1].
        df: degrees of freedom (NaN for z-tests).
    """

    __test__ = False

    name: str
    statistic: float
    p_value: float
    df: float = float("nan")

    @property
    def confidence(self) -> float:
        """``1 - p``: the confidence score used to pick explanations."""
        return 1.0 - self.p_value

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the null is rejected at level ``alpha``."""
        return self.p_value <= alpha


def _as_stats(sample) -> SummaryStats:
    if isinstance(sample, SummaryStats):
        return sample
    return summarize(np.asarray(sample, dtype=np.float64))


def norm_sf(x: float) -> float:
    """Standard normal survival function (``scipy.stats.norm.sf``)."""
    return float(special.ndtr(-x))


def t_sf(x: float, df: float) -> float:
    """Student's t survival function (``scipy.stats.t.sf``)."""
    return float(special.stdtr(df, -x))


def f_cdf(x: float, dfn: float, dfd: float) -> float:
    """F distribution function (``scipy.stats.f.cdf``)."""
    return 0.0 if x <= 0.0 else float(special.fdtr(dfn, dfd, x))


def f_sf(x: float, dfn: float, dfd: float) -> float:
    """F survival function (``scipy.stats.f.sf``)."""
    return 1.0 if x <= 0.0 else float(special.fdtrc(dfn, dfd, x))


def chi2_sf(x: float, df: float) -> float:
    """Chi-squared survival function (``scipy.stats.chi2.sf``)."""
    return 1.0 if x <= 0.0 else float(special.chdtrc(df, x))


def _two_sided_from_z(z: float) -> float:
    return float(2.0 * norm_sf(abs(z)))


def welch_t_test(inside, outside) -> TestResult:
    """Welch's unequal-variance t-test for a difference of means.

    The asymptotic counterpart of the mean-difference Zig-Component.
    Degrees of freedom via the Welch–Satterthwaite approximation.
    """
    a, b = _as_stats(inside), _as_stats(outside)
    if a.n < 2 or b.n < 2:
        raise InsufficientDataError("welch_t_test", needed=2, got=min(a.n, b.n))
    va, vb = a.variance / a.n, b.variance / b.n
    denom = va + vb
    if denom <= 0.0:
        # Both groups constant: equal means -> p = 1, unequal -> p = 0.
        p = 1.0 if a.mean == b.mean else 0.0
        return TestResult("welch_t", 0.0 if p == 1.0 else math.inf, p,
                          df=float(a.n + b.n - 2))
    t = (a.mean - b.mean) / math.sqrt(denom)
    # Welch–Satterthwaite df from the variance share: squaring va and vb
    # themselves underflows to 0 for tiny variances.
    s = va / denom
    df = 1.0 / (s * s / (a.n - 1) + (1.0 - s) * (1.0 - s) / (b.n - 1))
    p = float(2.0 * t_sf(abs(t), df))
    return TestResult("welch_t", float(t), p, df=float(df))


def f_test_variances(inside, outside) -> TestResult:
    """F-test for equality of variances (ratio of sample variances).

    The asymptotic counterpart of the SD-ratio Zig-Component.  Sensitive
    to non-normality; the component layer pairs it with Levene's test for
    robustness when raw values are available.
    """
    a, b = _as_stats(inside), _as_stats(outside)
    if a.n < 2 or b.n < 2:
        raise InsufficientDataError("f_test_variances", needed=2, got=min(a.n, b.n))
    va, vb = a.variance, b.variance
    if va <= 0.0 and vb <= 0.0:
        return TestResult("f_var", 1.0, 1.0, df=float(a.n - 1))
    if va <= 0.0 or vb <= 0.0:
        return TestResult("f_var", math.inf, 0.0, df=float(a.n - 1))
    f = va / vb
    d1, d2 = a.n - 1, b.n - 1
    # Two-sided p: double the tail of the observed direction.
    cdf = f_cdf(f, d1, d2)
    p = 2.0 * min(cdf, 1.0 - cdf)
    return TestResult("f_var", float(f), float(min(1.0, p)), df=float(d1))


def levene_test(inside, outside, center: str = "median") -> TestResult:
    """Brown–Forsythe/Levene test for equality of spread (raw data only).

    Robust alternative to the F-test: one-way ANOVA on absolute deviations
    from the group center.

    Args:
        center: ``"median"`` (Brown–Forsythe, default) or ``"mean"``.
    """
    x = np.asarray(inside, dtype=np.float64).ravel()
    y = np.asarray(outside, dtype=np.float64).ravel()
    x = x[~np.isnan(x)]
    y = y[~np.isnan(y)]
    if x.size < 2 or y.size < 2:
        raise InsufficientDataError("levene_test", needed=2,
                                    got=int(min(x.size, y.size)))
    if center == "median":
        cx, cy = np.median(x), np.median(y)
    elif center == "mean":
        cx, cy = x.mean(), y.mean()
    else:
        raise ValueError(f"unknown center {center!r}")
    zx = np.abs(x - cx)
    zy = np.abs(y - cy)
    n1, n2 = zx.size, zy.size
    n = n1 + n2
    zbar = (zx.sum() + zy.sum()) / n
    between = n1 * (zx.mean() - zbar) ** 2 + n2 * (zy.mean() - zbar) ** 2
    within = ((zx - zx.mean()) ** 2).sum() + ((zy - zy.mean()) ** 2).sum()
    df2 = n - 2
    if within <= 0.0:
        p = 1.0 if between <= 0.0 else 0.0
        return TestResult("levene", math.inf if p == 0.0 else 0.0, p, df=float(df2))
    w = (n - 2) * between / within
    p = f_sf(w, 1, df2)
    return TestResult("levene", float(w), p, df=float(df2))


def fisher_z_test(r_inside: float, n_inside: int,
                  r_outside: float, n_outside: int) -> TestResult:
    """Two-sample test for equality of correlation coefficients.

    Asymptotic z-test on the Fisher-transformed gap with standard error
    ``sqrt(1/(n1-3) + 1/(n2-3))`` — the textbook bound the paper alludes
    to for the correlation-gap component.
    """
    if n_inside < 4 or n_outside < 4:
        raise InsufficientDataError("fisher_z_test", needed=4,
                                    got=min(n_inside, n_outside))
    se = math.sqrt(1.0 / (n_inside - 3) + 1.0 / (n_outside - 3))
    z = (fisher_z(r_inside) - fisher_z(r_outside)) / se
    return TestResult("fisher_z", float(z), _two_sided_from_z(z))


def chi2_independence_test(table: np.ndarray,
                           min_expected: float = 1.0) -> TestResult:
    """Pearson χ² test of independence on a contingency table.

    Used for the categorical frequency-profile component: rows = group
    (inside/outside), columns = categories.  Columns whose *expected*
    count falls below ``min_expected`` in any row are pooled into a rest
    bucket to keep the asymptotic approximation honest.
    """
    obs = np.asarray(table, dtype=np.float64)
    if obs.ndim != 2 or obs.shape[0] < 2 or obs.shape[1] < 2:
        raise ValueError("table must be at least 2x2")
    n = obs.sum()
    if n <= 0:
        raise InsufficientDataError("chi2_independence_test", needed=1, got=0)
    expected = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / n
    weak = (expected < min_expected).any(axis=0)
    if weak.any() and (~weak).sum() >= 1:
        strong = obs[:, ~weak]
        pooled = obs[:, weak].sum(axis=1, keepdims=True)
        obs = np.hstack([strong, pooled])
        expected = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / n
    if obs.shape[1] < 2:
        return TestResult("chi2", 0.0, 1.0, df=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (obs - expected) ** 2 / expected
    terms[~np.isfinite(terms)] = 0.0
    stat = float(terms.sum())
    df = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    p = chi2_sf(stat, df) if df > 0 else 1.0
    return TestResult("chi2", stat, p, df=float(df))


def two_proportion_z_test(k_inside: int, n_inside: int,
                          k_outside: int, n_outside: int) -> TestResult:
    """Two-proportion z-test (pooled), for the missing-rate component."""
    if n_inside <= 0 or n_outside <= 0:
        raise InsufficientDataError("two_proportion_z_test", needed=1,
                                    got=min(n_inside, n_outside))
    p1 = k_inside / n_inside
    p2 = k_outside / n_outside
    pooled = (k_inside + k_outside) / (n_inside + n_outside)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_inside + 1.0 / n_outside))
    if se == 0.0:
        p = 1.0 if p1 == p2 else 0.0
        return TestResult("two_prop_z", 0.0 if p == 1.0 else math.inf, p)
    z = (p1 - p2) / se
    return TestResult("two_prop_z", float(z), _two_sided_from_z(z))


def mann_whitney_u_test(inside, outside) -> TestResult:
    """Mann–Whitney U test with normal approximation and tie correction.

    Non-parametric companion of Cliff's delta; included so users who
    weight the dominance component can validate it.
    """
    x = np.asarray(inside, dtype=np.float64).ravel()
    y = np.asarray(outside, dtype=np.float64).ravel()
    x = x[~np.isnan(x)]
    y = y[~np.isnan(y)]
    n1, n2 = x.size, y.size
    if n1 < 1 or n2 < 1:
        raise InsufficientDataError("mann_whitney_u_test", needed=1,
                                    got=min(n1, n2))
    combined = np.concatenate([x, y])
    from repro.stats.correlation import rankdata  # local import avoids cycle
    ranks = rankdata(combined)
    r1 = ranks[:n1].sum()
    u1 = r1 - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    # Tie correction on the rank variance.
    n = n1 + n2
    _, counts = np.unique(combined, return_counts=True)
    tie_term = ((counts ** 3 - counts).sum()) / (n * (n - 1)) if n > 1 else 0.0
    var = n1 * n2 / 12.0 * (n + 1 - tie_term)
    if var <= 0.0:
        return TestResult("mann_whitney", float(u1), 1.0)
    z = (u1 - mu) / math.sqrt(var)
    return TestResult("mann_whitney", float(u1), _two_sided_from_z(z))


# -- batches ---------------------------------------------------------------------
#
# One test over many inputs at once, for the components' ``compute_batch``.
# Element ``i`` of a batch is what the scalar test above returns for input
# ``i``, up to the order of floating-point sums: the per-input Python work
# becomes a few numpy passes, which release the GIL.


@dataclass(frozen=True)
class TestBatch:
    """Outcomes of one test over many inputs, as parallel arrays.

    (``__test__ = False`` tells pytest this is not a test class.)
    """

    __test__ = False

    name: str
    statistic: np.ndarray
    p_value: np.ndarray
    #: None for z-tests, whose results keep :class:`TestResult`'s df.
    df: np.ndarray | None = None

    def results(self) -> list[TestResult]:
        """One :class:`TestResult` per input, in input order."""
        if self.df is None:
            return [TestResult(self.name, s, p) for s, p in zip(
                self.statistic.tolist(), self.p_value.tolist())]
        return [TestResult(self.name, s, p, d) for s, p, d in zip(
            self.statistic.tolist(), self.p_value.tolist(),
            self.df.tolist())]


def welch_t_batch(n_a: np.ndarray, mean_a: np.ndarray, m2_a: np.ndarray,
                  n_b: np.ndarray, mean_b: np.ndarray,
                  m2_b: np.ndarray) -> TestBatch:
    """:func:`welch_t_test` over many pairs of summaries.

    The arguments are the two groups' :class:`SummaryStats` fields
    ``n``, ``mean`` and ``m2`` as float arrays; every ``n`` is at least 2.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        va = m2_a / (n_a - 1) / n_a
        vb = m2_b / (n_b - 1) / n_b
        denom = va + vb
        t = (mean_a - mean_b) / np.sqrt(denom)
        s = va / denom
        df = 1.0 / (s * s / (n_a - 1) + (1.0 - s) * (1.0 - s) / (n_b - 1))
        p = 2.0 * special.stdtr(df, -np.abs(t))
    # Both groups constant: equal means -> p = 1, unequal -> p = 0.
    constant = denom <= 0.0
    equal = mean_a == mean_b
    return TestBatch(
        "welch_t",
        np.where(constant, np.where(equal, 0.0, np.inf), t),
        np.where(constant, np.where(equal, 1.0, 0.0), p),
        np.where(constant, n_a + n_b - 2.0, df))


def _median_deviations(samples: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row: the absolute deviations from the row's median, 0 where a
    value is missing; the mask of missing values; the count of values."""
    deviations = np.sort(samples, axis=1)  # NaNs sort last
    missing = np.isnan(deviations)
    n = deviations.shape[1] - np.count_nonzero(missing, axis=1)
    if deviations.shape[1] == 0:
        return deviations, missing, n
    lo = np.take_along_axis(deviations, (np.maximum(n - 1, 0) // 2)[:, None],
                            axis=1)[:, 0]
    hi = np.take_along_axis(deviations, (n // 2)[:, None], axis=1)[:, 0]
    with np.errstate(invalid="ignore", over="ignore"):
        # np.median's rule: the middle value, or the mean of the two.
        median = np.where(n % 2 == 1, lo, (lo + hi) / 2.0)
        deviations -= median[:, None]
    np.abs(deviations, out=deviations)
    np.copyto(deviations, 0.0, where=missing)
    return deviations, missing, n


def _squared_spread(deviations: np.ndarray, means: np.ndarray,
                    missing: np.ndarray) -> np.ndarray:
    """Per row: the sum of squared differences of the present values from
    the row mean."""
    centred = deviations - means[:, None]
    np.copyto(centred, 0.0, where=missing)
    return np.einsum("ij,ij->i", centred, centred)


def levene_batch(inside: np.ndarray,
                 outside: np.ndarray) -> tuple[TestBatch, np.ndarray]:
    """Brown–Forsythe :func:`levene_test` (median centre) over many pairs
    of samples.

    Row ``i`` of ``inside`` and of ``outside`` holds test ``i``'s two
    samples, NaN marking a missing value.  The medians come from one sort
    of each matrix; the one-way ANOVA on the absolute deviations is then
    row-wise arithmetic.  Returns the batch and a mask of the rows it
    could test: a row where either sample has fewer than two values
    (where the scalar test raises) reads NaN.
    """
    zx, gaps_x, n1 = _median_deviations(np.asarray(inside, dtype=np.float64))
    zy, gaps_y, n2 = _median_deviations(np.asarray(outside,
                                                   dtype=np.float64))
    n1, n2 = n1.astype(np.float64), n2.astype(np.float64)
    n = n1 + n2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sum_x, sum_y = zx.sum(axis=1), zy.sum(axis=1)
        mean_x, mean_y = sum_x / n1, sum_y / n2
        zbar = (sum_x + sum_y) / n
        between = n1 * (mean_x - zbar) ** 2 + n2 * (mean_y - zbar) ** 2
        within = (_squared_spread(zx, mean_x, gaps_x)
                  + _squared_spread(zy, mean_y, gaps_y))
        w = (n - 2) * between / within
        p = np.where(w <= 0.0, 1.0, special.fdtrc(1.0, n - 2, w))
    # No spread within either group: equal centres -> p = 1, else p = 0.
    flat = within <= 0.0
    still = between <= 0.0
    tested = (n1 >= 2) & (n2 >= 2)
    return TestBatch(
        "levene",
        np.where(tested, np.where(flat, np.where(still, 0.0, np.inf), w),
                 np.nan),
        np.where(tested, np.where(flat, np.where(still, 1.0, 0.0), p),
                 np.nan),
        np.where(tested, n - 2, np.nan)), tested


def fisher_z_test_batch(r_inside: np.ndarray, n_inside: np.ndarray,
                        r_outside: np.ndarray,
                        n_outside: np.ndarray) -> TestBatch:
    """:func:`fisher_z_test` over many pairs of correlations (every count
    at least 4)."""
    se = np.sqrt(1.0 / (n_inside - 3) + 1.0 / (n_outside - 3))
    z = (fisher_z_batch(r_inside) - fisher_z_batch(r_outside)) / se
    return TestBatch("fisher_z", z, 2.0 * special.ndtr(-np.abs(z)))


def two_proportion_z_batch(k_inside: np.ndarray, n_inside: np.ndarray,
                           k_outside: np.ndarray,
                           n_outside: np.ndarray) -> TestBatch:
    """:func:`two_proportion_z_test` over many pairs of counts (every
    ``n`` positive)."""
    p1 = k_inside / n_inside
    p2 = k_outside / n_outside
    pooled = (k_inside + k_outside) / (n_inside + n_outside)
    se = np.sqrt(pooled * (1.0 - pooled) * (1.0 / n_inside + 1.0 / n_outside))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (p1 - p2) / se
    flat = se == 0.0
    equal = p1 == p2
    return TestBatch(
        "two_prop_z",
        np.where(flat, np.where(equal, 0.0, np.inf), z),
        np.where(flat, np.where(equal, 1.0, 0.0),
                 2.0 * special.ndtr(-np.abs(z))))
