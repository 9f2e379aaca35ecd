"""Property tests for the built-in components' batch path.

``compute_batch`` scores every slice of a query in one numpy pass, and
``compute`` is its batch of one.  The reference here is the per-slice
logic the components had before, written on the scalar helpers of
:mod:`repro.stats`, plus :mod:`scipy.stats` where it computes the same
test.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.core.components.base import ColumnSlice, PairSlice
from repro.core.components.correlation import CorrelationShiftComponent
from repro.core.components.missing import MissingShiftComponent
from repro.core.components.numeric import (
    MeanShiftComponent,
    SpreadShiftComponent,
)
from repro.errors import StatsError
from repro.stats.descriptive import summarize
from repro.stats.effect_sizes import (
    correlation_gap,
    hedges_g,
    log_sd_ratio,
    proportion_gap,
)
from repro.stats.histogram import frequency_profile
from repro.stats.tests_ import (
    f_test_variances,
    fisher_z_test,
    levene_test,
    two_proportion_z_test,
    welch_t_test,
)

# -- the scalar reference ---------------------------------------------------------


def scalar_mean_shift(data):
    data.ensure_stats()
    a, b = data.inside_stats, data.outside_stats
    if a is None or b is None or a.n < 2 or b.n < 2:
        return None
    try:
        g = hedges_g(a, b)
        test = welch_t_test(a, b)
    except StatsError:
        return None
    return None if g != g else (g, test)


def scalar_spread_shift(data):
    data.ensure_stats()
    a, b = data.inside_stats, data.outside_stats
    if a is None or b is None or a.n < 2 or b.n < 2:
        return None
    try:
        ratio = log_sd_ratio(a, b)
    except StatsError:
        return None
    test = None
    if data.inside is not None and data.outside is not None:
        try:
            test = levene_test(data.inside, data.outside)
        except StatsError:
            test = None
    if test is None:
        try:
            test = f_test_variances(a, b)
        except StatsError:
            return None
    return ratio, test


def scalar_missing_shift(data):
    if data.is_categorical:
        pi, po = data.inside_profile, data.outside_profile
        k_in, n_in = pi.n_missing, pi.n + pi.n_missing
        k_out, n_out = po.n_missing, po.n + po.n_missing
    else:
        data.ensure_stats()
        a, b = data.inside_stats, data.outside_stats
        k_in, n_in = a.n_missing, a.total
        k_out, n_out = b.n_missing, b.total
    if n_in == 0 or n_out == 0 or (k_in == 0 and k_out == 0):
        return None
    return (proportion_gap(k_in, n_in, k_out, n_out),
            two_proportion_z_test(k_in, n_in, k_out, n_out))


def scalar_correlation_shift(data):
    if data.n_inside < 4 or data.n_outside < 4:
        return None
    r_in, r_out = data.r_inside, data.r_outside
    if r_in != r_in or r_out != r_out:
        return None
    try:
        gap = correlation_gap(None, None, None, None,
                              precomputed=(r_in, r_out))
        test = fisher_z_test(r_in, data.n_inside, r_out, data.n_outside)
    except StatsError:
        return None
    return gap, test


UNARY = ((MeanShiftComponent(), scalar_mean_shift),
         (SpreadShiftComponent(), scalar_spread_shift),
         (MissingShiftComponent(), scalar_missing_shift))

# -- inputs -----------------------------------------------------------------------

NORMAL = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
#: Values whose squared deviations are subnormal.
TINY = st.sampled_from([0.0, 1e-160, 2e-160, 3e-160])


@st.composite
def samples(draw, kinds=("normal", "constant", "tiny")):
    """A short sample (often under two values) with NaN gaps."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(0, 12))
    if kind == "constant":
        values = [draw(NORMAL)] * n
    else:
        values = draw(st.lists(NORMAL if kind == "normal" else TINY,
                               min_size=n, max_size=n))
    gaps = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array([math.nan if gap else v for v, gap in zip(values, gaps)],
                    dtype=np.float64)


@st.composite
def column_slices(draw, kinds=("normal", "constant", "tiny")):
    """A numeric slice with raw values, or with summaries only (the
    spread component's F-test path)."""
    inside, outside = draw(samples(kinds)), draw(samples(kinds))
    if draw(st.booleans()):
        return ColumnSlice("c", False, inside=inside, outside=outside)
    return ColumnSlice("c", False, inside_stats=summarize(inside),
                       outside_stats=summarize(outside))


@st.composite
def categorical_slices(draw):
    labels = st.lists(st.sampled_from(["a", "b", None]), max_size=12)
    return ColumnSlice("k", True,
                       inside_profile=frequency_profile(draw(labels)),
                       outside_profile=frequency_profile(draw(labels)))


CORRELATIONS = st.one_of(st.floats(-1.0, 1.0), st.sampled_from(
    [-1.0, 1.0, 0.0, math.nan]))


@st.composite
def pair_slices(draw):
    column = ColumnSlice("x", False)
    return PairSlice(x=column, y=column, r_inside=draw(CORRELATIONS),
                     r_outside=draw(CORRELATIONS),
                     n_inside=draw(st.integers(0, 60)),
                     n_outside=draw(st.integers(0, 60)))


# -- comparison helpers ----------------------------------------------------------


def same_float(x, y) -> bool:
    return x == y or (x != x and y != y)


def same_outcome(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return (same_float(a.raw, b.raw) and a.direction == b.direction
            and a.test.name == b.test.name
            and same_float(a.test.statistic, b.test.statistic)
            and same_float(a.test.p_value, b.test.p_value)
            and same_float(a.test.df, b.test.df)
            and a.detail.keys() == b.detail.keys()
            and all(same_float(a.detail[k], b.detail[k]) for k in a.detail))


def close(ours, theirs, tol=1e-12) -> bool:
    """Within ``tol`` relative to the reference, absolute below 1."""
    if math.isinf(theirs) or theirs != theirs:
        return same_float(ours, theirs)
    return abs(ours - theirs) <= tol * max(1.0, abs(theirs))


# -- properties --------------------------------------------------------------------


@settings(deadline=None)
@given(st.lists(st.one_of(column_slices(), categorical_slices()),
                min_size=1, max_size=8))
def test_unary_batch_equals_each_slice_alone(slices):
    for component, _ in UNARY:
        chosen = [s for s in slices if component.applicable(s)]
        batch = component.compute_batch(chosen)
        assert len(batch) == len(chosen)
        for data, outcome in zip(chosen, batch):
            assert same_outcome(outcome, component.compute(data))


@settings(deadline=None)
@given(st.lists(pair_slices(), min_size=1, max_size=8))
def test_pair_batch_equals_each_slice_alone(pairs):
    component = CorrelationShiftComponent()
    for data, outcome in zip(pairs, component.compute_batch(pairs)):
        assert same_outcome(outcome, component.compute(data))


@settings(deadline=None)
@given(st.lists(st.one_of(column_slices(), categorical_slices()),
                min_size=1, max_size=8))
def test_unary_batch_matches_the_scalar_path(slices):
    for component, reference in UNARY:
        chosen = [s for s in slices if component.applicable(s)]
        for data, outcome in zip(chosen, component.compute_batch(chosen)):
            # The scalar Levene overflows on subnormal squares.
            with np.errstate(over="ignore"):
                expected = reference(data)
            assert (outcome is None) == (expected is None)
            if expected is None:
                continue
            raw, test = expected
            assert outcome.test.name == test.name
            # Levene's sums run in another order; on subnormal squares
            # that moves the statistic by more than a rounding step.
            tiny = test.name == "levene" and max(
                data.inside_stats.m2, data.outside_stats.m2) < 1e-300
            assert close(outcome.raw, raw)
            if not tiny:
                assert close(outcome.test.statistic, test.statistic)
                assert close(outcome.test.p_value, test.p_value)
                assert same_float(outcome.test.df, test.df)


@settings(deadline=None)
@given(st.lists(pair_slices(), min_size=1, max_size=8))
def test_pair_batch_matches_the_scalar_path(pairs):
    component = CorrelationShiftComponent()
    for data, outcome in zip(pairs, component.compute_batch(pairs)):
        expected = scalar_correlation_shift(data)
        assert (outcome is None) == (expected is None)
        if expected is not None:
            gap, test = expected
            assert close(outcome.raw, gap)
            assert close(outcome.test.statistic, test.statistic)
            assert close(outcome.test.p_value, test.p_value)


@settings(deadline=None)
@given(st.lists(column_slices(kinds=("normal", "constant")), min_size=1,
                max_size=8))
def test_numeric_batch_matches_scipy(slices):
    mean_shift = MeanShiftComponent().compute_batch(slices)
    spread_shift = SpreadShiftComponent().compute_batch(slices)
    for data, mean_out, spread_out in zip(slices, mean_shift, spread_shift):
        if data.inside is None:
            continue
        x = data.inside[~np.isnan(data.inside)]
        y = data.outside[~np.isnan(data.outside)]
        if mean_out is not None and x.var() > 0 and y.var() > 0:
            ref = scipy_reference(sps.ttest_ind, x, y, equal_var=False)
            if ref is not None:
                assert close(mean_out.test.statistic, ref.statistic)
                assert close(mean_out.test.p_value, ref.pvalue)
        if spread_out is not None and spread_out.test.name == "levene":
            deviation = (np.abs(x - np.median(x)).var()
                         + np.abs(y - np.median(y)).var())
            ref = scipy_reference(sps.levene, x, y, center="median")
            if deviation > 0 and ref is not None:
                assert close(spread_out.test.statistic, ref.statistic)
                assert close(spread_out.test.p_value, ref.pvalue)


def scipy_reference(test, *samples, **kwargs):
    """The scipy result, or None where scipy warns that it lost the
    precision to be a reference (nearly identical values)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = test(*samples, **kwargs)
    return None if caught else result


@settings(deadline=None)
@given(st.lists(pair_slices(), min_size=1, max_size=8))
def test_correlation_batch_matches_the_fisher_z_test(pairs):
    component = CorrelationShiftComponent()
    for data, outcome in zip(pairs, component.compute_batch(pairs)):
        if outcome is None:
            continue
        clamp = 1.0 - 1e-12
        z_in = math.atanh(max(-clamp, min(clamp, data.r_inside)))
        z_out = math.atanh(max(-clamp, min(clamp, data.r_outside)))
        z = (z_in - z_out) / math.sqrt(1.0 / (data.n_inside - 3)
                                       + 1.0 / (data.n_outside - 3))
        assert close(outcome.test.statistic, z)
        assert close(outcome.test.p_value, 2.0 * sps.norm.sf(abs(z)))


def test_subnormal_variances_score_like_the_scaled_samples():
    # Welch's t and its df are scale-free; the squared variances of the
    # df formula used to underflow to 0 here.
    inside = np.array([0.0, 1e-160, 2e-160, 0.0])
    outside = np.array([1e-160, 0.0, 3e-160, 1e-160, 0.0])
    tiny = MeanShiftComponent().compute(
        ColumnSlice("c", False, inside=inside, outside=outside))
    scaled = MeanShiftComponent().compute(
        ColumnSlice("c", False, inside=inside * 1e160,
                    outside=outside * 1e160))
    assert tiny.test.df == welch_t_test(inside, outside).df
    assert scaled.test.df == welch_t_test(inside * 1e160,
                                          outside * 1e160).df
    assert math.isclose(scaled.test.df, 7.0, rel_tol=1e-3)
    assert math.isclose(tiny.test.df, scaled.test.df, rel_tol=1e-3)
    assert math.isclose(tiny.test.statistic, scaled.test.statistic,
                        rel_tol=1e-3)
    assert math.isclose(tiny.raw, scaled.raw, rel_tol=1e-3)
