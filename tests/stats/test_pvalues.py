"""The ``scipy.special`` p-value functions equal, bit for bit, the
``scipy.stats`` calls they replace — edges included."""

import itertools

import numpy as np
import pytest
from scipy import stats as sps

from repro.core.significance.aggregation import fisher_combination
from repro.stats.tests_ import chi2_sf, f_cdf, f_sf, norm_sf, t_sf

TINY = np.finfo(np.float64).tiny
SUBNORMALS = (5e-324, 1e-310, TINY / 2)

#: Statistics: zeros of both signs, subnormals, the smallest normal,
#: ordinary and extreme values, infinities, NaN and negatives.
STATISTICS = (0.0, -0.0, *SUBNORMALS, *(-s for s in SUBNORMALS), TINY,
              1e-300, 1e-8, 0.05, 0.5, 1.0, 1.959963984540054, 3.0, 8.5,
              40.0, 1e4, 1e10, 1e300, np.inf, -np.inf, np.nan, -1.0, -40.0)

#: Degrees of freedom as the tests produce them: positive counts and
#: Welch-Satterthwaite fractions, small to huge.
DOFS = (1, 2, 3, 7.5, 30, 1e6, 1e300)


def same_bits(ours, theirs) -> bool:
    return np.float64(ours).tobytes() == np.float64(theirs).tobytes()


def mismatches(pairs):
    return [(args, ours, theirs) for args, ours, theirs in pairs
            if not same_bits(ours, theirs)]


def test_norm_sf():
    assert not mismatches(((x,), norm_sf(x), sps.norm.sf(x))
                          for x in STATISTICS)


def test_t_sf():
    assert not mismatches(((x, df), t_sf(x, df), sps.t.sf(x, df))
                          for x, df in itertools.product(
                              STATISTICS, DOFS + (np.inf,)))


@pytest.mark.parametrize("name", ["cdf", "sf"])
def test_f(name):
    ours = {"cdf": f_cdf, "sf": f_sf}[name]
    theirs = getattr(sps.f, name)
    assert not mismatches(((x, d1, d2), ours(x, d1, d2), theirs(x, d1, d2))
                          for x, d1, d2 in itertools.product(
                              STATISTICS, DOFS, DOFS))


def test_chi2_sf():
    assert not mismatches(((x, df), chi2_sf(x, df), sps.chi2.sf(x, df))
                          for x, df in itertools.product(STATISTICS, DOFS))


def test_fisher_combination_matches_scipy():
    for ps in ([0.5], [0.01, 0.2, 0.9], [1e-300, 1.0], [0.0, 0.3]):
        statistic = sum(-2.0 * np.log(max(p, 1e-300)) for p in ps)
        assert same_bits(fisher_combination(ps),
                         sps.chi2.sf(statistic, 2 * len(ps)))
