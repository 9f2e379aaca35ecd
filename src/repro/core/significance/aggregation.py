"""P-value aggregation schemes.

A view carries one p-value per evaluated Zig-Component; the schemes here
combine them into a single view-level p-value.  "min" reproduces the
paper's "retains the lowest value" (optimistic, no multiplicity control);
Bonferroni is the correction the paper names; Holm and Fisher round out
the standard toolbox.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import ConfigError
from repro.stats.tests_ import chi2_sf


def _validated(p_values: Sequence[float]) -> list[float]:
    out = []
    for p in p_values:
        if p != p:
            continue  # NaN: a component without a test contributes nothing
        if not 0.0 <= p <= 1.0 + 1e-12:
            raise ValueError(f"p-value out of range: {p}")
        out.append(min(1.0, max(0.0, float(p))))
    return out


def minimum(p_values: Sequence[float]) -> float:
    """The smallest p-value, uncorrected (the paper's "lowest value")."""
    ps = _validated(p_values)
    return min(ps) if ps else 1.0


def bonferroni(p_values: Sequence[float]) -> float:
    """Bonferroni-corrected minimum: ``min(1, m * min_p)``.

    Controls the family-wise error rate across a view's ``m`` components
    — the paper's named "more advanced aggregation scheme".
    """
    ps = _validated(p_values)
    if not ps:
        return 1.0
    return min(1.0, len(ps) * min(ps))


def holm(p_values: Sequence[float]) -> float:
    """Holm step-down adjusted minimum.

    Uniformly more powerful than Bonferroni while controlling the same
    family-wise error rate; the view-level p is the smallest adjusted
    p-value.
    """
    ps = sorted(_validated(p_values))
    if not ps:
        return 1.0
    m = len(ps)
    adjusted = []
    running = 0.0
    for k, p in enumerate(ps):
        value = min(1.0, (m - k) * p)
        running = max(running, value)  # enforce monotonicity
        adjusted.append(running)
    return adjusted[0]


def fisher_combination(p_values: Sequence[float]) -> float:
    """Fisher's method: ``-2 * sum(ln p) ~ chi2(2m)`` under the null.

    Pools evidence across components instead of keying on the single
    best one — appropriate when a view is "mildly unusual everywhere".
    """
    ps = _validated(p_values)
    if not ps:
        return 1.0
    statistic = 0.0
    for p in ps:
        statistic += -2.0 * math.log(max(p, 1e-300))
    return chi2_sf(statistic, 2 * len(ps))


_SCHEMES = {
    "min": minimum,
    "bonferroni": bonferroni,
    "holm": holm,
    "fisher": fisher_combination,
}


def aggregate_p_values(p_values: Sequence[float], scheme: str) -> float:
    """Dispatch to the named aggregation scheme."""
    fn = _SCHEMES.get(scheme)
    if fn is None:
        raise ConfigError(
            f"unknown aggregation scheme {scheme!r}; "
            f"available: {', '.join(sorted(_SCHEMES))}")
    return fn(p_values)
