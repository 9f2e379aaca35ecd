"""Missingness Zig-Component.

Missing values are first-class signal in exploration data (a selection
where a sensor column is suddenly empty is a finding, not a nuisance), so
the difference of missing-value rates is a component of its own.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.components.base import ColumnSlice, ComponentOutcome, ZigComponent
from repro.stats.tests_ import two_proportion_z_batch


def _missing_counts(data: ColumnSlice) -> tuple[int, int, int, int] | None:
    """``(k_in, n_in, k_out, n_out)``: missing and total counts per group."""
    if data.is_categorical:
        pi, po = data.inside_profile, data.outside_profile
        if pi is None or po is None:
            return None
        return (pi.n_missing, pi.n + pi.n_missing,
                po.n_missing, po.n + po.n_missing)
    data.ensure_stats()
    a, b = data.inside_stats, data.outside_stats
    if a is None or b is None:
        return None
    return a.n_missing, a.total, b.n_missing, b.total


class MissingShiftComponent(ZigComponent):
    """Difference between missing-value rates (inside minus outside).

    Effect size: the raw rate gap in [-1, 1].  Significance: pooled
    two-proportion z-test.  Returns None when neither group has any
    missing values — a zero-information component would only dilute the
    view score.
    """

    name = "missing_shift"
    arity = 1
    applies_to_numeric = True
    applies_to_categorical = True

    def compute(self, data: ColumnSlice) -> ComponentOutcome | None:
        return self.compute_batch([data])[0]

    def compute_batch(self, slices: Sequence[ColumnSlice]
                      ) -> list[ComponentOutcome | None]:
        outcomes: list[ComponentOutcome | None] = [None] * len(slices)
        chosen, counts = [], []
        for i, data in enumerate(slices):
            found = _missing_counts(data)
            if found is None:
                continue
            k_in, n_in, k_out, n_out = found
            if n_in == 0 or n_out == 0 or (k_in == 0 and k_out == 0):
                continue
            chosen.append(i)
            counts.append(found)
        if not chosen:
            return outcomes
        k_in, n_in, k_out, n_out = np.array(counts, dtype=np.float64).T
        rate_in, rate_out = k_in / n_in, k_out / n_out
        tests = two_proportion_z_batch(k_in, n_in, k_out, n_out).results()
        for i, r_in, r_out, test in zip(chosen, rate_in.tolist(),
                                        rate_out.tolist(), tests):
            gap = r_in - r_out
            outcomes[i] = ComponentOutcome(
                raw=gap,
                direction="higher" if gap >= 0 else "lower",
                test=test,
                detail={
                    "rate_inside": r_in,
                    "rate_outside": r_out,
                },
            )
        return outcomes
