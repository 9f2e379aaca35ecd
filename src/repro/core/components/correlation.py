"""The pairwise Zig-Component: difference of correlation coefficients.

Figure 3, third panel — the component that makes Ziggy's views
two-dimensional: "Observe that we test dissimilarities in spaces with one
but also two dimensions.  For instance, the difference between the
correlation coefficients involves two columns."
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.components.base import ComponentOutcome, PairSlice, ZigComponent
from repro.stats.correlation import fisher_z_batch
from repro.stats.tests_ import fisher_z_test_batch


class CorrelationShiftComponent(ZigComponent):
    """Fisher-z gap between the inside and outside correlations.

    Effect size: ``atanh(r_in) - atanh(r_out)``.  Significance: the
    two-sample Fisher z-test with SE ``sqrt(1/(n1-3) + 1/(n2-3))``.
    """

    name = "correlation_shift"
    arity = 2
    applies_to_numeric = True
    applies_to_categorical = False

    #: Minimum complete pairs per group for the asymptotic test.
    min_pairs = 4

    def compute(self, data: PairSlice) -> ComponentOutcome | None:
        return self.compute_batch([data])[0]

    def compute_batch(self, slices: Sequence[PairSlice]
                      ) -> list[ComponentOutcome | None]:
        outcomes: list[ComponentOutcome | None] = [None] * len(slices)
        chosen = [i for i, data in enumerate(slices)
                  if data.n_inside >= self.min_pairs
                  and data.n_outside >= self.min_pairs
                  and data.r_inside == data.r_inside
                  and data.r_outside == data.r_outside]
        if not chosen:
            return outcomes
        r_in, r_out, n_in, n_out = np.array(
            [(slices[i].r_inside, slices[i].r_outside, slices[i].n_inside,
              slices[i].n_outside) for i in chosen], dtype=np.float64).T
        gap = fisher_z_batch(r_in) - fisher_z_batch(r_out)
        tests = fisher_z_test_batch(r_in, n_in, r_out, n_out).results()
        for i, gap_i, test in zip(chosen, gap.tolist(), tests):
            data = slices[i]
            ri, ro = data.r_inside, data.r_outside
            if abs(ri) >= abs(ro):
                direction = "stronger" if ri * ro >= 0 else "reversed"
            else:
                direction = "weaker"
            outcomes[i] = ComponentOutcome(
                raw=gap_i,
                direction=direction,
                test=test,
                detail={
                    "r_inside": ri,
                    "r_outside": ro,
                    "n_inside": data.n_inside,
                    "n_outside": data.n_outside,
                },
            )
        return outcomes
