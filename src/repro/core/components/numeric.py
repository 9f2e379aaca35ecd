"""Numeric Zig-Components: the first two panels of Figure 3."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.components.base import ColumnSlice, ComponentOutcome, ZigComponent
from repro.errors import StatsError
from repro.stats.tests_ import (
    TestResult,
    f_test_variances,
    levene_batch,
    welch_t_batch,
)


def _two_group_moments(slices: Sequence[ColumnSlice]
                       ) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The positions of the slices with at least two values in each
    group, and those slices' inside and outside ``(n, mean, m2)``, one
    row of a ``(3, k)`` array per field."""
    chosen, inside, outside = [], [], []
    for i, data in enumerate(slices):
        data.ensure_stats()
        a, b = data.inside_stats, data.outside_stats
        if a is None or b is None or a.n < 2 or b.n < 2:
            continue
        chosen.append(i)
        inside.append((a.n, a.mean, a.m2))
        outside.append((b.n, b.mean, b.m2))
    shape = (len(chosen), 3)
    return (chosen, np.array(inside, dtype=np.float64).reshape(shape).T,
            np.array(outside, dtype=np.float64).reshape(shape).T)


class MeanShiftComponent(ZigComponent):
    """Difference between the means (Fig. 3, first Zig-Component).

    Effect size: Hedges' g (bias-corrected standardized mean difference,
    inside minus outside).  Significance: Welch's t-test.
    """

    name = "mean_shift"
    arity = 1
    applies_to_numeric = True
    applies_to_categorical = False

    def compute(self, data: ColumnSlice) -> ComponentOutcome | None:
        return self.compute_batch([data])[0]

    def compute_batch(self, slices: Sequence[ColumnSlice]
                      ) -> list[ComponentOutcome | None]:
        outcomes: list[ComponentOutcome | None] = [None] * len(slices)
        chosen, (n_a, mean_a, m2_a), (n_b, mean_b, m2_b) = \
            _two_group_moments(slices)
        if not chosen:
            return outcomes
        df = n_a + n_b - 2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # Cohen's d over the pooled SD; zero spread with unequal
            # means has no finite effect size.
            pooled = np.sqrt((m2_a + m2_b) / df)
            diff = mean_a - mean_b
            d = np.where(pooled == 0.0, np.where(diff == 0.0, 0.0, np.nan),
                         diff / pooled)
            g = d * (1.0 - 3.0 / (4.0 * df - 1.0))  # Hedges' correction J
            sd_a = np.sqrt(m2_a / (n_a - 1))
            sd_b = np.sqrt(m2_b / (n_b - 1))
        tests = welch_t_batch(n_a, mean_a, m2_a, n_b, mean_b, m2_b).results()
        for i, g_i, test, ma, mb, sa, sb in zip(
                chosen, g.tolist(), tests, mean_a.tolist(), mean_b.tolist(),
                sd_a.tolist(), sd_b.tolist()):
            if g_i != g_i:
                continue
            outcomes[i] = ComponentOutcome(
                raw=g_i,
                direction="higher" if g_i >= 0 else "lower",
                test=test,
                detail={
                    "mean_inside": ma,
                    "mean_outside": mb,
                    "sd_inside": sa,
                    "sd_outside": sb,
                },
            )
        return outcomes


class SpreadShiftComponent(ZigComponent):
    """Difference between the standard deviations (Fig. 3, second panel).

    Effect size: log SD ratio ``ln(sd_in / sd_out)``.  Significance:
    Brown–Forsythe (Levene) when raw values are available, falling back
    to the moment-based F-test when the slice came from cached sufficient
    statistics only.
    """

    name = "spread_shift"
    arity = 1
    applies_to_numeric = True
    applies_to_categorical = False

    def compute(self, data: ColumnSlice) -> ComponentOutcome | None:
        return self.compute_batch([data])[0]

    def compute_batch(self, slices: Sequence[ColumnSlice]
                      ) -> list[ComponentOutcome | None]:
        outcomes: list[ComponentOutcome | None] = [None] * len(slices)
        chosen, (n_a, _, m2_a), (n_b, _, m2_b) = _two_group_moments(slices)
        if not chosen:
            return outcomes
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sd_a = np.sqrt(m2_a / (n_a - 1))
            sd_b = np.sqrt(m2_b / (n_b - 1))
            ratio = np.where((sd_a == 0.0) & (sd_b == 0.0), 0.0,
                             np.log(sd_a / sd_b))
        # The ratio is undefined when exactly one group is constant.
        defined = (sd_a == 0.0) == (sd_b == 0.0)
        levene = self._brown_forsythe(slices, chosen)
        for i, ratio_i, ok, sa, sb in zip(chosen, ratio.tolist(),
                                          defined.tolist(), sd_a.tolist(),
                                          sd_b.tolist()):
            if not ok:
                continue
            test = levene.get(i)
            if test is None:
                data = slices[i]
                try:
                    test = f_test_variances(data.inside_stats,
                                            data.outside_stats)
                except StatsError:
                    continue
            outcomes[i] = ComponentOutcome(
                raw=ratio_i,
                direction="higher" if ratio_i >= 0 else "lower",
                test=test,
                detail={
                    "sd_inside": sa,
                    "sd_outside": sb,
                },
            )
        return outcomes

    @staticmethod
    def _brown_forsythe(slices: Sequence[ColumnSlice],
                        chosen: list[int]) -> dict[int, TestResult]:
        """Levene tests of the chosen slices that carry raw values, one
        batch per pair of sample lengths (every sketch-answered column
        shares one, every exact one another)."""
        groups: dict[tuple[int, int], list[tuple[int, np.ndarray,
                                                 np.ndarray]]] = {}
        for i in chosen:
            data = slices[i]
            if data.inside is None or data.outside is None:
                continue
            # reshape, unlike ravel, keeps a strided column a view.
            x = np.reshape(np.asarray(data.inside, dtype=np.float64), -1)
            y = np.reshape(np.asarray(data.outside, dtype=np.float64), -1)
            groups.setdefault((x.size, y.size), []).append((i, x, y))
        tests: dict[int, TestResult] = {}
        for members in groups.values():
            batch, tested = levene_batch(np.stack([x for _, x, _ in members]),
                                         np.stack([y for _, _, y in members]))
            for (i, _, _), test, ok in zip(members, batch.results(),
                                           tested.tolist()):
                if ok:
                    tests[i] = test
        return tests
