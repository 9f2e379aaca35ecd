"""Descriptive statistics with mergeable sufficient statistics.

The preparation stage of Ziggy computes per-column and per-column-pair
statistics over the *inside* (selected) and *outside* (complement) tuple
groups.  To support the cross-query computation-sharing strategy of the
paper (Section 3, "Preparation"), the summaries here are built on
*sufficient statistics* (count and centered moments up to order four) that
can be merged: the outside-group summary is derived as
``global - inside`` without re-scanning the complement.

All functions treat ``NaN`` as a missing value: it is excluded from the
moments but counted in :attr:`SummaryStats.n_missing`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import InsufficientDataError


@dataclass(frozen=True)
class SummaryStats:
    """Moment-based summary of a numeric sample.

    The first four centered moments are stored as *sums* (``m2`` is the sum
    of squared deviations, etc.) so that two summaries can be combined with
    :func:`merge_stats` or subtracted with :meth:`subtract` exactly — this
    is the algebraic backbone of the statistics cache.

    Attributes:
        n: number of non-missing observations.
        n_missing: number of missing (NaN) observations.
        mean: arithmetic mean of the non-missing observations.
        m2: sum of squared deviations from the mean.
        m3: sum of cubed deviations.
        m4: sum of fourth-power deviations.
        minimum: smallest non-missing value (``nan`` when ``n == 0``).
        maximum: largest non-missing value (``nan`` when ``n == 0``).
    """

    n: int
    n_missing: int
    mean: float
    m2: float
    m3: float
    m4: float
    minimum: float
    maximum: float

    # -- derived quantities -------------------------------------------------

    @property
    def total(self) -> int:
        """Total observations including missing ones."""
        return self.n + self.n_missing

    @property
    def missing_rate(self) -> float:
        """Fraction of observations that are missing (0 when empty)."""
        return self.n_missing / self.total if self.total else 0.0

    @property
    def variance(self) -> float:
        """Unbiased (n-1) sample variance; ``nan`` when ``n < 2``."""
        if self.n < 2:
            return float("nan")
        return self.m2 / (self.n - 1)

    @property
    def variance_population(self) -> float:
        """Population (n) variance; ``nan`` when ``n < 1``."""
        if self.n < 1:
            return float("nan")
        return self.m2 / self.n

    @property
    def std(self) -> float:
        """Unbiased sample standard deviation."""
        v = self.variance
        return math.sqrt(v) if v == v else float("nan")

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        if self.n < 2:
            return float("nan")
        return self.std / math.sqrt(self.n)

    @property
    def skewness(self) -> float:
        """Adjusted Fisher-Pearson skewness; ``nan`` when undefined."""
        if self.n < 3 or self.m2 <= 0:
            return float("nan")
        g1 = (self.m3 / self.n) / (self.m2 / self.n) ** 1.5
        n = self.n
        return math.sqrt(n * (n - 1)) / (n - 2) * g1

    @property
    def kurtosis_excess(self) -> float:
        """Excess kurtosis (normal = 0); ``nan`` when undefined."""
        if self.n < 4 or self.m2 <= 0:
            return float("nan")
        n = self.n
        g2 = (self.m4 / n) / (self.m2 / n) ** 2 - 3.0
        return ((n + 1) * g2 + 6) * (n - 1) / ((n - 2) * (n - 3))

    @property
    def value_range(self) -> float:
        """``maximum - minimum``; ``nan`` when empty."""
        return self.maximum - self.minimum

    # -- serialization -------------------------------------------------------

    def to_wire(self) -> tuple:
        """A flat 8-tuple of native numbers — the compact wire form.

        For protocols that move cache entries outside pickle (snapshot
        files, cross-host transports): a tuple of scalars serializes to
        a fraction of a full dataclass payload and round-trips exactly,
        non-finite floats included.  (In-process executor backends ship
        whole caches via :class:`StatsCache` pickling, which keeps the
        dataclasses; this is the building block for anything leaner.)
        """
        return (int(self.n), int(self.n_missing), float(self.mean),
                float(self.m2), float(self.m3), float(self.m4),
                float(self.minimum), float(self.maximum))

    @classmethod
    def from_wire(cls, wire: tuple) -> "SummaryStats":
        """Rebuild a summary from :meth:`to_wire` output."""
        n, n_missing, mean, m2, m3, m4, minimum, maximum = wire
        return cls(n=int(n), n_missing=int(n_missing), mean=float(mean),
                   m2=float(m2), m3=float(m3), m4=float(m4),
                   minimum=float(minimum), maximum=float(maximum))

    # -- algebra -------------------------------------------------------------

    def subtract(self, part: "SummaryStats") -> "SummaryStats":
        """Return the summary of ``self``'s sample minus ``part``'s sample.

        ``part`` must summarize a subset of the observations summarized by
        ``self``.  Min/max cannot be recovered by subtraction, so the
        result inherits the parent's bounds (a conservative superset —
        acceptable for effect-size normalization, which is what the cache
        uses it for).
        """
        n = self.n - part.n
        if n < 0:
            raise ValueError("cannot subtract a larger sample from a smaller one")
        n_missing = self.n_missing - part.n_missing
        if n_missing < 0:
            raise ValueError("missing counts are inconsistent between whole and part")
        if n == 0:
            return SummaryStats(0, n_missing, float("nan"), 0.0, 0.0, 0.0,
                                float("nan"), float("nan"))
        if part.n == 0:
            # Subtracting an empty sample: only missing counts change
            # (part.mean is NaN and must not enter the arithmetic).
            return SummaryStats(self.n, n_missing, self.mean, self.m2,
                                self.m3, self.m4, self.minimum, self.maximum)
        # Invert Chan et al.'s pairwise-merge update for the moments.
        mean = (self.mean * self.n - part.mean * part.n) / n
        delta = part.mean - mean
        n_a, n_b, n_ab = n, part.n, self.n
        m2 = self.m2 - part.m2 - delta * delta * n_a * n_b / n_ab
        m3 = (self.m3 - part.m3
              - delta ** 3 * n_a * n_b * (n_a - n_b) / n_ab ** 2
              - 3.0 * delta * (n_a * part.m2 - n_b * m2) / n_ab)
        m4 = (self.m4 - part.m4
              - delta ** 4 * n_a * n_b * (n_a ** 2 - n_a * n_b + n_b ** 2) / n_ab ** 3
              - 6.0 * delta ** 2 * (n_a ** 2 * part.m2 + n_b ** 2 * m2) / n_ab ** 2
              - 4.0 * delta * (n_a * part.m3 - n_b * m3) / n_ab)
        return SummaryStats(
            n=n,
            n_missing=n_missing,
            mean=mean,
            m2=max(m2, 0.0),
            m3=m3,
            m4=max(m4, 0.0),
            minimum=self.minimum,
            maximum=self.maximum,
        )


_EMPTY = SummaryStats(0, 0, float("nan"), 0.0, 0.0, 0.0, float("nan"), float("nan"))


def summarize(values: np.ndarray) -> SummaryStats:
    """Compute a :class:`SummaryStats` for a 1-d array of floats.

    NaNs are treated as missing.  Runs in one vectorized pass.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    missing = np.isnan(arr)
    n_missing = int(missing.sum())
    data = arr[~missing]
    n = data.size
    if n == 0:
        return SummaryStats(0, n_missing, float("nan"), 0.0, 0.0, 0.0,
                            float("nan"), float("nan"))
    mean = float(data.mean())
    dev = data - mean
    dev2 = dev * dev
    m2 = float(dev2.sum())
    m3 = float((dev2 * dev).sum())
    m4 = float((dev2 * dev2).sum())
    return SummaryStats(
        n=n,
        n_missing=n_missing,
        mean=mean,
        m2=m2,
        m3=m3,
        m4=m4,
        minimum=float(data.min()),
        maximum=float(data.max()),
    )


def summarize_columns(matrix: np.ndarray) -> list[SummaryStats]:
    """:func:`summarize` of every column of a 2-d array, in one pass.

    Column sums run down the rows, so the last bits of a moment can
    differ from :func:`summarize`'s pairwise sums of the same values.
    """
    mat = np.asarray(matrix, dtype=np.float64)
    missing = np.isnan(mat)
    n = mat.shape[0] - np.count_nonzero(missing, axis=0)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        dev = np.where(missing, 0.0, mat)
        mean = dev.sum(axis=0) / n
        dev -= mean
        np.copyto(dev, 0.0, where=missing)
        dev2 = dev * dev
        m2 = dev2.sum(axis=0)
        m3 = np.einsum("ij,ij->j", dev2, dev)
        m4 = np.einsum("ij,ij->j", dev2, dev2)
    # NaN is fmin/fmax's neutral element: an empty column keeps it.
    minimum = np.fmin.reduce(mat, axis=0, initial=np.nan)
    maximum = np.fmax.reduce(mat, axis=0, initial=np.nan)
    return [SummaryStats(*fields) for fields in zip(
        n.tolist(), (mat.shape[0] - n).tolist(), mean.tolist(), m2.tolist(),
        m3.tolist(), m4.tolist(), minimum.tolist(), maximum.tolist())]


def merge_stats(a: SummaryStats, b: SummaryStats) -> SummaryStats:
    """Combine summaries of two disjoint samples (Chan et al. update)."""
    if a.n == 0:
        if b.n == 0:
            return SummaryStats(0, a.n_missing + b.n_missing, float("nan"),
                                0.0, 0.0, 0.0, float("nan"), float("nan"))
        return SummaryStats(b.n, a.n_missing + b.n_missing, b.mean, b.m2,
                            b.m3, b.m4, b.minimum, b.maximum)
    if b.n == 0:
        return SummaryStats(a.n, a.n_missing + b.n_missing, a.mean, a.m2,
                            a.m3, a.m4, a.minimum, a.maximum)
    n = a.n + b.n
    delta = b.mean - a.mean
    mean = a.mean + delta * b.n / n
    m2 = a.m2 + b.m2 + delta * delta * a.n * b.n / n
    m3 = (a.m3 + b.m3
          + delta ** 3 * a.n * b.n * (a.n - b.n) / n ** 2
          + 3.0 * delta * (a.n * b.m2 - b.n * a.m2) / n)
    m4 = (a.m4 + b.m4
          + delta ** 4 * a.n * b.n * (a.n ** 2 - a.n * b.n + b.n ** 2) / n ** 3
          + 6.0 * delta ** 2 * (a.n ** 2 * b.m2 + b.n ** 2 * a.m2) / n ** 2
          + 4.0 * delta * (a.n * b.m3 - b.n * a.m3) / n)
    return SummaryStats(
        n=n,
        n_missing=a.n_missing + b.n_missing,
        mean=mean,
        m2=m2,
        m3=m3,
        m4=m4,
        minimum=min(a.minimum, b.minimum),
        maximum=max(a.maximum, b.maximum),
    )


def quantile(values: np.ndarray, q: float | np.ndarray) -> float | np.ndarray:
    """NaN-aware linear-interpolation quantile.

    Raises :class:`InsufficientDataError` when there are no observations,
    instead of returning NaN, so callers never propagate silent NaNs.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    data = arr[~np.isnan(arr)]
    if data.size == 0:
        raise InsufficientDataError("quantile", needed=1, got=0)
    result = np.quantile(data, q)
    if np.isscalar(q) or getattr(q, "ndim", 0) == 0:
        return float(result)
    return result


def standardize(values: np.ndarray, center: float | None = None,
                scale: float | None = None) -> np.ndarray:
    """Return ``(values - center) / scale`` with NaNs preserved.

    When center/scale are omitted they default to the sample mean and
    standard deviation.  A zero or NaN scale degrades to pure centering so
    constant columns do not produce infinities.
    """
    arr = np.asarray(values, dtype=np.float64)
    stats = summarize(arr)
    if center is None:
        center = stats.mean if stats.n else 0.0
    if scale is None:
        scale = stats.std
    if not scale or scale != scale:
        scale = 1.0
    return (arr - center) / scale
