"""Robust location/scale estimators.

Ziggy normalizes Zig-Components so that heterogeneous indicators become
comparable (paper, Section 2.2).  Component magnitudes across a wide table
are heavy-tailed — a handful of columns dominate — so the normalization in
:mod:`repro.core.dissimilarity` uses the median/MAD estimators implemented
here rather than mean/std.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import InsufficientDataError

#: Consistency constant making the MAD an unbiased estimator of the
#: standard deviation under normality (1 / Phi^{-1}(3/4)).
MAD_TO_SIGMA = 1.4826022185056018


def _clean(values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).ravel()
    return arr[~np.isnan(arr)]


def median(values: np.ndarray) -> float:
    """NaN-dropping median; raises when the sample is empty."""
    data = _clean(values)
    if data.size == 0:
        raise InsufficientDataError("median", needed=1, got=0)
    return float(np.median(data))


def mad(values: np.ndarray, scale_to_sigma: bool = True) -> float:
    """Median absolute deviation.

    Args:
        values: sample (NaNs dropped).
        scale_to_sigma: multiply by 1.4826 so the result estimates the
            standard deviation for Gaussian data (the default, because the
            dissimilarity layer mixes MAD-scaled scores with z-scores).
    """
    data = _clean(values)
    if data.size == 0:
        raise InsufficientDataError("mad", needed=1, got=0)
    m = np.median(data)
    raw = float(np.median(np.abs(data - m)))
    return raw * MAD_TO_SIGMA if scale_to_sigma else raw


def iqr(values: np.ndarray) -> float:
    """Interquartile range (Q3 - Q1)."""
    data = _clean(values)
    if data.size == 0:
        raise InsufficientDataError("iqr", needed=1, got=0)
    q1, q3 = np.quantile(data, [0.25, 0.75])
    return float(q3 - q1)


def trimmed_mean(values: np.ndarray, proportion: float = 0.1) -> float:
    """Symmetrically trimmed mean.

    Args:
        values: sample (NaNs dropped).
        proportion: fraction trimmed from *each* tail, in [0, 0.5).
    """
    if not 0.0 <= proportion < 0.5:
        raise ValueError(f"trim proportion must be in [0, 0.5), got {proportion}")
    data = np.sort(_clean(values))
    if data.size == 0:
        raise InsufficientDataError("trimmed_mean", needed=1, got=0)
    k = int(data.size * proportion)
    trimmed = data[k: data.size - k] if k else data
    if trimmed.size == 0:
        # All mass trimmed away (tiny sample): fall back to the median.
        return float(np.median(data))
    return float(trimmed.mean())


def winsorize(values: np.ndarray, proportion: float = 0.05) -> np.ndarray:
    """Clamp each tail of the sample to its ``proportion`` quantile.

    NaNs are preserved in place.  Returns a new array.
    """
    if not 0.0 <= proportion < 0.5:
        raise ValueError(f"winsorize proportion must be in [0, 0.5), got {proportion}")
    arr = np.asarray(values, dtype=np.float64).copy()
    data = arr[~np.isnan(arr)]
    if data.size == 0 or proportion == 0.0:
        return arr
    lo, hi = np.quantile(data, [proportion, 1.0 - proportion])
    return np.clip(arr, lo, hi)


def divides(scale: float, spread: float) -> bool:
    """Whether ``scale`` is a usable divisor for deviations up to
    ``spread``: positive, with ``spread / scale`` finite.

    A MAD or IQR can be positive yet subnormal (ties plus one value of
    ~1e-320), and dividing an ordinary deviation by it gives ``inf``;
    scale cascades treat such a scale as degenerate, like zero or NaN.
    """
    return scale > 0.0 and math.isfinite(spread / scale)


def finite_spread(values: np.ndarray, center: float) -> float:
    """Largest distance from ``center`` to a finite value of ``values``
    (0.0 when there is none): the deviation a scale must divide.  An
    infinite value is left out, since no scale divides it.
    """
    finite = values[np.isfinite(values)]
    return float(np.abs(finite - center).max()) if finite.size else 0.0


def robust_zscores(values: np.ndarray) -> np.ndarray:
    """Median/MAD z-scores with NaNs preserved.

    Degenerate scale (MAD == 0, or too small to divide the sample's
    spread, see :func:`divides`) falls back to the IQR, then to the
    standard deviation, then to 1.0, so the result is always finite for
    finite inputs.  This cascade is what keeps component normalization
    stable on columns with many ties.
    """
    arr = np.asarray(values, dtype=np.float64)
    data = arr[~np.isnan(arr)]
    if data.size == 0:
        return arr.copy()
    center = float(np.median(data))
    spread = finite_spread(data, center)
    scale = mad(data)
    if not divides(scale, spread):
        scale = iqr(data) / 1.349 if data.size >= 4 else 0.0
    if not divides(scale, spread):
        scale = float(np.std(data, ddof=1)) if data.size >= 2 else 0.0
    if not divides(scale, spread):
        scale = 1.0
    return (arr - center) / scale
