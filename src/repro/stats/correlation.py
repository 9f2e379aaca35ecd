"""Correlation measures and the Fisher z-transform.

Pearson/Spearman correlations serve two distinct roles in Ziggy:

* as the *dependency measure* ``S`` that defines view tightness (Eq. 2);
* inside the correlation-gap Zig-Component (Fig. 3, third panel).

All estimators here drop rows where either value is missing (pairwise
deletion), matching what a user would see on a scatter plot of the two
columns.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.errors import InsufficientDataError

#: Clamp for correlations before the Fisher transform; atanh(±1) = ±inf.
_FISHER_CLAMP = 1.0 - 1e-12


def _paired(x, y) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(x, dtype=np.float64).ravel()
    ya = np.asarray(y, dtype=np.float64).ravel()
    if xa.shape != ya.shape:
        raise ValueError(f"paired samples must have equal length, "
                         f"got {xa.size} and {ya.size}")
    keep = ~(np.isnan(xa) | np.isnan(ya))
    return xa[keep], ya[keep]


def pearson(x, y) -> float:
    """Pearson product-moment correlation with pairwise NaN deletion.

    Returns NaN when either column is constant (undefined correlation) —
    callers in the component layer convert that into a skipped component
    rather than a crash, because constant columns are common in sliced
    exploration data.
    """
    xa, ya = _paired(x, y)
    if xa.size < 2:
        raise InsufficientDataError("pearson", needed=2, got=int(xa.size))
    xm = xa - xa.mean()
    ym = ya - ya.mean()
    denom = math.sqrt(float((xm * xm).sum()) * float((ym * ym).sum()))
    if denom == 0.0:
        return float("nan")
    r = float((xm * ym).sum()) / denom
    # Guard against floating-point drift outside [-1, 1].
    return max(-1.0, min(1.0, r))


def rankdata(values: np.ndarray) -> np.ndarray:
    """Average-tie ranks (1-based), NaNs ranked last and returned as NaN.

    A minimal replacement for ``scipy.stats.rankdata`` kept local so the
    hot dependency-matrix path stays allocation-lean.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    n = arr.size
    ranks = np.full(n, np.nan)
    valid = ~np.isnan(arr)
    data = arr[valid]
    if data.size == 0:
        return ranks
    order = np.argsort(data, kind="mergesort")
    sorted_vals = data[order]
    raw = np.empty(data.size, dtype=np.float64)
    raw[order] = np.arange(1, data.size + 1, dtype=np.float64)
    # Average ranks over tie groups.
    boundaries = np.flatnonzero(np.diff(sorted_vals) != 0) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [data.size]))
    # Each tie group of sorted positions [s, e) gets the average rank
    # (s + 1 + e) / 2; np.repeat expands the per-group values without a
    # Python-level loop over groups.
    avg = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    tied = np.empty(data.size, dtype=np.float64)
    tied[order] = avg
    ranks[valid] = tied
    return ranks


def rankdata_matrix(mat: np.ndarray) -> np.ndarray:
    """Column-wise :func:`rankdata` of a 2-d array.

    The full-matrix form the dependency layer uses for Spearman: rank
    every column once, then one pairwise-complete Pearson pass over the
    rank matrix replaces the per-pair rank-and-correlate loop.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("mat must be a 2-d array (rows x columns)")
    if mat.shape[1] == 0:
        return mat.copy()
    return np.column_stack([rankdata(mat[:, j]) for j in range(mat.shape[1])])


def spearman(x, y) -> float:
    """Spearman rank correlation (Pearson on average-tie ranks)."""
    xa, ya = _paired(x, y)
    if xa.size < 2:
        raise InsufficientDataError("spearman", needed=2, got=int(xa.size))
    return pearson(rankdata(xa), rankdata(ya))


def fisher_z(r: float) -> float:
    """Fisher z-transform ``atanh(r)``, clamped away from ±1."""
    r = max(-_FISHER_CLAMP, min(_FISHER_CLAMP, float(r)))
    return math.atanh(r)


def fisher_z_batch(r: np.ndarray) -> np.ndarray:
    """:func:`fisher_z` over an array of correlations."""
    return np.arctanh(np.clip(r, -_FISHER_CLAMP, _FISHER_CLAMP))


def inverse_fisher_z(z: float) -> float:
    """Inverse Fisher transform ``tanh(z)``."""
    return math.tanh(float(z))


class PairwiseMoments:
    """Sufficient statistics for all pairwise-complete correlations.

    For an ``n x M`` matrix with missing values, stores the four moment
    matrices (complete-pair counts, conditional sums, conditional sums of
    squares, cross-products) from which every pairwise-deletion Pearson
    coefficient can be reconstructed.  The matrices are *additive over
    disjoint row sets*, which is the algebraic fact behind Ziggy's
    cross-query computation sharing: moments(outside) =
    moments(all rows) - moments(inside), no complement scan needed.

    Attributes:
        n: ``(M, M)`` complete-pair counts.
        sx: ``(M, M)``; ``sx[i, j]`` = sum of column i over rows where
            both i and j are present.
        sxx: like ``sx`` but sums of squares.
        sxy: ``(M, M)`` cross-products over complete pairs.
    """

    __slots__ = ("n", "sx", "sxx", "sxy")

    def __init__(self, n: np.ndarray, sx: np.ndarray, sxx: np.ndarray,
                 sxy: np.ndarray):
        self.n = n
        self.sx = sx
        self.sxx = sxx
        self.sxy = sxy

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> "PairwiseMoments":
        """Build moments from a rows-by-columns float matrix (4 GEMMs)."""
        mat = np.asarray(mat, dtype=np.float64)
        if mat.ndim != 2:
            raise ValueError("matrix must be 2-d (rows x columns)")
        valid = (~np.isnan(mat)).astype(np.float64)
        filled = np.where(np.isnan(mat), 0.0, mat)
        n = valid.T @ valid
        sx = filled.T @ valid
        sxx = (filled * filled).T @ valid
        sxy = filled.T @ filled
        return cls(n=n, sx=sx, sxx=sxx, sxy=sxy)

    @property
    def nbytes(self) -> int:
        """Bytes held by the four moment matrices."""
        return (self.n.nbytes + self.sx.nbytes + self.sxx.nbytes
                + self.sxy.nbytes)

    def restrict(self, index: Sequence[int]) -> "PairwiseMoments":
        """The moments of the columns at ``index``, in that order."""
        grid = np.ix_(index, index)
        return PairwiseMoments(self.n[grid], self.sx[grid], self.sxx[grid],
                               self.sxy[grid])

    def add(self, other: "PairwiseMoments") -> "PairwiseMoments":
        """Moments of the union of two disjoint row sets."""
        return PairwiseMoments(self.n + other.n, self.sx + other.sx,
                               self.sxx + other.sxx, self.sxy + other.sxy)

    def subtract(self, part: "PairwiseMoments") -> "PairwiseMoments":
        """Moments of this row set minus a subset of its rows."""
        n = self.n - part.n
        if (n < -1e-9).any():
            raise ValueError("cannot subtract moments of a larger row set")
        return PairwiseMoments(np.maximum(n, 0.0), self.sx - part.sx,
                               self.sxx - part.sxx, self.sxy - part.sxy)

    def correlations(self) -> tuple[np.ndarray, np.ndarray]:
        """Reconstruct ``(corr, n_complete)``.

        Entries with fewer than 2 complete pairs or zero variance are
        NaN; the diagonal is forced to 1 where defined.
        """
        n, sx, sxx, sxy = self.n, self.sx, self.sxx, self.sxy
        sy, syy = sx.T, sxx.T
        with np.errstate(invalid="ignore", divide="ignore"):
            cov = n * sxy - sx * sy
            var_x = n * sxx - sx * sx
            var_y = n * syy - sy * sy
            denom = np.sqrt(np.maximum(var_x, 0.0) * np.maximum(var_y, 0.0))
            corr = cov / denom
        corr[(denom <= 0.0) | (n < 2)] = np.nan
        np.clip(corr, -1.0, 1.0, out=corr)
        diag_ok = np.diag(n) >= 2
        for i in np.flatnonzero(diag_ok):
            corr[i, i] = 1.0
        return corr, self.n.copy()


def masked_correlation_matrix(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise-deletion Pearson matrix plus complete-pair counts.

    Fully vectorized (four matrix products) — the estimator of choice for
    wide tables with scattered missing values.
    """
    return PairwiseMoments.from_matrix(columns).correlations()


def correlation_matrix(columns: np.ndarray, method: str = "pearson") -> np.ndarray:
    """Full correlation matrix of a 2-d array (columns are variables).

    Uses pairwise-complete observations.  The fast path (no NaNs) is one
    matrix product; with missing data it falls back to per-pair
    computation, which is what the dependency layer needs for real
    exploration tables.

    Args:
        columns: shape ``(n_rows, n_cols)`` float array.
        method: ``"pearson"`` or ``"spearman"``.

    Returns:
        ``(n_cols, n_cols)`` symmetric matrix with unit diagonal; entries
        are NaN where a pair has fewer than two complete rows or a
        constant column.
    """
    mat = np.asarray(columns, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("columns must be a 2-d array (rows x columns)")
    if method == "spearman":
        mat = rankdata_matrix(mat)
    elif method != "pearson":
        raise ValueError(f"unknown correlation method {method!r}")
    n, m = mat.shape
    corr = np.full((m, m), np.nan)
    np.fill_diagonal(corr, 1.0)
    if n < 2 or m == 0:
        return corr
    if not np.isnan(mat).any():
        # Fast path: no missing values, one centered matrix product.
        centered = mat - mat.mean(axis=0)
        cov = centered.T @ centered
        diag = np.sqrt(np.diag(cov))
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = cov / np.outer(diag, diag)
        corr[~np.isfinite(corr)] = np.nan
        np.clip(corr, -1.0, 1.0, out=corr)
    else:
        # Missing values: the four-GEMM pairwise-complete estimator covers
        # every pair at once — no per-pair Python loop over NaN columns.
        corr, _ = masked_correlation_matrix(mat)
    np.fill_diagonal(corr, 1.0)
    return corr
