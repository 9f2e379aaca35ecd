"""The dependency measure ``S`` and the pairwise dependency matrix.

Equation 2 defines view tightness as the minimum pairwise statistical
dependency among a view's columns, for a user-chosen measure ``S`` "such
as the correlation or the mutual information".  This module computes the
full ``M x M`` dependency matrix over the *whole* table (dependencies are
a property of the data, not of the query, so the statistics cache shares
the matrix across queries).

Supported measures, all mapped to [0, 1]:

* numeric-numeric: ``|Pearson|``, ``|Spearman|`` or normalized mutual
  information;
* categorical-categorical: Cramér's V;
* numeric-categorical: the correlation ratio η (square root of the
  between-group variance fraction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.engine.column import CategoricalColumn
from repro.engine.table import Table
from repro.errors import InsufficientDataError, SearchError
from repro.stats.correlation import masked_correlation_matrix, rankdata_matrix
from repro.stats.entropy import (
    binned_mutual_information_matrix,
    normalized_mutual_information,
)


@dataclass(frozen=True)
class DependencyMatrix:
    """Symmetric pairwise dependency in [0, 1] over named columns."""

    names: tuple[str, ...]
    matrix: np.ndarray
    method: str

    def __post_init__(self):
        m = self.matrix
        if m.shape != (len(self.names), len(self.names)):
            raise SearchError("dependency matrix shape does not match names")

    def index_of(self, name: str) -> int:
        """Position of a column in the matrix."""
        try:
            return self.names.index(name)
        except ValueError:
            raise SearchError(f"column {name!r} not in dependency matrix") from None

    def restrict(self, columns: tuple[str, ...]) -> "DependencyMatrix":
        """The matrix over a subset of the columns, in ``columns`` order.

        Every measure here is pairwise, so the slice equals the matrix
        computed over ``columns`` alone.
        """
        position = {name: i for i, name in enumerate(self.names)}
        try:
            index = [position[c] for c in columns]
        except KeyError as exc:
            raise SearchError(f"column {exc.args[0]!r} not in dependency "
                              "matrix") from None
        return DependencyMatrix(names=tuple(columns),
                                matrix=self.matrix[np.ix_(index, index)],
                                method=self.method)

    def dependency(self, a: str, b: str) -> float:
        """S(a, b); 1.0 when ``a == b``."""
        if a == b:
            return 1.0
        value = self.matrix[self.index_of(a), self.index_of(b)]
        return float(value) if value == value else 0.0

    def tightness(self, columns: tuple[str, ...]) -> float:
        """Eq. 2: minimum pairwise dependency inside the column set.

        Single-column views have tightness 1.0 by convention (there is
        nothing to be incoherent with).
        """
        if len(columns) < 2:
            return 1.0
        idx = [self.index_of(c) for c in columns]
        sub = self.matrix[np.ix_(idx, idx)]
        off = sub[~np.eye(len(idx), dtype=bool)]
        cleaned = np.where(np.isnan(off), 0.0, off)
        return float(cleaned.min())

    def distance_matrix(self) -> np.ndarray:
        """``1 - S`` with NaNs treated as fully independent (distance 1)."""
        d = 1.0 - np.where(np.isnan(self.matrix), 0.0, self.matrix)
        np.fill_diagonal(d, 0.0)
        return np.clip(d, 0.0, 1.0)


def correlation_ratio(codes: np.ndarray, values: np.ndarray) -> float:
    """η: dependency of a numeric variable on a categorical one, in [0,1].

    ``sqrt(SS_between / SS_total)`` over non-missing pairs; 0 when the
    numeric variance is zero.
    """
    codes = np.asarray(codes)
    values = np.asarray(values, dtype=np.float64)
    keep = (codes >= 0) & ~np.isnan(values)
    codes, values = codes[keep], values[keep]
    if values.size < 2:
        raise InsufficientDataError("correlation_ratio", needed=2,
                                    got=int(values.size))
    grand = values.mean()
    ss_total = float(((values - grand) ** 2).sum())
    if ss_total <= 0.0:
        return 0.0
    # Group sizes and sums in two bincounts — no per-group Python loop.
    counts = np.bincount(codes)
    sums = np.bincount(codes, weights=values)
    present = counts > 0
    means = sums[present] / counts[present]
    ss_between = float((counts[present] * (means - grand) ** 2).sum())
    return float(math.sqrt(min(1.0, max(0.0, ss_between / ss_total))))


def cramers_v(codes_a: np.ndarray, codes_b: np.ndarray,
              k_a: int, k_b: int) -> float:
    """Cramér's V between two dictionary-encoded categorical columns."""
    keep = (codes_a >= 0) & (codes_b >= 0)
    a, b = codes_a[keep], codes_b[keep]
    n = a.size
    if n < 2 or k_a < 1 or k_b < 1:
        return 0.0
    table = np.bincount(a * k_b + b, minlength=k_a * k_b).reshape(k_a, k_b)
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    if table.shape[0] < 2 or table.shape[1] < 2:
        return 0.0
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        chi2 = np.nansum((table - expected) ** 2 / expected)
    denom = n * (min(table.shape) - 1)
    if denom <= 0:
        return 0.0
    return float(math.sqrt(min(1.0, chi2 / denom)))


def compute_dependency_matrix(table: Table, columns: tuple[str, ...],
                              method: str = "pearson",
                              mi_bins: int = 8) -> DependencyMatrix:
    """Build the dependency matrix for the given columns of a table.

    Numeric-numeric dependencies use ``method``; mixed and categorical
    pairs always use η and Cramér's V respectively (correlation is not
    defined for them, whatever the configured method).
    """
    numeric = [c for c in columns if not isinstance(table.column(c), CategoricalColumn)]
    categorical = [c for c in columns if isinstance(table.column(c), CategoricalColumn)]
    m = len(columns)
    pos = {name: i for i, name in enumerate(columns)}
    out = np.zeros((m, m), dtype=np.float64)
    np.fill_diagonal(out, 1.0)

    # Numeric block.
    if len(numeric) >= 2:
        data = table.numeric_matrix(numeric)
        if method in ("pearson", "spearman"):
            if method == "spearman":
                # Rank per column (NaNs stay NaN), then pairwise-complete
                # Pearson on the ranks — the standard pairwise-deletion
                # Spearman estimator, fully vectorized.
                data = rankdata_matrix(data)
            corr, _ = masked_correlation_matrix(data)
            block = np.abs(corr)
        elif method == "nmi":
            # Per-column bin codes are computed once; each pair is then a
            # single bincount instead of two sorts — the matrix form of
            # the estimator replaces the O(k^2) Python pair loop.
            block = binned_mutual_information_matrix(data, bins=mi_bins)
        else:
            raise SearchError(f"unknown dependency method {method!r}")
        idx = [pos[c] for c in numeric]
        out[np.ix_(idx, idx)] = np.where(np.isnan(block), np.nan, block)
        np.fill_diagonal(out, 1.0)

    # Categorical block.
    for i, ca in enumerate(categorical):
        col_a = table.column(ca)
        for cb in categorical[i + 1:]:
            col_b = table.column(cb)
            v = cramers_v(col_a.codes, col_b.codes,
                          len(col_a.labels), len(col_b.labels))
            out[pos[ca], pos[cb]] = out[pos[cb], pos[ca]] = v

    # Mixed block.
    for ca in categorical:
        col_a = table.column(ca)
        for cn in numeric:
            values = table.column(cn).numeric_values()
            try:
                eta = correlation_ratio(col_a.codes, values)
            except InsufficientDataError:
                eta = float("nan")
            out[pos[ca], pos[cn]] = out[pos[cn], pos[ca]] = eta

    return DependencyMatrix(names=tuple(columns), matrix=out, method=method)


def categorical_nmi(codes_a: np.ndarray, codes_b: np.ndarray,
                    k_a: int, k_b: int) -> float:
    """Normalized MI between two categorical columns (alternative to V)."""
    keep = (codes_a >= 0) & (codes_b >= 0)
    a, b = codes_a[keep], codes_b[keep]
    if a.size == 0 or k_a < 1 or k_b < 1:
        return 0.0
    table = np.bincount(a * k_b + b, minlength=k_a * k_b).reshape(k_a, k_b)
    return normalized_mutual_information(table)
