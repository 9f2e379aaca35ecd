"""Sketch-tier statistics: cheap per-table summaries built once.

The preparation stage is "often the most time consuming step" (Section 3
of the paper), and every statistic in the exact tier is linear in rows.
This module provides the *sketch tier* of
:class:`~repro.core.stats_cache.StatsCache`: small per-column summaries
built in one pass at table registration, from which per-query component
scoring can be answered in time proportional to the **sketch size**, not
the table size.

Per table the sketch holds exactly what queries read:

* a deterministic uniform **reservoir sample** of row indices, shared by
  every column so sampled rows stay aligned (pairwise statistics need
  row-consistent samples), and every numeric column's values at those
  rows as one row-aligned **sample matrix**, so a query's inside and
  outside groups are one masked pass over it;
* exact one-pass **streaming moments** per numeric column (these make
  whole-table summaries free at query time);
* the **pair moments of the whole sample**, so a query's outside-group
  correlations are a subtraction from them, as on the exact tier.

Everything here is deterministic given ``(n_rows, seed)`` and picklable,
so sketches ride the statistics cache's ``snapshot()`` / ``merge_from`` /
pickle paths unchanged — shard warm-handoff and the persistence snapshot
store carry them for free.

Error-bound convention: the half-width of a mean estimate from ``k``
sampled values is ``z * sd / sqrt(k)``; in standard-deviation units that
is ``z / sqrt(k)`` (:func:`mean_margin`).  The cache inverts this
(:func:`required_sample`) to decide whether a sketch answer is decisive
or the exact tier must run.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.stats.correlation import PairwiseMoments
from repro.stats.descriptive import SummaryStats, summarize

#: Default reservoir capacity: tables at or under this many rows are
#: sampled *completely*, which makes sketch answers bit-exact there.
DEFAULT_SKETCH_CAPACITY = 4096

#: Default deterministic seed for the shared row reservoir.
DEFAULT_SKETCH_SEED = 2016

#: Normal critical value backing the default error bounds (~95%).
Z_95 = 1.96


def mean_margin(k: int, z: float = Z_95) -> float:
    """Half-width of a mean estimate from ``k`` samples, in SD units."""
    if k <= 0:
        return float("inf")
    return z / math.sqrt(k)


def required_sample(margin: float, z: float = Z_95) -> int:
    """Smallest sample size whose :func:`mean_margin` is within ``margin``."""
    if margin <= 0:
        return 1 << 62  # unobtainable: forces the exact tier
    return int(math.ceil((z / margin) ** 2))


@dataclass(frozen=True)
class ColumnSketch:
    """The sketch of one numeric column.

    ``moments`` are **exact** (one streaming pass over the full column);
    :attr:`sample` is the column's values at the table's shared
    reservoir rows, in row order: column ``position`` of the table
    sketch's sample matrix, which ``matrix`` references (so a pickle of
    the table sketch holds the matrix once).
    """

    name: str
    moments: SummaryStats
    position: int
    matrix: np.ndarray = field(repr=False, compare=False)

    @property
    def sample(self) -> np.ndarray:
        """The sampled values, a view of the sample matrix."""
        return self.matrix[:, self.position]


def sample_indices(n_rows: int, capacity: int,
                   seed: int = DEFAULT_SKETCH_SEED) -> np.ndarray:
    """Deterministic uniform sample of row indices, sorted ascending.

    Tables with at most ``capacity`` rows are covered completely — the
    degenerate-but-important case that makes the sketch tier exact on
    small tables.
    """
    if n_rows <= capacity:
        return np.arange(n_rows, dtype=np.int64)
    rng = np.random.default_rng([int(seed), int(n_rows)])
    idx = rng.choice(n_rows, size=int(capacity), replace=False)
    return np.sort(idx.astype(np.int64))


@dataclass(frozen=True)
class TableSketch:
    """The sketch tier for one table: shared reservoir + per-column sketches.

    Keyed by the table's content fingerprint inside the statistics
    cache; the sketch itself never references the table.

    Attributes:
        samples: the reservoir, ``sample_size x numeric columns`` in
            row order: every numeric column's values at ``row_indices``,
            row-aligned across columns.  It is the only copy; each
            :class:`ColumnSketch` reads its column as a view.
        center: per column of ``samples``, its exact mean (0 when it has
            none), subtracted from the samples before their pair moments
            are taken.  Correlations do not depend on the shift, and it
            keeps the moment formulas well conditioned for a column
            whose mean dwarfs its spread.
        sample_moments: pair moments of the whole centred ``samples``
            matrix, from which the sketch tier derives a query's
            outside-group moments as ``sample_moments - inside``.
            ``None`` when the reservoir covers every row, where the
            sketch never answers.
    """

    fingerprint: str
    n_rows: int
    capacity: int
    seed: int
    row_indices: np.ndarray
    samples: np.ndarray
    center: np.ndarray
    sample_moments: PairwiseMoments | None = None
    columns: dict[str, ColumnSketch] = field(default_factory=dict)

    @property
    def covers_all(self) -> bool:
        """Whether the reservoir holds every row (sketch == exact)."""
        return self.row_indices.size >= self.n_rows

    @property
    def sample_size(self) -> int:
        """Number of sampled rows."""
        return int(self.row_indices.size)

    def sample_mask(self, mask: np.ndarray) -> np.ndarray:
        """Restrict a full-length row mask to the sampled rows."""
        mask = np.asarray(mask)
        if mask.shape != (self.n_rows,):
            raise ValueError(
                f"mask length {mask.shape} does not match sketched table "
                f"({self.n_rows} rows)")
        return mask[self.row_indices]

    @classmethod
    def build(cls, table, capacity: int = DEFAULT_SKETCH_CAPACITY,
              seed: int = DEFAULT_SKETCH_SEED) -> "TableSketch":
        """One pass over each numeric column of a table.

        Build cost is O(rows x numeric columns) — paid once per table at
        registration, amortized over every subsequent query.
        """
        rows = sample_indices(table.n_rows, capacity, seed)
        names = table.numeric_column_names()
        samples = np.empty((rows.size, len(names)), dtype=np.float64)
        moments = []
        for j, name in enumerate(names):
            values = table.column(name).numeric_values()
            moments.append(summarize(values))
            samples[:, j] = values[rows]
        columns = {name: ColumnSketch(name=name, moments=summary,
                                      position=j, matrix=samples)
                   for j, (name, summary) in enumerate(zip(names, moments))}
        center = np.array([m.mean for m in moments], dtype=np.float64)
        center[~np.isfinite(center)] = 0.0
        sample_moments = (None if rows.size >= table.n_rows
                          else PairwiseMoments.from_matrix(samples - center))
        return cls(fingerprint=table.fingerprint(), n_rows=table.n_rows,
                   capacity=int(capacity), seed=int(seed),
                   row_indices=rows, samples=samples, center=center,
                   sample_moments=sample_moments, columns=columns)

    def positions(self, names: Sequence[str]) -> list[int]:
        """Columns of :attr:`samples` holding the named columns."""
        return [self.columns[n].position for n in names]
