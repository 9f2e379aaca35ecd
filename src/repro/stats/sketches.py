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
  row-consistent samples), with each numeric column's values at those
  rows;
* exact one-pass **streaming moments** per numeric column (these make
  whole-table summaries free at query time).

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
from dataclasses import dataclass, field

import numpy as np

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
    ``sample`` holds the column's values at the table's shared reservoir
    rows, in row order.
    """

    name: str
    moments: SummaryStats
    sample: np.ndarray


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
    """

    fingerprint: str
    n_rows: int
    capacity: int
    seed: int
    row_indices: np.ndarray
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
        columns: dict[str, ColumnSketch] = {}
        for name in table.numeric_column_names():
            values = table.column(name).numeric_values()
            columns[name] = ColumnSketch(
                name=name,
                moments=summarize(values),
                sample=np.ascontiguousarray(values[rows]),
            )
        return cls(fingerprint=table.fingerprint(), n_rows=table.n_rows,
                   capacity=int(capacity), seed=int(seed),
                   row_indices=rows, columns=columns)

    def sample_matrix(self, names: tuple[str, ...]) -> np.ndarray:
        """Sampled rows x named columns, row-aligned across columns."""
        if not names:
            return np.empty((self.sample_size, 0), dtype=np.float64)
        return np.column_stack([self.columns[n].sample for n in names])
