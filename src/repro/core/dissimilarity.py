"""The Zig-Dissimilarity: normalize Zig-Components and aggregate them.

Section 2.2: "To aggregate the Zig-Components, we normalize them and
compute a weighted sum.  The normalization enforces that the indicators
have comparable scale.  The weights in the final sum are defined by the
user."

Normalization operates *per component type*, against the empirical
distribution of that component's magnitude across everything it was
evaluated on (every column for unary components, every tight pair for
pairwise ones).  Three schemes are provided:

* ``robust_z`` (default): ``max(0, (|raw| - median) / MAD)`` — keeps
  magnitude information, robust to the heavy-tailed score distributions
  wide tables produce;
* ``rank``: percentile of ``|raw|`` within the population, in [0, 1];
* ``none``: ``|raw|`` unchanged (useful for debugging and for components
  that are already on a common scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.components.base import ComponentOutcome
from repro.core.config import ZiggyConfig
from repro.core.views import ComponentScore, View
from repro.errors import ConfigError
from repro.stats.robust import divides, finite_spread, iqr as _iqr, mad as _mad


@dataclass(frozen=True)
class Normalizer:
    """Maps a raw component magnitude onto the common score scale."""

    method: str
    center: float = 0.0
    scale: float = 1.0
    population: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def normalize(self, raw: float) -> float:
        """Normalized magnitude (always >= 0)."""
        magnitude = abs(raw)
        if self.method == "none":
            return magnitude
        if self.method == "rank":
            if self.population.size == 0:
                return 0.0
            below = float((self.population <= magnitude + 1e-15).sum())
            return below / self.population.size
        # robust_z
        z = (magnitude - self.center) / self.scale
        return max(0.0, z)


def build_normalizer(raw_values: list[float], method: str) -> Normalizer:
    """Fit a :class:`Normalizer` on one component's raw magnitudes."""
    mags = np.abs(np.asarray([v for v in raw_values if v == v], dtype=np.float64))
    if method == "none":
        return Normalizer(method="none")
    if method == "rank":
        return Normalizer(method="rank", population=np.sort(mags))
    if method != "robust_z":
        raise ConfigError(f"unknown normalization {method!r}")
    if mags.size == 0:
        return Normalizer(method="robust_z", center=0.0, scale=1.0)
    center = float(np.median(mags))
    # The robust_zscores cascade: a scale that is zero, NaN or too small
    # to divide the population's finite spread falls through to the next.
    spread = finite_spread(mags, center)
    scale = _mad(mags)
    if not divides(scale, spread):
        scale = _iqr(mags) / 1.349 if mags.size >= 4 else 0.0
    if not divides(scale, spread):
        scale = float(np.std(mags)) if mags.size >= 2 else 0.0
    if not divides(scale, spread):
        # Entire population is (near-)identical: fall back to unit scale
        # so a genuinely larger newcomer still scores above zero.
        scale = max(center, 1.0)
    return Normalizer(method="robust_z", center=center, scale=scale)


@dataclass
class ComponentCatalog:
    """All evaluated component scores, indexed for view scoring.

    Attributes:
        unary: per-column component scores.
        pairwise: per-pair component scores, keyed by the sorted name
            pair.
        notes: human-readable diagnostics from the evaluation pass.
    """

    unary: dict[str, list[ComponentScore]] = field(default_factory=dict)
    pairwise: dict[tuple[str, str], list[ComponentScore]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def components_for_view(self, view: View) -> tuple[ComponentScore, ...]:
        """Every component score attached to the view's columns/pairs."""
        out: list[ComponentScore] = []
        for col in view.columns:
            out.extend(self.unary.get(col, ()))
        cols = view.columns
        for i in range(len(cols)):
            for j in range(i + 1, len(cols)):
                key = tuple(sorted((cols[i], cols[j])))
                out.extend(self.pairwise.get(key, ()))
        return tuple(out)

    def column_score(self, column: str) -> float:
        """Best weighted score of a single column (used for trimming
        oversized clusters)."""
        scores = [c.weighted for c in self.unary.get(column, ())]
        return max(scores) if scores else 0.0


def make_component_score(component_name: str, columns: tuple[str, ...],
                         outcome: ComponentOutcome, normalizer: Normalizer,
                         weight: float) -> ComponentScore:
    """Assemble the public :class:`ComponentScore` from a raw outcome."""
    return ComponentScore(
        component=component_name,
        columns=tuple(columns),
        raw=outcome.raw,
        normalized=normalizer.normalize(outcome.raw),
        weight=weight,
        test=outcome.test,
        direction=outcome.direction,
        detail=dict(outcome.detail),
    )


def zig_dissimilarity(components: tuple[ComponentScore, ...],
                      config: ZiggyConfig) -> float:
    """Aggregate a view's component scores into the final view score.

    Weighted sum (Eq. 1's ``score``) — divided by the total weight when
    ``score_mode == "mean"`` so views of different dimension compete on
    per-indicator strength rather than on sheer component count.
    """
    total_weight = 0.0
    total = 0.0
    for comp in components:
        if comp.weight <= 0.0:
            continue
        total += comp.weighted
        total_weight += comp.weight
    if total_weight == 0.0:
        return 0.0
    if config.score_mode == "sum":
        return total
    return total / total_weight


def score_view(view: View, catalog: ComponentCatalog,
               config: ZiggyConfig) -> tuple[float, tuple[ComponentScore, ...]]:
    """Score one candidate view: (Zig-Dissimilarity, its components)."""
    components = catalog.components_for_view(view)
    return zig_dissimilarity(components, config), components
