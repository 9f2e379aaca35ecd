"""Configuration for the Ziggy pipeline.

Every knob the paper exposes is here: the view dimension cap ``D``
(Section 2.1), the tightness threshold ``MIN_tight`` (Eq. 3), the
user-defined component weights (Section 2.2: "The weights in the final
sum are defined by the user"), the dependency measure ``S`` (Eq. 2), the
p-value aggregation scheme (Section 3: "it retains the lowest value, or
... Bonferroni correction") and the search strategy (clustering vs clique
search, Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError

#: Recognized dependency measures for view tightness.
DEPENDENCY_METHODS = ("pearson", "spearman", "nmi")

#: Recognized candidate-generation strategies.
SEARCH_STRATEGIES = ("linkage", "clique")

#: Recognized component-normalization schemes.
NORMALIZATIONS = ("robust_z", "rank", "none")

#: Recognized p-value aggregation schemes.
AGGREGATIONS = ("min", "bonferroni", "holm", "fisher")

#: Recognized multiple-testing scopes.
MULTIPLICITY_SCOPES = ("per_view", "table_wide")

#: Recognized view scoring modes (how component scores combine).
SCORE_MODES = ("mean", "sum")


@dataclass(frozen=True)
class ZiggyConfig:
    """All tunables of the characterization pipeline.

    Attributes:
        max_view_dim: ``D`` — the dimension cap per view.  The paper uses
            purposely low-dimensional views so users can plot them; 2 is
            the default (scatter-plot-able).
        min_tightness: ``MIN_tight`` — minimum pairwise dependency within
            a view, in [0, 1].
        max_views: number of disjoint views to return.
        weights: per-component weights for the Zig-Dissimilarity; missing
            components default to 1.0, a weight of 0 disables a component.
        dependency_method: the measure ``S`` ("pearson", "spearman",
            "nmi" — absolute correlation or normalized mutual information).
        search_strategy: "linkage" (complete-linkage clustering, the
            paper's implementation) or "clique" (maximal cliques on the
            dependency graph, the alternative the paper mentions).
        normalization: how raw component magnitudes are made comparable
            ("robust_z" median/MAD, "rank" percentile, "none").
        aggregation: p-value combination across a view's components
            ("min", "bonferroni", "holm", "fisher").
        multiplicity: scope of the multiple-testing control.
            "per_view" (the paper's scheme) corrects only across one
            view's components, so with C candidate views about
            ``alpha * C`` spurious views still pass on pure-noise data;
            "table_wide" additionally Bonferroni-corrects the aggregated
            view p-value by the number of scored candidates, bounding
            the *per-query* false-view count by alpha (extension,
            measured in the EXT-FPR benchmark).
        alpha: significance level for the spurious-view filter.
        significance_filter: drop views whose aggregated p exceeds
            ``alpha`` (the paper's robustness check); when False the
            p-values are still reported but nothing is dropped.
        include_categorical: include categorical columns (and their
            components) in the search.
        excluded_columns: columns never characterized (ids, the column
            the user queried on, ...).
        exclude_predicate_columns: drop the columns mentioned in the
            WHERE clause from the search (default True — a selection on
            crime rate trivially differs on crime rate; the interesting
            views are elsewhere, as in Fig. 1).
        min_group_size: minimum rows required in both the selection and
            the complement.
        correlation_components: compute pairwise (2-d) components; can be
            disabled to measure their cost (they "add marginal accuracy
            gains ... at the cost of significant processing times").
        score_mode: combine a view's normalized component scores by
            weighted "mean" or "sum".
        mi_bins: bins per axis for the NMI dependency estimator.
        explanation_components: how many top components each explanation
            verbalizes.
        sample_rows: when set and the table is larger, preparation runs
            on a stratified row sample of this size (selection and
            complement sampled proportionally, deterministic seed) — the
            BlinkDB-style speed/accuracy trade-off the paper's
            introduction cites.  None (default) = exact.
        sketch_margin: the decisiveness bound for sketch answers — the
            largest acceptable half-width of a sketched mean in
            standard-deviation units (``1.96 / sqrt(k)`` for ``k``
            sampled values).  Preparation answers component scoring
            from a table's sketch (reservoir sample + streaming moments)
            only when the statistics cache holds one for the table and
            both groups' samples reach this margin; everything else
            falls back to the exact scan.  Tables no larger than the
            sketch capacity are always exact (the sketch covers every
            row there, so there is nothing to approximate).
        random_seed: seed for any subsampled estimator (Cliff's delta,
            row sampling).
    """

    max_view_dim: int = 2
    min_tightness: float = 0.35
    max_views: int = 8
    weights: dict[str, float] = field(default_factory=dict)
    dependency_method: str = "pearson"
    search_strategy: str = "linkage"
    normalization: str = "robust_z"
    aggregation: str = "bonferroni"
    multiplicity: str = "per_view"
    alpha: float = 0.05
    significance_filter: bool = True
    include_categorical: bool = True
    excluded_columns: tuple[str, ...] = ()
    exclude_predicate_columns: bool = True
    min_group_size: int = 8
    correlation_components: bool = True
    score_mode: str = "mean"
    mi_bins: int = 8
    explanation_components: int = 3
    sample_rows: int | None = None
    sketch_margin: float = 0.1
    random_seed: int = 7

    def __post_init__(self):
        if self.max_view_dim < 1:
            raise ConfigError(f"max_view_dim must be >= 1, got {self.max_view_dim}")
        if not 0.0 <= self.min_tightness <= 1.0:
            raise ConfigError(
                f"min_tightness must be in [0, 1], got {self.min_tightness}")
        if self.max_views < 1:
            raise ConfigError(f"max_views must be >= 1, got {self.max_views}")
        if self.dependency_method not in DEPENDENCY_METHODS:
            raise ConfigError(
                f"dependency_method must be one of {DEPENDENCY_METHODS}, "
                f"got {self.dependency_method!r}")
        if self.search_strategy not in SEARCH_STRATEGIES:
            raise ConfigError(
                f"search_strategy must be one of {SEARCH_STRATEGIES}, "
                f"got {self.search_strategy!r}")
        if self.normalization not in NORMALIZATIONS:
            raise ConfigError(
                f"normalization must be one of {NORMALIZATIONS}, "
                f"got {self.normalization!r}")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(
                f"aggregation must be one of {AGGREGATIONS}, "
                f"got {self.aggregation!r}")
        if self.multiplicity not in MULTIPLICITY_SCOPES:
            raise ConfigError(
                f"multiplicity must be one of {MULTIPLICITY_SCOPES}, "
                f"got {self.multiplicity!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.min_group_size < 2:
            raise ConfigError(
                f"min_group_size must be >= 2, got {self.min_group_size}")
        if self.score_mode not in SCORE_MODES:
            raise ConfigError(
                f"score_mode must be one of {SCORE_MODES}, got {self.score_mode!r}")
        if self.mi_bins < 2:
            raise ConfigError(f"mi_bins must be >= 2, got {self.mi_bins}")
        if self.explanation_components < 1:
            raise ConfigError("explanation_components must be >= 1")
        if not 0.0 < self.sketch_margin <= 1.0:
            raise ConfigError(
                f"sketch_margin must be in (0, 1], got {self.sketch_margin}")
        if self.sample_rows is not None and \
                self.sample_rows < 4 * self.min_group_size:
            raise ConfigError(
                f"sample_rows must be at least 4 * min_group_size "
                f"(= {4 * self.min_group_size}), got {self.sample_rows}")
        for name, w in self.weights.items():
            if w < 0:
                raise ConfigError(
                    f"weight for component {name!r} must be >= 0, got {w}")

    def weight_for(self, component_name: str) -> float:
        """The user's weight for a component (default 1.0)."""
        return float(self.weights.get(component_name, 1.0))

    def with_overrides(self, **kwargs) -> "ZiggyConfig":
        """A copy of this config with fields replaced (validated)."""
        return replace(self, **kwargs)
