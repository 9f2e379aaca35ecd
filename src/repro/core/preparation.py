"""Preparation stage: slices, dependency matrix, Zig-Component evaluation.

Figure 4's first stage: "Ziggy executes the user's query, loads the
results, and computes the Zig-Components associated to each column and
each couple of columns.  ...  The output of these operations is a table,
which describes the Zig-Components associated to each variable and each
pair of variables."  That output table is :class:`ComponentCatalog`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.components.base import (
    ColumnSlice,
    ComponentOutcome,
    ComponentRegistry,
    DEFAULT_COMPONENTS,
    PairSlice,
    ZigComponent,
    default_registry,
)
from repro.core.config import ZiggyConfig
from repro.core.dependency import DependencyMatrix
from repro.core.dissimilarity import (
    ComponentCatalog,
    build_normalizer,
    make_component_score,
)
from repro.core.stats_cache import StatsCache
from repro.engine.column import CategoricalColumn
from repro.engine.database import Selection
from repro.engine.table import Table
from repro.errors import ComponentError, EmptySelectionError
from repro.stats.histogram import FrequencyProfile


@dataclass
class PreparedData:
    """Everything the view-search stage needs.

    Attributes:
        selection: the characterized selection.
        active_columns: columns that entered the analysis.
        column_slices: per-column inside/outside data and summaries.
        pair_slices: per-pair slices for tight numeric pairs.
        dependency: the whole-table dependency matrix over
            ``active_columns``.
        catalog: normalized, weighted component scores.
        notes: diagnostics (skipped columns, fallbacks taken).
    """

    selection: Selection
    active_columns: tuple[str, ...]
    column_slices: dict[str, ColumnSlice]
    pair_slices: dict[tuple[str, str], PairSlice]
    dependency: DependencyMatrix
    catalog: ComponentCatalog
    notes: list[str] = field(default_factory=list)


def active_components(registry: ComponentRegistry,
                      config: ZiggyConfig) -> list[tuple[ZigComponent, float]]:
    """The components this run evaluates, with their weights.

    A component runs when it is in the default set (unless weighted to
    zero) or when the user gave it a positive weight explicitly — this is
    how optional components like ``dominance`` are switched on.
    """
    chosen: list[tuple[ZigComponent, float]] = []
    for name in registry.names():
        weight = config.weight_for(name)
        in_default = name in DEFAULT_COMPONENTS
        explicitly_on = name in config.weights and config.weights[name] > 0
        if (in_default and weight > 0) or explicitly_on:
            chosen.append((registry.get(name), weight))
    return chosen


class PreparationEngine:
    """Runs the preparation stage for one selection.

    Args:
        registry: component registry (defaults to the paper's set).
        cache: a shared :class:`StatsCache` for cross-query computation
            sharing; when None an ephemeral cache is created per call
            (identical code path, no sharing).
    """

    def __init__(self, registry: ComponentRegistry | None = None,
                 cache: StatsCache | None = None):
        self.registry = registry if registry is not None else default_registry()
        self.cache = cache

    # -- public entry ------------------------------------------------------------

    def prepare(self, selection: Selection, config: ZiggyConfig,
                cache: StatsCache | None = None,
                registry: ComponentRegistry | None = None) -> PreparedData:
        """Build slices, dependency matrix and the component catalog.

        ``cache`` and ``registry`` override the engine's own for this
        call (the plan/execute pipeline passes the plan's through here);
        with no cache anywhere an ephemeral one keeps the code path
        identical without any sharing.
        """
        if cache is None:
            cache = self.cache if self.cache is not None else StatsCache()
        if registry is None:
            registry = self.registry
        notes: list[str] = []
        self._check_group_sizes(selection, config)
        pool = self._candidate_columns(selection.table, config)
        columns = self._active_columns(selection, config, pool, notes)
        slices = self._build_column_slices(selection, columns, cache, config,
                                           notes)
        # Table-level statistics cover the whole pool, so every query
        # under this configuration shares one computation of them.
        dependency = cache.dependency_matrix(
            selection.table, pool, config.dependency_method,
            config.mi_bins).restrict(columns)
        pair_slices = self._build_pair_slices(
            selection, pool, columns, slices, dependency, config, cache,
            notes)
        catalog = self._evaluate_components(slices, pair_slices, config,
                                            notes, registry)
        return PreparedData(
            selection=selection,
            active_columns=columns,
            column_slices=slices,
            pair_slices=pair_slices,
            dependency=dependency,
            catalog=catalog,
            notes=notes,
        )

    # -- steps ----------------------------------------------------------------------

    @staticmethod
    def _check_group_sizes(selection: Selection, config: ZiggyConfig) -> None:
        n_in, n_out = selection.n_inside, selection.n_outside
        if n_in < config.min_group_size or n_out < config.min_group_size:
            raise EmptySelectionError(n_in, selection.table.n_rows)

    @staticmethod
    def _candidate_columns(table: Table,
                           config: ZiggyConfig) -> tuple[str, ...]:
        """Every column this configuration can make active, whatever the
        predicate: the table's columns minus ``excluded_columns``, and
        minus the categoricals when they are switched off."""
        excluded = set(config.excluded_columns)
        return tuple(
            col.name for col in table.columns
            if col.name not in excluded
            and (config.include_categorical
                 or not isinstance(col, CategoricalColumn)))

    @staticmethod
    def _active_columns(selection: Selection, config: ZiggyConfig,
                        pool: tuple[str, ...],
                        notes: list[str]) -> tuple[str, ...]:
        """The candidate columns ``pool`` minus the predicate's own
        columns (when the configuration excludes them)."""
        if not (config.exclude_predicate_columns
                and selection.predicate is not None):
            return pool
        predicate_cols = selection.predicate.referenced_columns()
        if predicate_cols:
            notes.append("excluded predicate columns: "
                         + ", ".join(sorted(predicate_cols)))
        return tuple(c for c in pool if c not in predicate_cols)

    def _build_column_slices(self, selection: Selection,
                             columns: tuple[str, ...],
                             cache: StatsCache,
                             config: ZiggyConfig,
                             notes: list[str]) -> dict[str, ColumnSlice]:
        table = selection.table
        mask = selection.mask
        numeric = [name for name in columns
                   if not isinstance(table.column(name), CategoricalColumn)]
        answers = cache.sketch_column_answer(selection, numeric,
                                             config.sketch_margin) or {}
        slices: dict[str, ColumnSlice] = {}
        for name in columns:
            col = table.column(name)
            if isinstance(col, CategoricalColumn):
                slices[name] = ColumnSlice(
                    name=name,
                    is_categorical=True,
                    inside=col.codes[mask],
                    outside=col.codes[~mask],
                    inside_profile=_profile_from_codes(col, mask),
                    outside_profile=_profile_from_codes(col, ~mask),
                )
                continue
            answer = answers.get(name)
            if answer is not None:
                inside_stats, outside_stats, sample_in, sample_out = answer
                # Raw arrays are the *sampled* rows: raw-value tests
                # (Levene, Mann-Whitney) run on the sample — honest, and
                # conservative at the sample size.
                slices[name] = ColumnSlice(
                    name=name,
                    is_categorical=False,
                    inside=sample_in,
                    outside=sample_out,
                    inside_stats=inside_stats,
                    outside_stats=outside_stats,
                )
                continue
            values = col.numeric_values()
            slices[name] = ColumnSlice(
                name=name,
                is_categorical=False,
                inside=values[mask],
                outside=values[~mask],
                inside_stats=cache.inside_column_stats(selection, name),
                outside_stats=cache.outside_column_stats(selection, name),
            )
        if answers:
            notes.append(
                f"sketch tier answered {len(answers)}/{len(numeric)} numeric "
                f"columns (margin {config.sketch_margin})")
        return slices

    def _build_pair_slices(self, selection: Selection,
                           pool: tuple[str, ...],
                           columns: tuple[str, ...],
                           slices: dict[str, ColumnSlice],
                           dependency: DependencyMatrix,
                           config: ZiggyConfig,
                           cache: StatsCache,
                           notes: list[str]) -> dict[tuple[str, str], PairSlice]:
        if not config.correlation_components:
            notes.append("pairwise components disabled by configuration")
            return {}
        numeric = tuple(c for c in columns if not slices[c].is_categorical)
        if len(numeric) < 2:
            return {}
        answer = cache.sketch_group_correlations(selection, numeric,
                                                 config.sketch_margin)
        if answer is not None:
            corr_in, n_in, corr_out, n_out = answer
            notes.append("sketch tier answered pairwise correlations")
        else:
            # Moments over the pool's numeric columns: one global entry
            # per table and one inside entry per predicate, sliced here.
            table = selection.table
            pooled = tuple(c for c in pool if not isinstance(
                table.column(c), CategoricalColumn))
            position = {name: i for i, name in enumerate(pooled)}
            grid = np.ix_([position[c] for c in numeric],
                          [position[c] for c in numeric])
            corr_in, n_in, corr_out, n_out = (
                m[grid] for m in cache.group_correlations(selection, pooled))
        # Vectorized threshold scan over the dependency submatrix —
        # wide tables make a per-pair Python loop the bottleneck.
        dep_index = [dependency.index_of(c) for c in numeric]
        sub = dependency.matrix[np.ix_(dep_index, dep_index)]
        tight = np.triu(np.where(np.isnan(sub), -1.0, sub)
                        >= config.min_tightness, k=1)
        pairs: dict[tuple[str, str], PairSlice] = {}
        for ia, ib in np.argwhere(tight):
            a, b = numeric[ia], numeric[ib]
            key = (a, b) if a <= b else (b, a)
            pairs[key] = PairSlice(
                x=slices[a],
                y=slices[b],
                r_inside=float(corr_in[ia, ib]),
                r_outside=float(corr_out[ia, ib]),
                n_inside=int(n_in[ia, ib]),
                n_outside=int(n_out[ia, ib]),
            )
        return pairs

    def _evaluate_components(self, slices: dict[str, ColumnSlice],
                             pair_slices: dict[tuple[str, str], PairSlice],
                             config: ZiggyConfig,
                             notes: list[str],
                             registry: ComponentRegistry | None = None
                             ) -> ComponentCatalog:
        chosen = active_components(registry if registry is not None
                                   else self.registry, config)
        unary = [(c, w) for c, w in chosen if c.arity == 1]
        pairwise = [(c, w) for c, w in chosen if c.arity == 2]

        # Pass 1: raw outcomes, one batch per component.
        unary_outcomes = {component.name: _score(component, slices)
                          for component, _ in unary}
        pair_outcomes = {component.name: _score(component, pair_slices)
                         for component, _ in pairwise}

        # Pass 2: fit normalizers on each component's population and emit
        # the final scores (the paper's "normalize, then weighted sum").
        weights = {c.name: w for c, w in chosen}
        catalog = ComponentCatalog()
        for comp_name, rows in unary_outcomes.items():
            normalizer = build_normalizer([o.raw for _, o in rows],
                                          config.normalization)
            for col, outcome in rows:
                score = make_component_score(comp_name, (col,), outcome,
                                             normalizer, weights[comp_name])
                catalog.unary.setdefault(col, []).append(score)
        for comp_name, rows2 in pair_outcomes.items():
            normalizer = build_normalizer([o.raw for _, o in rows2],
                                          config.normalization)
            for key, outcome in rows2:
                score = make_component_score(comp_name, key, outcome,
                                             normalizer, weights[comp_name])
                catalog.pairwise.setdefault(key, []).append(score)
        evaluated = sum(len(r) for r in unary_outcomes.values()) + sum(
            len(r) for r in pair_outcomes.values())
        catalog.notes.append(f"evaluated {evaluated} component instances")
        notes.extend(catalog.notes)
        return catalog


def _score(component: ZigComponent,
           slices: dict) -> list[tuple[object, ComponentOutcome]]:
    """``(key, outcome)`` for every slice the component applies to and
    scores, from one :meth:`~ZigComponent.compute_batch` call."""
    keys = [key for key, data in slices.items() if component.applicable(data)]
    outcomes = component.compute_batch([slices[key] for key in keys])
    if len(outcomes) != len(keys):
        raise ComponentError(
            f"component {component.name!r} returned {len(outcomes)} "
            f"outcomes for {len(keys)} slices")
    return [(key, outcome) for key, outcome in zip(keys, outcomes)
            if outcome is not None]


def _profile_from_codes(col: CategoricalColumn, mask: np.ndarray) -> FrequencyProfile:
    """Frequency profile of a categorical column restricted to ``mask``."""
    codes = col.codes[mask]
    missing = int((codes < 0).sum())
    valid = codes[codes >= 0]
    counts = np.bincount(valid, minlength=len(col.labels)).astype(np.int64)
    return FrequencyProfile(categories=tuple(col.labels), counts=counts,
                            n_missing=missing)
