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
from repro.errors import EmptySelectionError
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
        self._sample_memo: dict[tuple, tuple] = {}

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
        if (config.sample_rows is not None
                and selection.table.n_rows > config.sample_rows):
            selection = self._sampled_selection(selection, config)
            notes.append(f"preparation ran on a stratified sample of "
                         f"{selection.table.n_rows} rows "
                         f"({selection.n_inside} inside)")
        columns = self._active_columns(selection, config, notes)
        slices = self._build_column_slices(selection, columns, cache, config,
                                           notes)
        dependency = cache.dependency_matrix(
            selection.table, columns, config.dependency_method, config.mi_bins)
        pair_slices = self._build_pair_slices(
            selection, columns, slices, dependency, config, cache, notes)
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

    def _sampled_selection(self, selection: Selection,
                           config: ZiggyConfig) -> Selection:
        """Stratified row sample: both groups kept proportionally, each
        at least ``min_group_size`` rows.  The sampled base table is
        memoized per (table, budget, seed) so cross-query sharing keeps
        working on the sampled rows."""
        table = selection.table
        n = table.n_rows
        budget = int(config.sample_rows)  # validated non-None by caller
        frac = budget / n
        inside_idx = np.flatnonzero(selection.mask)
        outside_idx = np.flatnonzero(~selection.mask)
        rng = np.random.default_rng(config.random_seed)
        k_in = min(inside_idx.size,
                   max(int(round(inside_idx.size * frac)),
                       config.min_group_size))
        k_out = min(outside_idx.size,
                    max(budget - k_in, config.min_group_size))
        take_in = rng.choice(inside_idx, size=k_in, replace=False)
        take_out = rng.choice(outside_idx, size=k_out, replace=False)
        rows = np.sort(np.concatenate([take_in, take_out]))
        # Keyed by content fingerprint, not id(): object identity can be
        # recycled after a table is collected, and the memo must never
        # serve another table's sample.
        key = (table.fingerprint(), budget, config.random_seed,
               selection.fingerprint)
        cached = self._sample_memo.get(key)
        if cached is None:
            sampled_table = table.take(rows, name=f"{table.name}/sample")
            cached = (sampled_table, rows)
            self._sample_memo[key] = cached
        sampled_table, rows = cached
        sampled_mask = selection.mask[rows]
        return Selection(
            table=sampled_table,
            mask=sampled_mask,
            predicate=selection.predicate,
            fingerprint=f"{selection.fingerprint}/s{budget}",
        )

    @staticmethod
    def _check_group_sizes(selection: Selection, config: ZiggyConfig) -> None:
        n_in, n_out = selection.n_inside, selection.n_outside
        if n_in < config.min_group_size or n_out < config.min_group_size:
            raise EmptySelectionError(n_in, selection.table.n_rows)

    @staticmethod
    def _active_columns(selection: Selection, config: ZiggyConfig,
                        notes: list[str]) -> tuple[str, ...]:
        table = selection.table
        excluded = set(config.excluded_columns)
        if config.exclude_predicate_columns and selection.predicate is not None:
            predicate_cols = selection.predicate.referenced_columns()
            if predicate_cols:
                notes.append("excluded predicate columns: "
                             + ", ".join(sorted(predicate_cols)))
            excluded |= predicate_cols
        out: list[str] = []
        for col in table.columns:
            if col.name in excluded:
                continue
            if isinstance(col, CategoricalColumn) and not config.include_categorical:
                continue
            out.append(col.name)
        return tuple(out)

    def _build_column_slices(self, selection: Selection,
                             columns: tuple[str, ...],
                             cache: StatsCache,
                             config: ZiggyConfig,
                             notes: list[str]) -> dict[str, ColumnSlice]:
        table = selection.table
        mask = selection.mask
        sketched = 0
        numeric_total = 0
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
            numeric_total += 1
            answer = cache.sketch_column_answer(selection, name,
                                                config.sketch_margin)
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
                sketched += 1
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
        if sketched:
            notes.append(
                f"sketch tier answered {sketched}/{numeric_total} numeric "
                f"columns (margin {config.sketch_margin})")
        return slices

    def _build_pair_slices(self, selection: Selection,
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
            corr_in, n_in, corr_out, n_out = cache.group_correlations(
                selection, numeric)
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

        # Pass 1: raw outcomes.
        unary_outcomes: dict[str, list[tuple[str, object]]] = {}
        for component, _ in unary:
            rows: list[tuple[str, object]] = []
            for name, data in slices.items():
                if not component.applicable(data):
                    continue
                outcome = component.compute(data)
                if outcome is not None:
                    rows.append((name, outcome))
            unary_outcomes[component.name] = rows
        pair_outcomes: dict[str, list[tuple[tuple[str, str], object]]] = {}
        for component, _ in pairwise:
            rows2: list[tuple[tuple[str, str], object]] = []
            for key, data in pair_slices.items():
                if not component.applicable(data):
                    continue
                outcome = component.compute(data)
                if outcome is not None:
                    rows2.append((key, outcome))
            pair_outcomes[component.name] = rows2

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


def _profile_from_codes(col: CategoricalColumn, mask: np.ndarray) -> FrequencyProfile:
    """Frequency profile of a categorical column restricted to ``mask``."""
    codes = col.codes[mask]
    missing = int((codes < 0).sum())
    valid = codes[codes >= 0]
    counts = np.bincount(valid, minlength=len(col.labels)).astype(np.int64)
    return FrequencyProfile(categories=tuple(col.labels), counts=counts,
                            n_missing=missing)
