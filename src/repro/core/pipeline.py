"""The Ziggy pipeline facade (Figure 4), split into plan and execute.

``Ziggy`` wires the three stages — preparation, view search,
post-processing — around a shared statistics cache, and exposes the
library-style API the paper's conclusion promises ("we intend to
distribute our tuple description engine as a library, to be included
into external exploration systems")::

    from repro import Ziggy, ZiggyConfig
    ziggy = Ziggy(table)
    result = ziggy.characterize("violent_crime_rate > 0.8")
    for view in result.views:
        print(view.explanation)

Under the facade the pipeline is an explicit plan/execute pair:
:class:`CharacterizationPlan` captures everything a run needs (selection,
configuration, component registry, statistics cache) before any work
happens, and :class:`PlanExecutor` carries the plan through the stages
while emitting typed :class:`~repro.core.events.StageEvent`\\ s —
``prepared``, ``component-scored``, ``view-ranked`` (one per view, the
progressive-results stream), ``search-complete``, ``view-ready`` (one per
validated view) and ``result``.  Callers that want the events pass one
``emit`` hook; the service's executors, job log and
``/v2/jobs/<id>/events`` stream carry the same events under the same
kinds.  Everything else just takes the returned
:class:`CharacterizationResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.core.components.base import ComponentRegistry, default_registry
from repro.core.config import ZiggyConfig
from repro.core.events import (
    BATCH_ITEM,
    COMPONENT_SCORED,
    PREPARED,
    RESULT,
    VIEW_READY,
    EmitFn,
    StageEvent,
)
from repro.core.explain.generator import ExplanationGenerator
from repro.core.preparation import PreparationEngine, PreparedData
from repro.core.profiling import PROFILER
from repro.core.search.searcher import SearchOutput, ViewSearcher
from repro.core.significance.validator import validate_views
from repro.core.stats_cache import StatsCache
from repro.core.views import CharacterizationResult
from repro.engine.database import Database, Selection
from repro.engine.table import Table


@dataclass(frozen=True)
class CharacterizationPlan:
    """Everything one characterization run needs, fixed up front.

    Building the plan is cheap and side-effect free (the selection is
    already evaluated); executing it does all the work.  Plans make the
    execution core reusable: the same plan can be re-executed (idempotent
    given the immutable inputs), shipped to a worker thread, or inspected
    before running.

    Attributes:
        selection: the selection to characterize.
        config: the effective configuration for this run.
        registry: the component registry to evaluate.
        cache: the statistics cache to share computations through (None
            = an ephemeral cache per stage, no sharing).
        predicate_text: canonical predicate text for the result.
    """

    selection: Selection
    config: ZiggyConfig
    registry: ComponentRegistry
    cache: StatsCache | None
    predicate_text: str

    def __getstate__(self) -> dict:
        """Pickle the plan *without* its statistics cache.

        Plans are the library-level unit of shippable work: a pickled
        plan can be rebuilt in another process and re-executed (the
        service's process backend ships higher-level
        :class:`~repro.runtime.CharacterizationTask` descriptions
        instead, but library embedders move plans directly).  The cache
        is per-process runtime state, so shipping it would both bloat
        the payload and fork the sharing contract; the receiving side
        rebinds its own via :meth:`with_cache`.
        """
        state = dict(self.__dict__)
        state["cache"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def with_cache(self, cache: StatsCache | None) -> "CharacterizationPlan":
        """The same plan bound to a different statistics cache (what a
        worker shard calls after unpickling)."""
        return CharacterizationPlan(
            selection=self.selection, config=self.config,
            registry=self.registry, cache=cache,
            predicate_text=self.predicate_text)

    @classmethod
    def for_selection(cls, selection: Selection, config: ZiggyConfig,
                      registry: ComponentRegistry | None = None,
                      cache: StatsCache | None = None
                      ) -> "CharacterizationPlan":
        """Build a plan for an explicit selection."""
        return cls(
            selection=selection,
            config=config,
            registry=registry if registry is not None else default_registry(),
            cache=cache,
            predicate_text=(selection.predicate.canonical()
                            if selection.predicate is not None else "TRUE"),
        )


class PlanExecutor:
    """Carries a :class:`CharacterizationPlan` through the three stages.

    Args:
        preparation: the preparation engine to run stage one with; the
            statistics cache comes from each plan (so one executor can
            serve plans bound to different shared caches).
    """

    def __init__(self, preparation: PreparationEngine | None = None):
        self.preparation = (preparation if preparation is not None
                            else PreparationEngine())
        self.last_prepared: PreparedData | None = None
        self.last_search: SearchOutput | None = None

    def execute(self, plan: CharacterizationPlan,
                emit: EmitFn | None = None) -> CharacterizationResult:
        """Run the plan, emitting typed stage events along the way.

        An exception raised by ``emit`` aborts the run (cooperative
        cancellation); the stage timings always cover exactly the work
        done.
        """
        cfg = plan.config
        timings: dict[str, float] = {}
        notes: list[str] = []

        # The run-scoped profile picks up every kernel timer fired below
        # (statistics cache, sketch answers, dependency matrix); its
        # totals join the stage timings on the result, and the same
        # records accumulate in the process-wide PROFILER for /v2/state.
        with PROFILER.collect() as profile:
            t0 = time.perf_counter()
            prepared = self.preparation.prepare(plan.selection, cfg,
                                                cache=plan.cache,
                                                registry=plan.registry)
            timings["preparation"] = time.perf_counter() - t0
            PROFILER.record("stage.preparation", timings["preparation"])
            notes.extend(prepared.notes)
            self.last_prepared = prepared
            if emit is not None:
                emit(StageEvent(PREPARED, prepared))
                emit(StageEvent(COMPONENT_SCORED, prepared.catalog))

            t1 = time.perf_counter()
            search = ViewSearcher(cfg).search(prepared, emit=emit)
            timings["view_search"] = time.perf_counter() - t1
            PROFILER.record("stage.view_search", timings["view_search"])
            notes.extend(search.notes)
            self.last_search = search

            t2 = time.perf_counter()
            validated, val_notes = validate_views(
                search.views, cfg, n_candidates=search.n_candidates)
            explained = ExplanationGenerator(cfg).annotate(validated)
            timings["post_processing"] = time.perf_counter() - t2
            PROFILER.record("stage.post_processing",
                            timings["post_processing"])
            notes.extend(val_notes)
            if emit is not None:
                for rank, view in enumerate(explained, start=1):
                    emit(StageEvent(VIEW_READY, (rank, view)))

        # Per-kernel totals ride the result next to the stage timings —
        # the profile a client sees explains where its own run went.
        for name, record in profile.snapshot().items():
            if name.startswith("kernel."):
                timings[name] = record["total_s"]

        result = CharacterizationResult(
            views=tuple(explained),
            n_inside=plan.selection.n_inside,
            n_outside=plan.selection.n_outside,
            n_columns_considered=len(prepared.active_columns),
            timings=timings,
            predicate=plan.predicate_text,
            notes=tuple(notes),
        )
        if emit is not None:
            emit(StageEvent(RESULT, result))
        return result


class Ziggy:
    """The tuple-characterization engine.

    Args:
        source: a :class:`Table` (characterize predicates against it) or
            a :class:`Database` (characterize ``(table_name, predicate)``
            pairs or full SELECT statements).
        config: pipeline configuration; defaults are the paper's.
        registry: component registry; defaults to the paper's set.
        share_statistics: keep a cross-query :class:`StatsCache` (the
            paper's computation-sharing strategy).  Disable to measure
            cold-start behaviour.
        cache: an explicit statistics cache to share computations
            through — this is how sessions borrow the runtime's
            cross-client caches instead of owning private ones.  When
            given, ``share_statistics`` is ignored.
    """

    def __init__(self, source: Table | Database,
                 config: ZiggyConfig | None = None,
                 registry: ComponentRegistry | None = None,
                 share_statistics: bool = True,
                 cache: StatsCache | None = None):
        if isinstance(source, Table):
            self.database = Database()
            self.database.register(source)
            self._default_table: str | None = source.name
        elif isinstance(source, Database):
            self.database = source
            names = source.table_names()
            self._default_table = names[0] if len(names) == 1 else None
        else:
            raise TypeError(
                f"source must be a Table or Database, got {type(source).__name__}")
        self.config = config if config is not None else ZiggyConfig()
        self.registry = registry if registry is not None else default_registry()
        if cache is not None:
            self.cache: StatsCache | None = cache
        else:
            self.cache = StatsCache() if share_statistics else None
        self._executor = PlanExecutor(
            PreparationEngine(registry=self.registry, cache=self.cache))

    def rebind_cache(self, cache: StatsCache | None) -> None:
        """Swap the statistics cache this engine shares computations
        through.

        Sessions call this when the runtime hands them a different
        cache than the one the engine was built with (after an eviction
        recreated it), so every borrower converges back onto one shared
        instance instead of diverging onto stale private copies.
        """
        self.cache = cache
        self._executor.preparation.cache = cache

    # -- planning -------------------------------------------------------------

    def plan(self, where: str | None, table: str | None = None,
             config: ZiggyConfig | None = None) -> CharacterizationPlan:
        """Build (but do not run) the plan for one predicate."""
        table_name = table or self._default_table
        if table_name is None:
            raise ValueError("multiple tables registered; pass table=...")
        selection = self.database.select(table_name, where)
        return self.plan_selection(selection, config=config)

    def plan_selection(self, selection: Selection,
                       config: ZiggyConfig | None = None
                       ) -> CharacterizationPlan:
        """Build the plan for an explicit selection."""
        return CharacterizationPlan.for_selection(
            selection,
            config=config if config is not None else self.config,
            registry=self.registry,
            cache=self.cache,
        )

    def execute(self, plan: CharacterizationPlan,
                emit: EmitFn | None = None) -> CharacterizationResult:
        """Run a plan through this engine's executor.

        ``emit`` receives the typed :class:`StageEvent` stream and may
        raise to abort the run (cancellation).
        """
        return self._executor.execute(plan, emit=emit)

    # -- public API -----------------------------------------------------------

    def characterize(self, where: str | None, table: str | None = None,
                     config: ZiggyConfig | None = None,
                     emit: EmitFn | None = None
                     ) -> CharacterizationResult:
        """Characterize the selection defined by a predicate.

        Args:
            where: predicate text (the body of a WHERE clause), or None
                to select everything (which raises — a selection must
                have a complement).
            table: table name; optional when the source holds one table.
            config: per-call config override.
            emit: optional :class:`StageEvent` consumer, receiving one
                ``view-ranked`` event per ranked view among the others.

        Returns:
            The ranked, validated, explained views plus stage timings.
        """
        return self.execute(self.plan(where, table=table, config=config),
                            emit=emit)

    def characterize_query(self, sql: str,
                           config: ZiggyConfig | None = None,
                           emit: EmitFn | None = None
                           ) -> CharacterizationResult:
        """Characterize a full SELECT statement's WHERE clause."""
        selection = self.database.selection_for_query(sql)
        return self.characterize_selection(selection, config=config,
                                           emit=emit)

    def characterize_many(self, wheres: Sequence[str],
                          table: str | None = None,
                          config: ZiggyConfig | None = None,
                          emit: EmitFn | None = None
                          ) -> list[CharacterizationResult]:
        """Characterize several predicates against one table in one call.

        The predicates run sequentially through this engine's shared
        :class:`StatsCache`, so table-level statistics (global summaries,
        pairwise moments, the dependency matrix) are computed once and hit
        the cache for every subsequent predicate — the paper's
        computation-sharing strategy applied across a batch.

        Emits a ``batch-item`` event with ``(index, result)`` after each
        predicate, in addition to the per-query events.
        """
        results: list[CharacterizationResult] = []
        for index, where in enumerate(wheres):
            result = self.characterize(where, table=table, config=config,
                                       emit=emit)
            results.append(result)
            if emit is not None:
                emit(StageEvent(BATCH_ITEM, (index, result)))
        return results

    def characterize_selection(self, selection: Selection,
                               config: ZiggyConfig | None = None,
                               emit: EmitFn | None = None
                               ) -> CharacterizationResult:
        """Characterize an explicit :class:`Selection` (the core path).

        ``emit`` receives the :class:`StageEvent` stream; raising from it
        aborts the run, which is how callers implement cancellation of
        long searches.
        """
        return self.execute(self.plan_selection(selection, config=config),
                            emit=emit)

    # -- introspection -----------------------------------------------------------

    @property
    def last_prepared(self) -> PreparedData | None:
        """The executor's most recent preparation output."""
        return self._executor.last_prepared

    @property
    def last_search(self) -> SearchOutput | None:
        """The executor's most recent search output."""
        return self._executor.last_search

    def dendrogram_text(self) -> str | None:
        """ASCII dendrogram of the last linkage search (tuning support
        for ``MIN_tight``), or None when unavailable."""
        if self.last_search is None or self.last_search.dendrogram is None:
            return None
        return self.last_search.dendrogram.render()

    def cache_counters(self):
        """The shared cache's hit/miss counters (None when sharing off)."""
        return self.cache.counters if self.cache is not None else None
