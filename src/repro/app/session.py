"""The interactive session — Figure 5's panels as a Python object.

A :class:`ZiggySession` is what the demo's web server holds per visitor:
the registered datasets, the current query, the ranked views, and the
rendering of any view the user clicks.  It also exposes the dendrogram
(the paper's tuning aid for ``MIN_tight``) and lets the visitor adjust
component weights mid-session, reproducing the demo's interactivity.

Sessions no longer own cross-request state: per-table statistics caches
are **borrowed** from a :class:`~repro.runtime.ZiggyRuntime` (the
process-wide one by default), so every session characterizing the same
table — in this process, under any service client — shares one set of
global statistics, and the runtime's eviction policy bounds their
memory.  While a query runs the session holds a lease on its table, so
eviction never races active work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.app.render import view_card
from repro.core.config import ZiggyConfig
from repro.core.events import BATCH_ITEM, EmitFn, StageEvent
from repro.core.pipeline import Ziggy
from repro.core.views import CharacterizationResult, ViewResult
from repro.engine.database import Database, Selection
from repro.engine.table import Table
from repro.errors import ReproError
from repro.runtime import ZiggyRuntime, get_runtime

#: Distinguishes anonymous sessions among the runtime's borrowers.
_session_ids = itertools.count(1)

#: Most entries a session's history keeps; older ones are dropped.  The
#: service only reads the latest, and each entry pins a result and its
#: selection (about 18 KiB per Box Office query), so an unbounded
#: history grows a long-lived client's memory with every request.
HISTORY_LIMIT = 64


@dataclass
class SessionEntry:
    """One executed characterization in the session history."""

    query_text: str
    table_name: str
    result: CharacterizationResult
    selection: Selection = field(repr=False, default=None)  # type: ignore[assignment]


class ZiggySession:
    """Query box -> ranked views -> detail panel, with the last
    :data:`HISTORY_LIMIT` queries as history.

    Example::

        session = ZiggySession()
        session.add_table(load_dataset("boxoffice"))
        session.run("gross > 200000000", table="boxoffice")
        print(session.view_list())
        print(session.view_detail(1))
    """

    def __init__(self, database: Database | None = None,
                 config: ZiggyConfig | None = None,
                 runtime: ZiggyRuntime | None = None,
                 client_id: str | None = None):
        self.database = database if database is not None else Database()
        self.config = config if config is not None else ZiggyConfig()
        self.runtime = runtime if runtime is not None else get_runtime()
        self.client_id = (client_id if client_id is not None
                          else f"session-{next(_session_ids)}")
        self._engines: dict[str, Ziggy] = {}
        self.history: list[SessionEntry] = []

    # -- catalog ------------------------------------------------------------------

    def add_table(self, table: Table, name: str | None = None) -> None:
        """Register a dataset with the session."""
        self.database.register(table, name=name)

    def tables(self) -> tuple[str, ...]:
        """Names of the registered datasets."""
        return self.database.table_names()

    # -- configuration -------------------------------------------------------------

    def set_weights(self, **weights: float) -> None:
        """Adjust component weights (Section 2.2's user preferences).

        Takes effect for subsequent queries; engines keep their caches.
        """
        merged = dict(self.config.weights)
        merged.update(weights)
        self.config = self.config.with_overrides(weights=merged)

    def set_option(self, **options) -> None:
        """Adjust any :class:`ZiggyConfig` field (validated)."""
        self.config = self.config.with_overrides(**options)

    # -- the query box -----------------------------------------------------------------

    def run(self, where: str, table: str | None = None,
            emit: EmitFn | None = None) -> CharacterizationResult:
        """Execute a predicate and characterize its selection.

        ``emit`` receives the :class:`~repro.core.events.StageEvent`
        stream; it is threaded through to the engine (per-view
        streaming, cooperative cancellation).  The table is leased from
        the runtime for the duration, so eviction never interrupts
        the run.
        """
        table_name = self.resolve_table(table)
        selection = self.database.select(table_name, where)
        return self._characterize(selection, table_name, where, emit=emit)

    def run_many(self, wheres: list[str] | tuple[str, ...],
                 table: str | None = None,
                 emit: EmitFn | None = None) -> list[CharacterizationResult]:
        """Characterize a batch of predicates against one table.

        All predicates share one engine (and therefore one statistics
        cache); each result is appended to the session history, and a
        ``batch-item`` event with ``(index, result)`` follows each
        predicate's events.
        """
        table_name = self.resolve_table(table)
        results: list[CharacterizationResult] = []
        for index, where in enumerate(wheres):
            result = self.run(where, table=table_name, emit=emit)
            results.append(result)
            if emit is not None:
                emit(StageEvent(BATCH_ITEM, (index, result)))
        return results

    def run_sql(self, sql: str,
                emit: EmitFn | None = None) -> CharacterizationResult:
        """Execute a full SELECT and characterize its WHERE clause."""
        selection = self.database.selection_for_query(sql)
        return self._characterize(selection, selection.table.name, sql,
                                  emit=emit)

    def _characterize(self, selection: Selection, table_name: str,
                      query_text: str,
                      emit: EmitFn | None = None) -> CharacterizationResult:
        """The shared core of :meth:`run` and :meth:`run_sql`: lease the
        table, converge the engine onto the runtime's current cache,
        execute, record history."""
        engine = self.engine_for(table_name, table=selection.table)
        with self.runtime.lease(selection.table,
                                borrower=self.client_id) as cache:
            # The runtime may have recreated the cache since this engine
            # first borrowed (after an eviction); converge on the
            # current shared instance rather than a stale private one.
            if engine.cache is not cache:
                engine.rebind_cache(cache)
            result = engine.characterize_selection(
                selection, config=self.config, emit=emit)
        self.record(SessionEntry(
            query_text=query_text, table_name=table_name, result=result,
            selection=selection))
        return result

    def record(self, entry: SessionEntry) -> None:
        """Append ``entry`` to the history, dropping the oldest entries
        beyond :data:`HISTORY_LIMIT`."""
        self.history.append(entry)
        del self.history[:-HISTORY_LIMIT]

    # -- panels --------------------------------------------------------------------------

    @property
    def current(self) -> SessionEntry:
        """The latest executed characterization."""
        if not self.history:
            raise ReproError("no query has been run in this session")
        return self.history[-1]

    def view_list(self) -> str:
        """The left panel: ranked views, one line each."""
        entry = self.current
        lines = [f"table: {entry.table_name}   query: {entry.query_text}",
                 f"selection: {entry.result.n_inside} rows "
                 f"({entry.result.n_inside + entry.result.n_outside} total)"]
        if not entry.result.views:
            lines.append("  (no significant views found)")
        for i, vr in enumerate(entry.result.views, start=1):
            lines.append(f"  {i}. {vr.summary_line()}")
        return "\n".join(lines)

    def view(self, rank: int) -> ViewResult:
        """The view at 1-based ``rank`` in the current result."""
        views = self.current.result.views
        if not 1 <= rank <= len(views):
            raise ReproError(
                f"view rank {rank} out of range (1..{len(views)})")
        return views[rank - 1]

    def view_detail(self, rank: int) -> str:
        """The right panel: plot + explanation for one view."""
        entry = self.current
        return view_card(self.view(rank), entry.selection, rank=rank)

    def explanations(self) -> list[str]:
        """All explanations of the current result, in rank order."""
        return [vr.explanation for vr in self.current.result.views]

    def dendrogram(self) -> str:
        """The tuning aid: the last search's dendrogram (if linkage ran)."""
        engine = self._engines.get(self.current.table_name)
        text = engine.dendrogram_text() if engine is not None else None
        return text or "(no dendrogram available)"

    # -- internals -------------------------------------------------------------------------

    def resolve_table(self, table: str | None) -> str:
        """The effective table name for a request (explicit, or the only
        registered table)."""
        if table is not None:
            return table
        names = self.database.table_names()
        if len(names) == 1:
            return names[0]
        raise ReproError(
            f"session has {len(names)} tables; pass table=... "
            f"(available: {', '.join(names)})")

    def engine_for(self, table_name: str, table: Table | None = None) -> Ziggy:
        """The (lazily created) engine bound to one table.

        Engines are per-table, but their statistics cache is *borrowed*
        from the shared runtime: every session/engine touching the same
        table content shares one cache, so global statistics are computed
        once per table across the whole process.  ``table`` short-circuits
        the catalog lookup when the caller already holds the object (e.g.
        a SQL run whose table's own name differs from its catalog name).
        """
        engine = self._engines.get(table_name)
        if engine is None:
            if table is None:
                table = self.database.table(table_name)
            cache = self.runtime.stats_for(table, borrower=self.client_id)
            engine = Ziggy(self.database, config=self.config, cache=cache)
            self._engines[table_name] = engine
        return engine
