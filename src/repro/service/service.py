"""`ZiggyService` — the session-owning, job-running service facade.

This is the object a deployment holds: it owns the shared
:class:`Database`, one :class:`ZiggySession` per client ID (each with its
own configuration and history), and a :class:`JobManager` for
asynchronous characterizations.  Everything it speaks is the typed
protocol of :mod:`repro.service.protocol`; the HTTP server and the v1
compatibility adapter are both thin shells around it.

Cross-request state is **borrowed from the runtime**, not owned: every
session's per-table statistics cache comes from the
:class:`~repro.runtime.ZiggyRuntime`, so two clients characterizing
predicates on the same table share one global-statistics computation,
and the runtime's limits bound how much derived state stays resident.

Sessions are serialized per client with a lock (a session's history and
configuration are single-threaded state), so concurrent requests for
*different* clients run in parallel — sharing the thread-safe statistics
caches — while requests for the *same* client queue up.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, Mapping

from repro.app.session import HISTORY_LIMIT, SessionEntry, ZiggySession
from repro.core.config import ZiggyConfig
from repro.core.events import BATCH_ITEM, EmitFn, StageEvent
from repro.core.profiling import PROFILER
from repro.core.views import CharacterizationResult
from repro.engine.database import Database
from repro.engine.table import Table
from repro.errors import (
    JobCancelled,
    NoActiveQueryError,
    ProtocolError,
    ReproError,
)
from repro.persistence.state import DurableState
from repro.runtime import (
    BatchGroup,
    CharacterizationTask,
    Executor,
    ZiggyRuntime,
    create_executor,
    get_runtime,
    plan_batch,
)
from repro.runtime.executors.base import no_listener
from repro.service.jobs import Job, JobManager
from repro.service.protocol import (
    ApiError,
    BatchRequest,
    BatchResponse,
    CharacterizeRequest,
    CharacterizeResponse,
    ConfigureRequest,
    ConfigureResponse,
    JobControlRequest,
    JobEvent,
    JobSnapshot,
    JobSubmitRequest,
    StateReport,
    StateRequest,
    TableInfo,
    TableList,
    TablesRequest,
    ViewPage,
    ViewPageRequest,
    job_event_from_stage,
    parse_request,
    view_to_dict,
)


class ZiggyService:
    """The v2 service: sessions keyed by client ID, batches, jobs.

    Args:
        database: shared catalog; tables registered here are visible to
            every client session.
        config: default configuration new sessions start from.
        max_workers: worker count for the job executor backend
            (thread-pool size, or shard count for ``process``).
        runtime: the shared runtime to borrow cross-request state from;
            defaults to the process-wide one, so several services in one
            process (or a service plus library sessions) share per-table
            statistics.
        executor: the job execution backend — an
            :class:`~repro.runtime.Executor` instance or one of the
            names ``"inline"`` / ``"thread"`` / ``"process"`` (see
            ``docs/executors.md``).  The service takes ownership and
            closes it on :meth:`shutdown`.  With ``"process"``, **all**
            characterization work — synchronous calls, batches and
            asynchronous jobs alike — runs in worker processes sharded
            by table fingerprint, so every endpoint behaves identically
            across backends.
        max_restarts: respawn budget per dead worker shard (``process``
            backend only; see ``docs/executors.md`` failure semantics).
        max_retries: re-execution budget per in-flight task after a
            worker death (``process`` backend only).
        state_dir: directory for durable state (job journal + warm-cache
            snapshots; see ``docs/persistence.md``).  None (the default)
            keeps the service fully in-memory.  Call :meth:`recover`
            after registering the catalog to replay a previous run's
            journal.
        persistence: a pre-built :class:`~repro.persistence.DurableState`
            (mutually exclusive with ``state_dir``); the service adopts
            it and closes it on :meth:`shutdown`.
        snapshot_interval: seconds between background warm-cache
            snapshot passes (0 disables the cadence; drain-time
            snapshots still happen).  Only meaningful with a state dir.
        fsync: journal fsync policy (``never`` / ``rotate`` / ``always``
            — the durability matrix lives in ``docs/persistence.md``).
    """

    #: Distinguishes service instances among the runtime's borrowers
    #: (two services sharing one runtime are distinct borrowers even for
    #: equal client IDs).
    _instances = itertools.count(1)

    def __init__(self, database: Database | None = None,
                 config: ZiggyConfig | None = None,
                 max_workers: int = 2,
                 runtime: ZiggyRuntime | None = None,
                 executor: "str | Executor" = "thread",
                 max_restarts: int | None = None,
                 max_retries: int | None = None,
                 state_dir: str | None = None,
                 persistence: DurableState | None = None,
                 snapshot_interval: float | None = None,
                 fsync: str | None = None):
        self.database = database if database is not None else Database()
        self.config = config
        self.runtime = runtime if runtime is not None else get_runtime()
        self._instance = f"svc-{next(self._instances)}"
        self.started_at = time.time()
        if persistence is not None and state_dir is not None:
            raise ProtocolError(
                "pass either state_dir or a pre-built persistence object, "
                "not both")
        if persistence is None and state_dir is not None:
            kwargs: dict[str, Any] = {}
            if snapshot_interval is not None:
                kwargs["snapshot_interval"] = snapshot_interval
            if fsync is not None:
                kwargs["fsync"] = fsync
            persistence = DurableState(state_dir, **kwargs)
        self.state = persistence
        if isinstance(executor, str):
            executor = create_executor(executor, workers=max_workers,
                                       runtime=self.runtime,
                                       max_restarts=max_restarts,
                                       max_retries=max_retries)
        self.executor = executor
        self.jobs = JobManager(backend=executor,
                               journal=(persistence.journal
                                        if persistence is not None else None))
        if persistence is not None:
            persistence.attach(self.runtime, self.jobs)
        self._sessions: dict[str, ZiggySession] = {}
        self._locks: dict[str, threading.Lock] = {}
        self._registry_lock = threading.Lock()
        # A pre-populated catalog must reach the backend too (process
        # shards only execute tables they have been shipped).
        for table_name in self.database.table_names():
            self._share_table(self.database.table(table_name),
                              name=table_name)

    # -- catalog / sessions -------------------------------------------------------

    def register_table(self, table: Table, name: str | None = None) -> None:
        """Add a dataset to the shared catalog, the runtime, and the
        executor backend (process shards receive it by value).

        With durable state attached, a warm-cache snapshot matching the
        table's content fingerprint is restored first: merged into the
        runtime's cache for the table (so coordinator-side queries skip
        preparation) and shipped with the executor registration (so
        worker shards — and their future respawns — start warm too).
        """
        self.database.register(table, name=name)
        self._share_table(table, name=name)

    def _share_table(self, table: Table, name: str | None = None) -> None:
        """Runtime + executor registration, with snapshot warm restore
        (a restored sketch makes the registration-time build a lookup)."""
        snapshot = None
        if self.state is not None:
            fingerprint = table.fingerprint()
            self.state.note_table(name or table.name, fingerprint)
            snapshot = self.state.snapshots.load(fingerprint)
        self.runtime.register_table(table, snapshot=snapshot)
        self.executor.register_table(table, name=name, cache=snapshot)

    def session(self, client_id: str = "default") -> ZiggySession:
        """The session for one client, created on first use."""
        with self._registry_lock:
            session = self._sessions.get(client_id)
            if session is None:
                session = ZiggySession(database=self.database,
                                       config=self.config,
                                       runtime=self.runtime,
                                       client_id=f"{client_id}@{self._instance}")
                self._sessions[client_id] = session
                self._locks[client_id] = threading.Lock()
            return session

    def attach_session(self, client_id: str, session: ZiggySession) -> None:
        """Adopt an externally built session under a client ID (used by
        the v1 adapter, which predates client IDs)."""
        with self._registry_lock:
            self._sessions[client_id] = session
            self._locks.setdefault(client_id, threading.Lock())

    def _session_lock(self, client_id: str) -> threading.Lock:
        self.session(client_id)  # ensure it exists
        with self._registry_lock:
            return self._locks[client_id]

    def client_ids(self) -> tuple[str, ...]:
        """The known client IDs."""
        with self._registry_lock:
            return tuple(self._sessions)

    # -- typed operations ---------------------------------------------------------

    def list_tables(self, request: TablesRequest | None = None) -> TableList:
        """The catalog, as protocol objects."""
        infos = []
        for name in self.database.table_names():
            table = self.database.table(name)
            infos.append(TableInfo(name=name, rows=table.n_rows,
                                   columns=table.n_columns,
                                   column_names=tuple(table.column_names)))
        return TableList(tables=tuple(infos))

    def characterize(self, request: CharacterizeRequest,
                     progress: EmitFn | None = None
                     ) -> CharacterizeResponse:
        """Run one characterization synchronously **through the
        configured executor backend**.

        Inline, thread and process backends behave identically for this
        endpoint: on a local backend the work is the same session
        closure as before; on the process backend the request is routed
        to the shard that owns the table's fingerprint — so synchronous
        calls warm (and profit from) the *same* per-shard statistics
        caches as jobs and batches, instead of silently computing on
        the coordinator.
        """
        if self.executor.supports_callables:
            return self._execute_sync(
                lambda p: self._characterize_local(request, progress=p),
                progress=progress)
        task, result_mapper = self._task_for(request)
        return self._execute_sync(task, progress=progress,
                                  result_mapper=result_mapper)

    def _characterize_local(self, request: CharacterizeRequest,
                            progress: EmitFn | None = None
                            ) -> CharacterizeResponse:
        """The in-process session path (what local backends execute)."""
        session = self.session(request.client_id)
        with self._session_lock(request.client_id):
            self._apply_overrides(session, request.weights, request.options)
            table_name = session.resolve_table(request.table)
            result = session.run(request.where, table=table_name,
                                 emit=progress)
        return CharacterizeResponse.from_result(
            result, table=table_name,
            page=request.page, page_size=request.page_size)

    def _execute_sync(self, unit, *,
                      progress: EmitFn | None = None,
                      result_mapper: Callable[[Any], Any] | None = None):
        """Run one unit of work on the backend and block for its outcome.

        The backend's ``finish`` contract guarantees exactly one
        terminal callback, so this wait cannot dangle: a worker death is
        either healed (respawn + retry) or surfaced as the error below.
        """
        outcome: dict[str, Any] = {}
        done = threading.Event()

        def finish(status: str, result: Any,
                   error: BaseException | None) -> None:
            outcome["terminal"] = (status, result, error)
            done.set()

        # No hook, no relay: a process shard then sends only the outcome.
        self.executor.submit(unit, begin=lambda: None,
                             progress=progress or no_listener, finish=finish)
        done.wait()
        status, result, error = outcome["terminal"]
        if status == "failed":
            raise error
        if status == "cancelled":
            raise JobCancelled("synchronous request was cancelled")
        return result_mapper(result) if result_mapper is not None else result

    def characterize_many(self, request: BatchRequest,
                          progress: EmitFn | None = None
                          ) -> BatchResponse:
        """Run a batch through the shard-aware batch scheduler.

        Entries are grouped by owning table (:func:`plan_batch`), so
        each table's predicates run back-to-back against one warm
        :class:`StatsCache` — one cold preparation per table, never
        interleaved cold submissions.  On the process backend each
        group is one serializable batch task routed to the shard owning
        the table's fingerprint, and groups for different shards run
        concurrently.  Results return in submission order; the response
        reports the cache counters as evidence of the sharing (local
        backends only — shard caches live in other processes).
        """
        session = self.session(request.client_id)
        entries = request.entries()
        t0 = time.perf_counter()
        with self._session_lock(request.client_id):
            self._apply_overrides(session, {}, request.options)
            resolved = [session.resolve_table(table) for table, _ in entries]
            effective_config = session.config
        keyed = [(table_name, self.database.table(table_name).fingerprint(),
                  where)
                 for table_name, (_, where) in zip(resolved, entries)]
        groups = plan_batch(keyed)
        if self.executor.supports_callables:
            results, hits, misses = self._run_groups_local(
                session, request, groups, progress)
        else:
            results = self._run_groups_sharded(
                session, request, groups, effective_config, progress)
            hits = misses = None  # the shards' caches are not ours to read
        total_ms = (time.perf_counter() - t0) * 1000.0
        responses = []
        for position, result in enumerate(results):
            table_name = keyed[position][0]
            responses.append(CharacterizeResponse.from_result(
                result, table=table_name, page_size=request.page_size))
        return BatchResponse(results=tuple(responses), total_time_ms=total_ms,
                             cache_hits=hits, cache_misses=misses)

    def _run_groups_local(self, session: ZiggySession, request: BatchRequest,
                          groups: "list[BatchGroup]", progress
                          ) -> "tuple[list, int | None, int | None]":
        """Execute batch groups on the session (local backends)."""
        results: list[Any] = [None] * sum(len(g.indices) for g in groups)
        hits: "int | None" = 0
        misses: "int | None" = 0
        with self._session_lock(request.client_id):
            prior = list(session.history)
            # Batch position -> history entry.  Each group's last
            # HISTORY_LIMIT entries survive its run, and those cover
            # every position the capped history keeps.
            entries: dict[int, SessionEntry] = {}
            for group in groups:
                cache = session.engine_for(group.table).cache
                # Snapshot so the response reports THIS batch's
                # hits/misses, not the engine's lifetime totals.
                hits_before = cache.counters.hits if cache is not None else 0
                misses_before = (cache.counters.misses
                                 if cache is not None else 0)
                group_results = session.run_many(
                    group.wheres, table=group.table,
                    emit=self._group_progress(group, progress))
                for local, result in enumerate(group_results):
                    results[group.indices[local]] = result
                kept = session.history[-min(len(group.wheres),
                                            HISTORY_LIMIT):]
                entries.update(zip(group.indices[-len(kept):], kept))
                if cache is None:
                    hits = misses = None
                elif hits is not None and misses is not None:
                    hits += cache.counters.hits - hits_before
                    misses += cache.counters.misses - misses_before
            # ``run_many`` appended history in group-execution order;
            # restore submission order so every backend records the
            # same session history for the same batch.
            session.history[:] = (prior + [
                entries[position] for position in sorted(entries)
            ])[-HISTORY_LIMIT:]
        return results, hits, misses

    def _run_groups_sharded(self, session: ZiggySession,
                            request: BatchRequest,
                            groups: "list[BatchGroup]", config, progress
                            ) -> list:
        """Execute batch groups as concurrent shard-routed batch tasks."""
        waiters = []
        for group in groups:
            outcome: dict[str, Any] = {}
            done = threading.Event()

            def finish(status, result, error, _outcome=outcome, _done=done):
                _outcome["terminal"] = (status, result, error)
                _done.set()

            self.executor.submit(
                CharacterizationTask(
                    table=group.table, where=group.wheres[0],
                    wheres=group.wheres, fingerprint=group.routing_key,
                    config=config,
                    client_id=f"{request.client_id}@{self._instance}"),
                begin=lambda: None,
                progress=(self._group_progress(group, progress)
                          or no_listener),
                finish=finish)
            waiters.append((group, outcome, done))
        failure: BaseException | None = None
        results: list[Any] = [None] * sum(len(g.indices) for g in groups)
        for group, outcome, done in waiters:
            done.wait()
            status, group_results, error = outcome["terminal"]
            if status == "failed" and failure is None:
                failure = error
            elif status == "cancelled" and failure is None:
                failure = JobCancelled("batch group was cancelled")
            elif status == "done":
                for local, result in enumerate(group_results):
                    results[group.indices[local]] = result
        if failure is not None:
            raise failure
        # Reconcile the shards' raw results into the session exactly as
        # a local run would have: history entries in submission order.
        order = sorted(
            ((group.indices[local], group, where, result)
             for group, outcome, _ in waiters
             for local, (where, result) in enumerate(
                 zip(group.wheres, outcome["terminal"][1]))),
            key=lambda item: item[0])
        with self._session_lock(request.client_id):
            # Only the last HISTORY_LIMIT entries would survive; skip
            # re-selecting the rest.
            for _, group, where, result in order[-HISTORY_LIMIT:]:
                selection = self.database.select(group.table, where)
                session.record(SessionEntry(
                    query_text=where, table_name=group.table,
                    result=result, selection=selection))
        return results

    @staticmethod
    def _group_progress(group: "BatchGroup", progress: EmitFn | None
                        ) -> EmitFn | None:
        """Remap a group's ``batch-item`` indices to batch positions
        (None without a hook)."""
        if progress is None:
            return None

        def relay(event: StageEvent) -> None:
            if event.kind == BATCH_ITEM:
                local, result = event.payload
                event = StageEvent(BATCH_ITEM,
                                   (group.indices[int(local)], result))
            progress(event)

        return relay

    def submit(self, request: JobSubmitRequest | CharacterizeRequest,
               on_progress: EmitFn | None = None
               ) -> JobSnapshot:
        """Queue a characterization as an asynchronous job.

        Returns a snapshot taken after the backend accepted the job, so
        its status is whatever the job reached by then: ``pending`` or
        ``running`` on a pooled backend (a fast job on a busy host may
        already be terminal), always terminal on ``inline``.  Poll with
        :meth:`job_status` and stop with :meth:`cancel`.

        On a callable-capable backend (inline/thread) the job is the
        same closure as a synchronous :meth:`characterize`.  On a
        process backend the request is distilled into a serializable
        :class:`~repro.runtime.CharacterizationTask` routed to the shard
        that owns the table's fingerprint; the worker's raw pipeline
        result is mapped back into a wire response — and into the
        client's session history — when it returns.
        """
        inner = (request.request if isinstance(request, JobSubmitRequest)
                 else request)
        job_id = self._submit_request(inner, on_progress=on_progress)
        return self._snapshot(self.jobs.get(job_id))

    def _submit_request(self, inner: CharacterizeRequest,
                        on_progress: EmitFn | None = None,
                        job_id: str | None = None) -> str:
        """Queue one characterize request as a job (fresh or resumed).

        The request's wire form rides along as the journal payload, so a
        coordinator restart can re-execute it; ``job_id`` re-attaches
        the work to a journal-restored record (see :meth:`resume_job`).
        """
        if self.jobs.backend.supports_callables:
            # The closure runs the *local* session path directly: the
            # job already occupies a backend worker, so routing it back
            # through ``characterize`` would double-submit (and starve
            # a one-worker pool).
            return self.jobs.submit(
                lambda progress: self._characterize_local(
                    inner, progress=progress),
                on_progress=on_progress,
                # Events enter the log already in wire form: the log then
                # holds small JSON-able dicts, not pipeline artifacts that
                # would pin slices and tables for the job's lifetime.
                event_mapper=job_event_from_stage,
                journal_payload=inner.to_dict(),
                job_id=job_id)
        task, result_mapper = self._task_for(inner)
        return self.jobs.submit(
            task=task,
            on_progress=on_progress,
            event_mapper=job_event_from_stage,
            result_mapper=result_mapper,
            journal_payload=inner.to_dict(),
            job_id=job_id)

    def resume_job(self, job_id: str, request: CharacterizeRequest) -> str:
        """Re-submit a journal-restored job under its original id.

        Called by the recovery orchestrator (``--recover resume``) after
        :meth:`JobManager.adopt` restored the record; the re-run's
        events append after the journaled ones, so streaming cursors
        stay monotonic across the restart.
        """
        return self._submit_request(request, job_id=job_id)

    def recover(self, policy: str = "resume"):
        """Replay the journal of this service's state directory.

        Returns the :class:`~repro.persistence.RecoveryReport` (or None
        when the service has no durable state).  Call once at boot,
        after the catalog is registered — ``repro serve`` does.
        """
        if self.state is None:
            return None
        from repro.persistence.recovery import recover_jobs
        return recover_jobs(self, self.state, policy=policy)

    def _task_for(self, inner: CharacterizeRequest
                  ) -> "tuple[CharacterizationTask, Callable[[Any], Any]]":
        """Distill a request into a serializable task plus the mapper
        that reconciles the shard's raw result back into the session."""
        session = self.session(inner.client_id)
        with self._session_lock(inner.client_id):
            # Same session semantics as the local path: request
            # overrides apply to the session, then the effective config
            # travels with the task.
            self._apply_overrides(session, inner.weights, inner.options)
            table_name = session.resolve_table(inner.table)
            effective_config = session.config
        table = self.database.table(table_name)

        def result_mapper(result: CharacterizationResult
                          ) -> CharacterizeResponse:
            # Runs when the shard reports done: record history (so
            # views/detail panels work exactly as after a local run) and
            # produce the wire response.  The selection re-evaluates
            # *before* taking the session lock, so a concurrent request
            # for the same client is never blocked behind the scan.
            selection = self.database.select(table_name, inner.where)
            with self._session_lock(inner.client_id):
                session.record(SessionEntry(
                    query_text=inner.where, table_name=table_name,
                    result=result, selection=selection))
            return CharacterizeResponse.from_result(
                result, table=table_name,
                page=inner.page, page_size=inner.page_size)

        task = CharacterizationTask(
            table=table_name,
            where=inner.where,
            fingerprint=table.fingerprint(),
            config=effective_config,
            client_id=f"{inner.client_id}@{self._instance}")
        return task, result_mapper

    @property
    def uptime_seconds(self) -> float:
        """Seconds since this service object was constructed."""
        return time.time() - self.started_at

    def state_report(self, request: StateRequest | None = None) -> StateReport:
        """Durable-state health: journal, snapshots, recovery, runtime.

        Answers for in-memory services too (``enabled=False`` with the
        runtime/jobs sections still filled), so ``GET /v2/state`` is
        always a valid probe.
        """
        by_status: dict[str, int] = {}
        for job_id in self.jobs.job_ids():
            try:
                status = self.jobs.get(job_id).status
            except ReproError:
                continue
            by_status[status] = by_status.get(status, 0) + 1
        jobs = {"live": sum(by_status.values()), "by_status": by_status,
                "journal_errors": self.jobs.journal_errors}
        profile = PROFILER.snapshot()
        if self.state is None:
            return StateReport(enabled=False,
                               uptime_seconds=self.uptime_seconds,
                               runtime=self.runtime.stats_snapshot(),
                               jobs=jobs,
                               profile=profile)
        stats = self.state.stats()
        return StateReport(
            enabled=True,
            state_dir=stats["state_dir"],
            uptime_seconds=self.uptime_seconds,
            journal=stats["journal"],
            snapshots=stats["snapshots"],
            recovery=stats["recovery"],
            runtime=self.runtime.stats_snapshot(),
            jobs=jobs,
            profile=profile,
        )

    def job_status(self, job_id: str) -> JobSnapshot:
        """A point-in-time snapshot of one job (with partial views)."""
        return self._snapshot(self.jobs.get(job_id))

    def cancel(self, job_id: str) -> JobSnapshot:
        """Request cancellation and return the resulting snapshot."""
        return self._snapshot(self.jobs.cancel(job_id))

    def wait(self, job_id: str, timeout: float | None = None) -> JobSnapshot:
        """Block until a job finishes (used by tests and simple clients)."""
        return self._snapshot(self.jobs.wait(job_id, timeout=timeout))

    def job_events(self, job_id: str, after_seq: int = 0,
                   timeout: float | None = None
                   ) -> tuple[list[JobEvent], bool]:
        """Typed wire events of a job after ``after_seq``.

        Blocks until events arrive, the job finishes, or ``timeout``
        elapses; returns ``(events, finished)``.  This is the
        long-poll/stream primitive behind ``GET /v2/jobs/<id>/events``.
        """
        raw, finished = self.jobs.events_since(job_id, after_seq=after_seq,
                                               timeout=timeout)
        # Payloads were serialized at record time (see submit), so this
        # is a plain unwrap.
        return [event for _seq, _kind, event in raw], finished

    def watch_job(self, job_id: str, callback: Callable[[], None]
                  ) -> Callable[[], None]:
        """Register a non-blocking wakeup callback on a job's event log
        (see :meth:`JobManager.watch`); returns the unregister callable.

        The gateway uses this instead of parking a thread per
        subscriber in :meth:`job_events`.
        """
        return self.jobs.watch(job_id, callback)

    def view_page(self, request: ViewPageRequest) -> ViewPage:
        """Page through the client's current (latest) result."""
        session = self.session(request.client_id)
        with self._session_lock(request.client_id):
            if not session.history:
                raise NoActiveQueryError(request.client_id)
            views = session.current.result.views
            return ViewPage.from_views(views, page=request.page,
                                       page_size=request.page_size)

    def configure(self, request: ConfigureRequest) -> ConfigureResponse:
        """Apply weight/option overrides to the client's session."""
        session = self.session(request.client_id)
        with self._session_lock(request.client_id):
            self._apply_overrides(session, request.weights, request.options)
            weights = dict(session.config.weights)
        applied = tuple(sorted(request.options))
        return ConfigureResponse(weights=weights, applied=applied)

    # -- panels (used by the v1 adapter) -----------------------------------------

    def view_detail(self, client_id: str, rank: int) -> str:
        """The rendered detail panel for one view of the current result."""
        session = self.session(client_id)
        with self._session_lock(client_id):
            if not session.history:
                raise NoActiveQueryError(client_id)
            return session.view_detail(rank)

    def dendrogram(self, client_id: str) -> str:
        """The current result's dendrogram rendering."""
        session = self.session(client_id)
        with self._session_lock(client_id):
            if not session.history:
                raise NoActiveQueryError(client_id)
            return session.dendrogram()

    # -- dict dispatch (what the HTTP server calls) ------------------------------

    def dispatch(self, payload: Mapping) -> dict:
        """Handle one decoded JSON request; never raises.

        Parses the payload into a typed request, executes it, and returns
        the response dict — or an :class:`ApiError` dict on failure.
        """
        try:
            request = parse_request(payload)
            if isinstance(request, CharacterizeRequest):
                return self.characterize(request).to_dict()
            if isinstance(request, BatchRequest):
                return self.characterize_many(request).to_dict()
            if isinstance(request, ViewPageRequest):
                return self.view_page(request).to_dict()
            if isinstance(request, JobSubmitRequest):
                return self.submit(request).to_dict()
            if isinstance(request, JobControlRequest):
                if request.op == "cancel":
                    return self.cancel(request.job_id).to_dict()
                return self.job_status(request.job_id).to_dict()
            if isinstance(request, TablesRequest):
                return self.list_tables(request).to_dict()
            if isinstance(request, ConfigureRequest):
                return self.configure(request).to_dict()
            if isinstance(request, StateRequest):
                return self.state_report(request).to_dict()
            raise ProtocolError(
                f"unhandled request type {type(request).__name__}")
        except ReproError as exc:
            return ApiError.from_exception(exc).to_dict()
        except (ValueError, TypeError, KeyError) as exc:
            return ApiError.from_exception(
                ProtocolError(f"{type(exc).__name__}: {exc}")).to_dict()
        except Exception as exc:  # noqa: BLE001 - a service must not 500
            return ApiError.from_exception(exc).to_dict()

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _apply_overrides(session: ZiggySession, weights: Mapping,
                         options: Mapping) -> None:
        if weights:
            session.set_weights(**{str(k): float(v)
                                   for k, v in weights.items()})
        if options:
            session.set_option(**dict(options))

    def _snapshot(self, job: Job) -> JobSnapshot:
        with job.lock:
            status = job.status
            timings = job.timings_ms()
            partial = list(job.partial)
            result = job.result
            error = job.error
        partial_views = tuple(view_to_dict(v, rank)
                              for rank, v in enumerate(partial, start=1))
        return JobSnapshot(
            job_id=job.job_id,
            status=status,
            timings_ms=timings,
            partial_views=partial_views,
            result=result if isinstance(result, CharacterizeResponse) else None,
            error=(ApiError.from_exception(error)
                   if error is not None else None),
        )

    def shutdown(self, wait: bool = True) -> None:
        """Stop the job pool (the catalog and sessions stay usable).

        With durable state attached the order is deliberate: the job
        manager flushes the journal *before* the backend drains (tail
        events already acknowledged to SSE clients are on disk even if
        the drain wedges), and after the drain the durable state does
        its final snapshot pass, compacts the journal down to the live
        job table, and closes it — a clean stop leaves a warm, compact
        state directory.
        """
        self.jobs.shutdown(wait=wait)
        if self.state is not None:
            self.state.close()
