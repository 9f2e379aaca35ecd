"""Asynchronous job execution for long-running characterizations.

A :class:`JobManager` tracks a small, observable lifecycle per job::

    pending -> running -> done | failed | cancelled
       \\______________________________/
              cancel() at any point

but no longer runs anything itself: execution is delegated to a
pluggable :class:`~repro.runtime.executors.Executor` backend — inline
(synchronous), thread pool (the default, the pre-refactor behaviour) or
a pool of worker processes sharded by table fingerprint.  The manager
owns the lifecycle bookkeeping; the backend owns the where and how.

Work arrives either as an in-process callable ``work(progress)`` or as
a serializable :class:`~repro.runtime.executors.CharacterizationTask`
(the only form a process backend accepts).  Either way ``progress``
receives the same :class:`~repro.core.events.StageEvent` stream:
cancellation is cooperative — when a job has been cancelled, the next
``progress`` call raises :class:`JobCancelled`, and the backend aborts
the work at that stage boundary (local backends immediately, process
shards at the worker's next event).  A job that is still ``pending``
when cancelled never starts.

``view-ranked`` events are captured as the job's partial results, so
pollers can render views while the search is still running.  A
``worker-restart`` event (emitted by the self-healing process backend
when a job's worker died and the task was re-enqueued) resets the
partial capture: the retry re-streams its views from rank one.  Every
event is additionally recorded in the job's **event log** (a
monotonically numbered ``(seq, kind, item)`` list) and announced on a
condition variable, so streaming consumers — the service's
``/v2/jobs/<id>/events`` endpoint — can block in :meth:`events_since`
and relay events as they happen instead of polling snapshots.

Retention is bounded: terminal jobs beyond ``max_finished`` (or older
than ``finished_ttl`` seconds) are pruned on submission, and a pruned
job behaves exactly like an unknown one — :class:`JobNotFoundError`,
including for :meth:`events_since` waiters that were already blocked on
it when the prune happened (they are woken and raised, never left
waiting forever).

With a **journal** attached (see :mod:`repro.persistence`), every
lifecycle step is additionally appended to disk — submission (with the
wire payload a resume re-executes), the ``running`` transition, every
event-log entry, the terminal outcome, and prunes — so a coordinator
restart can :meth:`adopt` jobs back exactly as they were.  Restored
event logs keep their journaled sequence numbers, and fresh events
append after them, so ``events_since`` cursors stay monotonic *across*
restarts.  The ``interrupted`` state is terminal and restart-specific:
a job that was in flight when the coordinator stopped and was not
resumed.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.events import VIEW_RANKED, EmitFn, StageEvent
from repro.errors import JobCancelled, JobNotFoundError
from repro.persistence.journal import (
    event_record,
    prune_record,
    state_record,
    submit_record,
)
from repro.runtime.executors import (
    WORKER_RESTART_STAGE,
    CharacterizationTask,
    ExecutionHandle,
    Executor,
    ExecutorError,
    ThreadExecutor,
)
from repro.runtime.executors.base import WorkFn

#: Valid job states.
JOB_STATES = ("pending", "running", "done", "failed", "cancelled",
              "interrupted")

#: States from which a job can never move again.
TERMINAL_STATES = ("done", "failed", "cancelled", "interrupted")

#: Default retention: how many terminal jobs stay queryable.
DEFAULT_MAX_FINISHED = 256

#: Longest stretch a blocked ``events_since`` waits before re-checking
#: that its job still exists (pruning wakes waiters explicitly; this is
#: the belt to that suspender).
_WAIT_SLICE_SECONDS = 1.0


def _wire_data(item: Any) -> Any:
    """A stored event-log item's JSON-able data (the log holds its kind).

    Service jobs store typed wire events (``kind``/``data`` attributes)
    whose data is JSON-able by construction — those pass through
    untouched (re-walking every view payload would double the journal's
    serialization bill).  Raw submissions store arbitrary payloads,
    which journal as their JSON-safe projection; anything that still
    slips through lands on the append's stripped-down fallback record.
    """
    data = getattr(item, "data", None)
    if getattr(item, "kind", None) is not None and data is not None:
        return data
    from repro.service.protocol import json_safe

    return json_safe(data if data is not None else item)


def _wire_result(result: Any) -> Any:
    """A job result as its JSON-able journal form (None when it has no
    wire shape — the status still journals, the blob is dropped)."""
    to_dict = getattr(result, "to_dict", None)
    if callable(to_dict):
        try:
            return to_dict()
        except Exception:  # noqa: BLE001 - durability is best-effort here
            return None
    from repro.service.protocol import json_safe

    if result is None:
        return None
    safe = json_safe(result)
    return safe if isinstance(safe, (dict, list, str, int, float)) else None


def _wire_error(error: BaseException | None) -> dict | None:
    """An exception as its journal form (protocol code + message)."""
    if error is None:
        return None
    from repro.service.protocol import error_code_for

    code = getattr(error, "error_code", None) or error_code_for(error)
    return {"code": code, "message": str(error)}


@dataclass
class Job:
    """The manager's mutable record of one submitted job.

    Consumers should not hold onto this object across threads; use
    :meth:`JobManager.status` (which locks) or the service layer's
    immutable snapshots instead.
    """

    job_id: str
    status: str = "pending"
    submitted_at: float = field(default_factory=time.perf_counter)
    started_at: float | None = None
    finished_at: float | None = None
    result: Any = None
    error: BaseException | None = None
    partial: list = field(default_factory=list)
    events: list = field(default_factory=list, repr=False)
    cancel_event: threading.Event = field(default_factory=threading.Event)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    #: Set (under the lock) when the manager forgets the job; blocked
    #: event streamers check it to fail fast instead of waiting forever.
    pruned: bool = False
    #: The wire payload that created the job (what a journal records and
    #: a resume re-executes); None for submissions without one.
    journal_payload: dict | None = None
    #: Timings carried over from a journal restore; when set they win
    #: over the perf-counter fields (which describe *this* process).
    restored_timings: dict | None = None
    #: Zero-argument callbacks fired (with the job lock held) whenever
    #: waiters are woken — events appended, terminal transitions,
    #: prunes.  This is the gateway's wakeup path: instead of
    #: parking a thread per subscriber in :meth:`JobManager.events_since`,
    #: an event loop registers ``loop.call_soon_threadsafe`` here and
    #: polls the log non-blockingly when pinged.  Watchers MUST be
    #: non-blocking and must not touch the job.
    watchers: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        # Shares the job lock, so event appends and state transitions
        # wake streaming waiters atomically.
        self.event_cond = threading.Condition(self.lock)

    def wake(self) -> None:
        """Wake condition waiters and fire watchers (lock must be held)."""
        self.event_cond.notify_all()
        for watcher in tuple(self.watchers):
            try:
                watcher()
            except Exception:  # noqa: BLE001 - a watcher must never kill a job
                pass

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.status in TERMINAL_STATES

    def record_event(self, kind: str, payload: Any,
                     mapper: "Callable[[int, str, Any], Any] | None" = None
                     ) -> "tuple[int, Any]":
        """Append one numbered event and wake streaming consumers.

        ``mapper(seq, kind, payload)`` transforms the payload before it
        is stored — the service passes its wire serializer here, so the
        event log holds small JSON-able summaries instead of raw pipeline
        artifacts (which would pin per-query slices and tables for the
        job's whole lifetime).  Must be called *without* the job lock
        held.  Returns ``(seq, stored_item)`` so the manager can journal
        exactly what the log holds.
        """
        with self.event_cond:
            # Next after the last *seq*, not len+1: a journal-restored
            # log can have gaps (a dropped append, a corrupt record
            # skipped on replay), and a duplicate seq would make the
            # next restart's fold silently replace the real event.
            seq = (self.events[-1][0] + 1) if self.events else 1
            item = payload if mapper is None else mapper(seq, kind, payload)
            self.events.append((seq, kind, item))
            self.wake()
        return seq, item

    def timings_ms(self) -> dict[str, float]:
        """Queue and run durations so far, in milliseconds."""
        if self.restored_timings is not None:
            return dict(self.restored_timings)
        now = time.perf_counter()
        timings: dict[str, float] = {}
        started = self.started_at
        timings["queued"] = ((started if started is not None else now)
                             - self.submitted_at) * 1000.0
        if started is not None:
            end = self.finished_at if self.finished_at is not None else now
            timings["run"] = (end - started) * 1000.0
        return timings


class JobManager:
    """Tracks jobs and runs them through an executor backend.

    Args:
        max_workers: worker count for the default thread backend (and
            recorded for introspection); ignored when ``backend`` is
            given.
        name: thread-name prefix (shows up in debuggers and logs).
        backend: the execution backend; defaults to a
            :class:`ThreadExecutor` of ``max_workers`` threads — exactly
            the pre-refactor behaviour.  The manager takes ownership and
            closes it on :meth:`shutdown`.
        max_finished: most terminal jobs kept queryable (older ones are
            pruned oldest-first on submission); None = unbounded.
        finished_ttl: seconds a terminal job stays queryable; None = no
            time limit.
        journal: optional :class:`~repro.persistence.JobJournal`; when
            given, every lifecycle step is appended (journal faults are
            absorbed into :attr:`journal_errors`, never into the job).
            The manager *borrows* the journal — closing it is the
            durable-state owner's job.
    """

    def __init__(self, max_workers: int = 2, name: str = "ziggy-job",
                 backend: Executor | None = None,
                 max_finished: int | None = DEFAULT_MAX_FINISHED,
                 finished_ttl: float | None = None,
                 journal=None):
        self.backend = (backend if backend is not None
                        else ThreadExecutor(max_workers=max_workers,
                                            name=name))
        self.max_finished = max_finished
        self.finished_ttl = finished_ttl
        self._journal = journal
        #: Serializes this manager's appends against its compactions: a
        #: compaction snapshots the live job table and then swaps the
        #: segments, and a record appended between those two steps would
        #: be dropped by the swap.  Held only around whole journal
        #: calls, never while taking the manager or a job lock.
        self._journal_lock = threading.Lock()
        #: Appends the journal swallowed (disk full, encoding faults):
        #: durability degraded, but the live jobs stayed healthy.
        self.journal_errors = 0
        self._jobs: dict[str, Job] = {}
        self._handles: dict[str, ExecutionHandle] = {}
        self._next_id = 1
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------------

    def submit(self, work: WorkFn | None = None,
               on_progress: EmitFn | None = None,
               event_mapper: Callable[[int, str, Any], Any] | None = None,
               *, task: CharacterizationTask | None = None,
               result_mapper: Callable[[Any], Any] | None = None,
               journal_payload: dict | None = None,
               job_id: str | None = None) -> str:
        """Queue work on the backend and return its job ID.

        ``work`` is an in-process callable invoked with a progress
        function it must call with a :class:`StageEvent` between units
        of work; ``task`` is the serializable equivalent for backends
        that cross a process boundary.  Callers may pass either or both
        — the manager picks the form its backend supports (callable
        preferred locally).

        ``on_progress`` additionally receives every event, after it
        entered the job's event log; ``event_mapper`` transforms
        payloads before they enter the log (see
        :meth:`Job.record_event`); ``result_mapper`` post-processes a
        successful result *before* it is stored on the job (the service
        uses it to turn a worker shard's raw pipeline result into a wire
        response and to record session history).

        ``journal_payload`` is the JSON-able request recorded with the
        submission when a journal is attached — the payload recovery
        re-executes on ``--recover resume``.  ``job_id`` re-attaches the
        work to an :meth:`adopt`-restored record (resume) instead of
        allocating a fresh id; the restored event log is kept, so the
        re-run's events append after the journaled ones.
        """
        if self.backend.supports_callables:
            unit: Any = work if work is not None else task
        else:
            unit = task
        if unit is None:
            raise ExecutorError(
                f"the {self.backend.kind!r} backend needs a serializable "
                "task for this submission, and none was provided")
        with self._lock:
            doomed = self._prune_locked()
            fresh = job_id is None or job_id not in self._jobs
            if fresh:
                if job_id is None:
                    job_id = f"job-{self._next_id:06d}"
                    self._next_id += 1
                else:
                    self._observe_id_locked(job_id)
                job = Job(job_id=job_id)
                if journal_payload is not None:
                    job.journal_payload = dict(journal_payload)
                self._jobs[job_id] = job
            else:
                job = self._jobs[job_id]
        self._wake_pruned(doomed)
        self._journal_pruned(doomed)
        if fresh:
            self._append_journal(
                submit_record(job_id, job.journal_payload))

        def begin() -> None:
            with job.event_cond:
                if job.cancel_event.is_set() or job.finished:
                    raise JobCancelled(job.job_id)
                job.status = "running"
                job.started_at = time.perf_counter()
                # A resumed run measures its own queue/run clock.
                job.restored_timings = None
            self._append_journal(state_record(job.job_id, "running"))

        def finish(status: str, result: Any,
                   error: BaseException | None) -> None:
            with job.event_cond:
                if job.finished:  # cancel/finish races resolve first-wins
                    job.wake()
                    return
            # Map outside the job lock (the mapper may take session
            # locks) and only for a job that is still live — a job
            # already terminal must not grow history side effects.
            if status == "done" and result_mapper is not None:
                try:
                    result = result_mapper(result)
                except BaseException as exc:  # noqa: BLE001 - surfaces on job
                    status, result, error = "failed", None, exc
            with job.event_cond:
                if job.finished:
                    job.wake()
                    return
                job.status = status
                job.result = result
                job.error = error
                job.finished_at = time.perf_counter()
                job.wake()
            self._journal_terminal(job)

        try:
            handle = self.backend.submit(
                unit, begin=begin,
                progress=self._progress_fn(job, on_progress, event_mapper),
                finish=finish)
        except BaseException:
            # The backend rejected the work (e.g. already closed): a
            # just-created record must not linger as a forever-pending
            # ghost that retention never prunes — and its journaled
            # submit record must not resurrect on the next restart a
            # job whose submission the caller saw fail.  An adopted
            # record (resume) stays — the caller decides its fate.
            if fresh:
                with self._lock:
                    self._jobs.pop(job_id, None)
                self._append_journal(prune_record([job_id]))
            raise
        with self._lock:
            if job_id in self._jobs:  # not pruned while submitting
                self._handles[job_id] = handle
        return job_id

    def _observe_id_locked(self, job_id: str) -> None:
        """Keep the id allocator ahead of externally supplied ids."""
        _, _, digits = job_id.rpartition("-")
        if digits.isdigit():
            self._next_id = max(self._next_id, int(digits) + 1)

    def _progress_fn(self, job: Job, on_progress: EmitFn | None,
                     event_mapper: Callable[[int, str, Any], Any] | None
                     ) -> EmitFn:
        """The per-job progress callback: cancellation checks, partial
        capture, event log, caller relay — identical for every backend."""

        def progress(event: StageEvent) -> None:
            if job.cancel_event.is_set():
                raise JobCancelled(job.job_id)
            kind, payload = event.kind, event.payload
            if kind == VIEW_RANKED:
                with job.lock:
                    job.partial.append(payload)
                    rank = len(job.partial)
                # Record the keep-order rank with the view, so event
                # consumers never rescan the log to reconstruct it.
                payload = (rank, payload)
            elif kind == WORKER_RESTART_STAGE:
                # The job's worker died and the task re-executes from
                # scratch on a respawned shard: drop the aborted
                # attempt's partial views so the retry's stream rebuilds
                # them with correct ranks (the event log keeps the full
                # history, restart marker included).
                with job.lock:
                    job.partial.clear()
            seq, item = job.record_event(kind, payload, event_mapper)
            self._journal_event(job, seq, kind, item)
            if on_progress is not None:
                on_progress(event)
            # Re-check after the caller's hook: a cancel that arrived while
            # the hook ran (or blocked) must not be lost until the next event.
            if job.cancel_event.is_set():
                raise JobCancelled(job.job_id)

        return progress

    # -- durability --------------------------------------------------------------

    def _append_journal(self, record: dict,
                        fallback: Callable[[], dict] | None = None) -> None:
        """Append one record, absorbing faults into ``journal_errors``.

        ``fallback`` builds a stripped-down replacement for records whose
        payload turned out not to be JSON-able — losing a result blob is
        survivable, losing the *status* record would resurrect the job
        as in-flight on the next restart.  It is only called on that
        failure: an event's fallback ``repr``-s its whole payload.
        """
        if self._journal is None:
            return
        try:
            with self._journal_lock:
                self._journal.append(record)
        except (TypeError, ValueError):
            if fallback is not None:
                try:
                    with self._journal_lock:
                        self._journal.append(fallback())
                    return
                except Exception:  # noqa: BLE001 - counted below
                    pass
            self._count_journal_error()
        except Exception:  # noqa: BLE001 - disk faults must not kill jobs
            self._count_journal_error()

    def _count_journal_error(self) -> None:
        # Under the lock: concurrent faulting appends must not lose
        # counts — /v2/state exists to surface degraded durability.
        with self._journal_lock:
            self.journal_errors += 1

    def compact_journal(self) -> int:
        """Rewrite the journal as exactly the live job table.

        Runs with the append lock held, so a record landing during the
        snapshot-and-swap cannot fall between the snapshotted state and
        the deleted history.  Returns the number of records written.
        """
        if self._journal is None:
            return 0
        with self._journal_lock:
            return self._journal.compact(self.journal_records())

    def _journal_event(self, job: Job, seq: int, kind: str,
                       item: Any) -> None:
        if self._journal is None:
            return
        data = _wire_data(item)
        self._append_journal(
            event_record(job.job_id, seq, kind, data),
            fallback=lambda: event_record(job.job_id, seq, kind,
                                          {"info": repr(data)}))

    def _journal_terminal(self, job: Job) -> None:
        """Append a job's terminal record (status + outcome + timings)."""
        if self._journal is None:
            return
        with job.lock:
            status = job.status
            result = job.result
            error = job.error
            timings = job.timings_ms()
        self._append_journal(
            state_record(job.job_id, status, result=_wire_result(result),
                         error=_wire_error(error), timings=timings),
            fallback=lambda: state_record(job.job_id, status,
                                  error=_wire_error(error),
                                  timings=timings))

    def _journal_pruned(self, doomed: "list[Job]") -> None:
        if doomed:
            self._append_journal(
                prune_record(job.job_id for job in doomed))

    def adopt(self, job_id: str, *, status: str, events: "list | tuple" = (),
              result: Any = None, error: BaseException | None = None,
              timings: dict | None = None,
              journal_payload: dict | None = None,
              journal: bool = False) -> Job:
        """Install a restored job record (the recovery orchestrator's
        write path into the manager).

        ``events`` is the restored event log — ``(seq, kind, item)``
        triples whose sequence numbers are preserved verbatim, so fresh
        events (and reconnecting ``events_since`` cursors) continue the
        journaled numbering.  ``journal=True`` additionally appends the
        adopted state (used when adoption itself *changes* state, e.g.
        in-flight → ``interrupted``; plain restores skip it — their
        records are already in the journal).
        """
        job = Job(job_id=job_id)
        job.status = status
        job.events = list(events)
        job.result = result
        job.error = error
        job.journal_payload = (dict(journal_payload)
                               if journal_payload is not None else None)
        job.restored_timings = dict(timings) if timings is not None else {}
        if status in TERMINAL_STATES:
            job.finished_at = time.perf_counter()  # honest TTL clock
        with self._lock:
            self._observe_id_locked(job_id)
            self._jobs[job_id] = job
        if journal:
            self._journal_terminal(job)
        return job

    def fail_adopted(self, job_id: str, error: BaseException) -> Job:
        """Move an adopted (still pending) job to ``interrupted`` — the
        recovery fallback when a resume could not be re-submitted."""
        job = self.get(job_id)
        with job.event_cond:
            if not job.finished:
                job.status = "interrupted"
                job.error = error
                job.finished_at = time.perf_counter()
            job.wake()
        self._journal_terminal(job)
        return job

    def record_external_event(self, job_id: str, kind: str, payload: Any,
                              event_mapper: Callable[[int, str, Any], Any]
                              | None = None) -> int:
        """Append one out-of-band event to a job's log (journaled).

        Recovery uses this to stamp ``coordinator-restart`` markers on
        resumed jobs; returns the event's sequence number.
        """
        job = self.get(job_id)
        seq, item = job.record_event(kind, payload, event_mapper)
        self._journal_event(job, seq, kind, item)
        return seq

    def journal_records(self) -> "list[dict]":
        """The live job table as journal records — what a compaction
        rewrites the journal to."""
        with self._lock:
            jobs = list(self._jobs.values())
        records: list[dict] = []
        for job in jobs:
            with job.lock:
                status = job.status
                events = list(job.events)
                payload = job.journal_payload
                result = job.result
                error = job.error
                timings = job.timings_ms()
            records.append(submit_record(job.job_id, payload))
            for seq, kind, item in events:
                records.append(event_record(job.job_id, seq, kind,
                                            _wire_data(item)))
            if status in TERMINAL_STATES:
                records.append(state_record(
                    job.job_id, status, result=_wire_result(result),
                    error=_wire_error(error), timings=timings))
            elif status == "running":
                records.append(state_record(job.job_id, "running"))
        return records

    # -- retention ---------------------------------------------------------------

    def _prune_locked(self) -> list[Job]:
        """Forget terminal jobs beyond the retention policy.

        Caller holds ``self._lock``.  Returns the pruned jobs (their
        waiters still need waking, which must happen without the manager
        lock — see :meth:`prune`).
        """
        terminal = [job for job in self._jobs.values() if job.finished]
        doomed: list[Job] = []
        if self.finished_ttl is not None:
            horizon = time.perf_counter() - self.finished_ttl
            doomed.extend(job for job in terminal
                          if (job.finished_at or 0.0) <= horizon)
        if self.max_finished is not None:
            keep = [job for job in terminal if job not in doomed]
            if len(keep) > self.max_finished:
                excess = len(keep) - self.max_finished
                # insertion order == submission order -> oldest first
                doomed.extend(keep[:excess])
        for job in doomed:
            self._jobs.pop(job.job_id, None)
            self._handles.pop(job.job_id, None)
        return doomed

    @staticmethod
    def _wake_pruned(doomed: list[Job]) -> None:
        for job in doomed:
            with job.event_cond:
                job.pruned = True
                job.wake()

    def prune(self) -> int:
        """Apply the retention policy now; returns pruned-job count."""
        with self._lock:
            doomed = self._prune_locked()
        self._wake_pruned(doomed)
        self._journal_pruned(doomed)
        return len(doomed)

    # -- observation -------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """The live job record (raises :class:`JobNotFoundError`)."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(job_id)
        return job

    def job_ids(self) -> tuple[str, ...]:
        """All known job IDs, oldest first."""
        with self._lock:
            return tuple(self._jobs)

    def open_jobs(self) -> int:
        """How many jobs are not yet terminal (pending + running).

        The gateway's bounded-submission-queue gauge: O(live jobs),
        which retention keeps small.  Reads statuses without the per-job
        locks — a gauge may be one transition stale.
        """
        with self._lock:
            return sum(1 for job in self._jobs.values() if not job.finished)

    def watch(self, job_id: str, callback: Callable[[], None]
              ) -> Callable[[], None]:
        """Register a wakeup callback on a job; returns the unregister.

        ``callback`` fires — with the job lock held, so it must be
        non-blocking (e.g. ``loop.call_soon_threadsafe``) — whenever the
        job appends an event, reaches a terminal state, or is pruned.
        It may fire spuriously; consumers re-read :meth:`events_since`
        with ``timeout=0`` and decide for themselves.  Raises
        :class:`JobNotFoundError` for unknown jobs.
        """
        job = self.get(job_id)
        with job.event_cond:
            job.watchers.append(callback)

        def unwatch() -> None:
            with job.event_cond:
                try:
                    job.watchers.remove(callback)
                except ValueError:
                    pass  # already removed (idempotent)

        return unwatch

    def cancel(self, job_id: str) -> Job:
        """Request cancellation; returns the job record.

        A ``pending`` job is cancelled immediately (it never runs); a
        ``running`` job stops at its next progress event — for process
        shards that means a cancel message to the owning worker; a
        finished job is left untouched.
        """
        job = self.get(job_id)
        job.cancel_event.set()
        with self._lock:
            handle = self._handles.get(job_id)
        if handle is not None and handle.cancel():
            cancelled_here = False
            with job.event_cond:
                if not job.finished:
                    job.status = "cancelled"
                    job.finished_at = time.perf_counter()
                    cancelled_here = True
                job.wake()
            if cancelled_here:
                # The backend never ran the work, so no finish() will
                # journal this transition — do it here.
                self._journal_terminal(job)
        return job

    def events_since(self, job_id: str, after_seq: int = 0,
                     timeout: float | None = None
                     ) -> tuple[list[tuple[int, str, Any]], bool]:
        """Events with ``seq > after_seq``, blocking until some arrive.

        Returns ``(events, finished)``.  Blocks for at most ``timeout``
        seconds (None = until an event arrives or the job finishes); an
        empty list with ``finished=False`` means the wait timed out —
        streamers use that as their keep-alive tick.

        A stale cursor (``after_seq`` beyond the log) is not an error:
        it yields no events until newer ones arrive, and ``finished``
        still reports truthfully — that is how a reconnecting stream
        resumes.  Raises :class:`JobNotFoundError` when the job is
        unknown **or gets pruned mid-wait**; waiters are woken by the
        prune, and additionally re-check on a bounded slice so no call
        ever blocks forever on a forgotten job.
        """
        job = self.get(job_id)
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        with job.event_cond:
            while True:
                if job.pruned:
                    raise JobNotFoundError(job_id)
                # Sequence numbers ascend but need not be contiguous (a
                # journal-restored log can have gaps), so the cursor is
                # resolved by seq — bisect, since the log is sorted.
                cut = bisect_right(job.events, after_seq,
                                   key=lambda event: event[0])
                fresh = job.events[cut:]
                if fresh or job.finished:
                    return fresh, job.finished
                if deadline is None:
                    job.event_cond.wait(_WAIT_SLICE_SECONDS)
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return job.events[cut:], job.finished
                job.event_cond.wait(min(remaining, _WAIT_SLICE_SECONDS))

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job reaches a terminal state (or timeout)."""
        job = self.get(job_id)
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        with job.event_cond:
            while not job.finished and not job.pruned:
                if deadline is None:
                    job.event_cond.wait(_WAIT_SLICE_SECONDS)
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                job.event_cond.wait(min(remaining, _WAIT_SLICE_SECONDS))
        return job

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and close the backend (idempotent).

        With a journal attached the pending event-log writes are pushed
        to the device *before* the backend starts draining (so a drain
        that wedges can never cost already-acknowledged events), and
        flushed once more afterwards for the records the drain itself
        appended (in-flight jobs reaching their terminal state).  The
        journal stays open — its owner (the service's durable state)
        compacts and closes it after this returns.
        """
        if self._journal is not None:
            try:
                self._journal.flush(sync=True)
            except Exception:  # noqa: BLE001 - shutdown must proceed
                self._count_journal_error()
        self.backend.close(wait=wait)
        if self._journal is not None:
            try:
                self._journal.flush(sync=False)
            except Exception:  # noqa: BLE001
                self._count_journal_error()
