"""The process-shard executor: characterizations across worker processes.

The GIL caps a thread backend at roughly one core of characterization
throughput no matter how many clients are hitting the service.  This
backend escapes it with a persistent pool of **worker processes**, each
owning a full :class:`~repro.runtime.ZiggyRuntime` (one shared
statistics cache per table) plus its own catalog and engines.

Sharding rule — the whole point of the layout:

* tables are **registered by value once per owning worker** (the table
  pickles over the task queue at registration time, never per job);
* every job routes by the table's **content fingerprint**
  (:func:`~repro.runtime.executors.base.shard_index`), so all work for
  one table lands on one shard and that table's statistics cache lives
  in exactly one process — computation sharing keeps working, it just
  happens per shard instead of per process.

Event relay: workers execute through the same task path as the local
backends, compact each :class:`~repro.core.events.StageEvent`
(:func:`~repro.core.events.compact_event`) and send it down the
worker's **own** result pipe; a pump thread in the coordinating process
waits on every pipe at once and replays the events into the
submission's ``progress`` callback — in order, under the same kinds —
so the job event log, partial-view capture and SSE streaming are
byte-identical to a thread-backend run.  A submission whose
``progress`` is :func:`~repro.runtime.executors.base.no_listener` (a
hookless batch or synchronous call) tells the shard so in its task
message, and the worker then sends only the terminal message.  One
pipe per worker (not one queue shared by all) is what makes a SIGKILL
survivable: a worker killed mid-write takes only its own pipe down,
where a shared queue's cross-process write lock would stay held by the
dead writer and block every other shard, the replacement included.

Cancellation crosses the boundary as a control message: when the
coordinator's ``progress`` raises
:class:`~repro.errors.JobCancelled` (or ``handle.cancel()`` is called),
the owning worker's listener thread flags the task and the worker aborts
at its next stage boundary — the same cooperative granularity the local
backends have.  Once a cancel has been sent, the task reports
``cancelled`` even if the worker's ``done`` or ``failed`` crossed it on
the wire.

The pool prefers the ``fork`` start method (cheap, tables already in
memory page-share until written) and falls back to ``spawn`` where fork
is unavailable; both are explicit via ``mp_context``.  Workers are
started eagerly in the constructor, before the service spins up any
server threads, so forking never races live locks.

Self-healing: a worker that dies (OOM-killed, segfaulted, SIGKILL'd) is
**respawned** instead of taking its jobs down with it.  The pump's
liveness check hands the dead shard to a respawn thread, which starts a
replacement process, replays the shard's table registrations with fresh
:meth:`~repro.core.stats_cache.StatsCache.snapshot` warm-cache
snapshots, and re-enqueues the shard's in-flight tasks — each retried
task first emits a ``worker-restart`` :class:`StageEvent` through its
``progress`` relay, so job event logs and SSE streams observe the
recovery.  Two bounds keep this honest: ``max_restarts`` caps how often
one shard may be respawned (exhausting it fails the shard's jobs with
:class:`WorkerError` and marks the shard dead for new submissions), and
``max_retries`` caps how often one task may be re-executed (a task is
retried at-least-once semantics only while its budget lasts; past it,
the task fails with :class:`WorkerError` even though the shard itself
recovers).  A cancel that arrives while the shard is down wins: the
task is reported ``cancelled`` instead of being re-enqueued.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import pickle
import threading
import time
from multiprocessing.connection import wait as wait_for_ready
from typing import Any, Callable

from repro.core.events import EmitFn, StageEvent, compact_event
from repro.core.stats_cache import StatsCache
from repro.errors import JobCancelled
from repro.runtime.runtime import DEFAULT_MAX_BYTES, DEFAULT_MAX_TABLES
from repro.runtime.executors.base import (
    CharacterizationTask,
    ExecutionHandle,
    Executor,
    ExecutorError,
    FinishFn,
    WorkerError,
    no_listener,
    shard_index,
)

#: Message tags, worker -> coordinator.
_STARTED, _EVENT, _DONE, _FAILED, _CANCELLED = (
    "started", "event", "done", "failed", "cancelled")

#: Registration-failure tag (keyed by table, not task).
_REGISTER_FAILED = "register-failed"

#: The kind of a retried task's recovery event (flows through the
#: ordinary progress relay, so job event logs and SSE streams see it as a
#: ``worker-restart`` event between the stages of the two attempts).
WORKER_RESTART_STAGE = "worker-restart"

#: How often one shard may be respawned before it is declared dead.
DEFAULT_MAX_RESTARTS = 2

#: How often one in-flight task may be re-executed after worker deaths.
DEFAULT_MAX_RETRIES = 1


def _wire_exception(exc: BaseException) -> BaseException:
    """An exception that is guaranteed to survive the queue."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickling failure means wrap
        return WorkerError(f"{type(exc).__name__}: {exc}")


#: Serializes pipe creation + fork + closing the coordinator's copy of
#: the write end, so no other shard forked meanwhile inherits that write
#: end (an inherited copy would keep a dead worker's pipe from reading
#: end-of-file).
_SPAWN_LOCK = threading.Lock()


def _worker_main(worker_id: int, tasks, control, results,
                 limits: "tuple | None" = None) -> None:
    """Entry point of one shard (runs in the worker process).

    ``tasks`` carries registration and task messages; ``control``
    carries cancellation flags (read by a listener thread so they
    overtake the task the worker is busy with); ``results`` is the write
    end of this worker's result pipe, carrying started/event/terminal
    messages back.  ``limits`` is the coordinator's ``(max_tables,
    max_bytes)`` pair, so the operator's memory bounds govern the shards
    where caches actually accumulate.
    """
    # Imported here (not at module top) so a spawn-started worker pays
    # the import once, and so this module stays importable in contexts
    # that never start workers.
    from repro.runtime.executors.local import TaskContext
    from repro.runtime.runtime import ZiggyRuntime

    cancelled: set[int] = set()
    flag_lock = threading.Lock()
    send_lock = threading.Lock()

    def report(message: tuple) -> None:
        # ``send`` pickles the whole message before writing a byte, so
        # an unpicklable payload raises here and nothing reaches the pipe.
        with send_lock:
            results.send(message)

    def listen() -> None:
        while True:
            message = control.get()
            if message is None:
                return
            with flag_lock:
                cancelled.add(message)

    listener = threading.Thread(target=listen, daemon=True,
                                name=f"ziggy-shard-{worker_id}-ctl")
    listener.start()

    # The coordinator's pid as recorded when it created this process: an
    # ``os.getppid()`` read here would race a coordinator that dies
    # before this line runs, and the worker would watch its new parent.
    parent = mp.parent_process().pid

    def watch_parent() -> None:
        # A hard-killed coordinator (SIGKILL, default-action SIGTERM)
        # never runs the multiprocessing atexit cleanup, so its daemon
        # workers would linger — holding inherited sockets (including
        # the server's listening port) forever.  Reparenting is the
        # tell: exit immediately.
        while True:
            time.sleep(1.0)
            if os.getppid() != parent:
                os._exit(0)

    threading.Thread(target=watch_parent, daemon=True,
                     name=f"ziggy-shard-{worker_id}-watchdog").start()

    limits = limits if limits is not None else (None, None)
    runtime = ZiggyRuntime(max_tables=limits[0], max_bytes=limits[1])
    context = TaskContext(runtime)
    while True:
        message = tasks.get()
        if message is None:
            control.put(None)  # release the listener thread
            # Wait for it: exiting at once lets the exit finalizer close
            # the control pipe while the listener is still reading it.
            listener.join(timeout=5.0)
            return
        op = message[0]
        if op == "register":
            _, name, fingerprint, table, cache = message
            try:
                context.register_table(table, name=name, cache=cache)
            except Exception:  # noqa: BLE001 - snapshot may be at fault
                try:
                    # A corrupt cache snapshot must not cost the table.
                    context.register_table(table, name=name)
                except Exception as exc:  # noqa: BLE001 - report upstream
                    report((_REGISTER_FAILED, name, fingerprint,
                            _wire_exception(exc)))
            continue
        _, task_id, task, relay = message
        with flag_lock:
            if task_id in cancelled:
                cancelled.discard(task_id)
                report((_CANCELLED, task_id))
                continue
        report((_STARTED, task_id))

        def progress(event: StageEvent, _task_id: int = task_id,
                     _relay: bool = relay) -> None:
            # The cancellation check runs at every stage boundary; the
            # event crosses the pipe only when the submitter listens.
            with flag_lock:
                if _task_id in cancelled:
                    raise JobCancelled(str(_task_id))
            if _relay:
                report((_EVENT, _task_id, compact_event(event)))

        try:
            result = context.run(task, progress=progress)
        except JobCancelled:
            report((_CANCELLED, task_id))
        except BaseException as exc:  # noqa: BLE001 - relayed as outcome
            report((_FAILED, task_id, _wire_exception(exc)))
        else:
            try:
                report((_DONE, task_id, result))
            except Exception as exc:  # noqa: BLE001 - report, don't hang
                # An unpicklable result surfaces as a failed outcome
                # instead of a hung job.
                report((_FAILED, task_id, _wire_exception(exc)))
        with flag_lock:
            cancelled.discard(task_id)


class _ProcessHandle(ExecutionHandle):
    """Coordinator-side record of one task in flight on a shard."""

    def __init__(self, executor: "ProcessShardExecutor", task_id: int,
                 worker_index: int, task: CharacterizationTask,
                 begin: Callable[[], None],
                 progress: EmitFn, finish: FinishFn):
        self.task_id = task_id
        self.worker_index = worker_index
        #: Kept for re-enqueueing after a worker respawn.
        self.task = task
        #: Failed execution attempts so far (bumped per worker death).
        self.attempts = 0
        self.begin = begin
        self.progress = progress
        self._finish = finish
        self._executor = executor
        self._lock = threading.Lock()
        self._started = False
        #: Whether the *current* attempt began executing (reset on every
        #: requeue) — distinct from ``_started``, which deduplicates the
        #: job-lifetime ``begin`` callback and is never reset.
        self._attempt_started = False
        self._finished = threading.Event()
        self._cancel_sent = False

    def message(self) -> tuple:
        """The shard's task message; its last part says whether stage
        events should cross the pipe (only when someone listens)."""
        return ("task", self.task_id, self.task,
                self.progress is not no_listener)

    # -- pump-side -----------------------------------------------------------

    def mark_started(self) -> bool:
        with self._lock:
            already = self._started
            self._started = True
            self._attempt_started = True
        return already

    def reset_attempt(self) -> None:
        """Called by the respawn requeue, before the retry is enqueued:
        the new attempt has not started until its own ``_STARTED``."""
        with self._lock:
            self._attempt_started = False

    @property
    def cancel_requested(self) -> bool:
        with self._lock:
            return self._cancel_sent

    @property
    def attempt_started(self) -> bool:
        with self._lock:
            return self._attempt_started

    @property
    def finished(self) -> bool:
        return self._finished.is_set()

    def claim(self) -> bool:
        """Mark the task finished; True only for the first caller, who
        then owes the ``finish`` callback."""
        with self._lock:
            if self._finished.is_set():
                return False
            self._finished.set()
            return True

    def finish(self, status: str, result: Any,
               error: BaseException | None) -> None:
        if self.claim():
            self._finish(status, result, error)

    # -- ExecutionHandle -----------------------------------------------------

    def cancel(self) -> bool:
        # Never claim "the work provably never began": the task message
        # is already on the shard's queue, and a _STARTED report may be
        # in flight.  The cancel flag overtakes the queue (listener
        # thread), so a not-yet-started task is skipped and reported
        # cancelled, and a running one aborts at its next stage
        # boundary — the outcome always arrives through ``finish``.
        self._executor._send_cancel(self)
        return False

    def wait(self, timeout: float | None = None) -> bool:
        return self._finished.wait(timeout)


class _Worker:
    def __init__(self, process, tasks, control, results):
        self.process = process
        self.tasks = tasks
        self.control = control
        #: Read end of the worker's result pipe; ``None`` once the pump
        #: has read it to end-of-file (or it was dropped).
        self.results = results

    def close_results(self) -> None:
        """Drop the result pipe (the pump stops waiting on it)."""
        results, self.results = self.results, None
        if results is not None:
            try:
                results.close()
            except OSError:
                pass  # already closed

    def dispose_queues(self) -> None:
        """Release the queues of a worker that will never read again.

        ``cancel_join_thread`` first: a feeder thread may be blocked
        mid-``send`` on a pipe whose reader was SIGKILL'd with the pipe
        full — without the cancel, interpreter exit would join that
        feeder forever.  Losing the buffered messages is exactly right:
        the reader is gone.
        """
        for queue in (self.tasks, self.control):
            try:
                queue.cancel_join_thread()
                queue.close()
            except (OSError, ValueError):
                pass  # already closed


class ProcessShardExecutor(Executor):
    """A persistent, self-healing pool of worker processes, sharded by
    fingerprint.

    Args:
        workers: shard count (one process each).
        mp_context: multiprocessing start method (``"fork"`` where
            available, else ``"spawn"``); pass explicitly to override.
        name: process-name prefix.
        max_restarts: how often one dead shard may be respawned before
            it is declared dead (0 disables self-healing: the
            pre-respawn behaviour of failing jobs on the first death).
        max_retries: how often one in-flight task may be re-executed
            after worker deaths before it fails with
            :class:`WorkerError`.
    """

    kind = "process"
    supports_callables = False

    #: Seconds between pump liveness checks of the worker processes.
    POLL_SECONDS = 0.2

    #: Longest a clean close waits for an active respawn to settle
    #: before failing its tasks with a shutdown error instead.
    RESPAWN_DRAIN_SECONDS = 10.0

    def __init__(self, workers: int = 2, mp_context: str | None = None,
                 name: str = "ziggy-shard",
                 max_tables: "int | None" = DEFAULT_MAX_TABLES,
                 max_bytes: "int | None" = DEFAULT_MAX_BYTES,
                 max_restarts: int = DEFAULT_MAX_RESTARTS,
                 max_retries: int = DEFAULT_MAX_RETRIES, **_ignored):
        if workers < 1:
            raise ExecutorError("process backend needs at least 1 worker")
        if mp_context is None:
            mp_context = ("fork" if "fork" in mp.get_all_start_methods()
                          else "spawn")
        self._ctx = mp.get_context(mp_context)
        self.mp_method = mp_context
        self.n_workers = workers
        self.name = name
        #: Eviction limits each worker's private runtime is built with.
        self.max_tables = max_tables
        self.max_bytes = max_bytes
        self.max_restarts = max(0, int(max_restarts))
        self.max_retries = max(0, int(max_retries))
        #: Wakes the pump out of its wait when the executor closes.
        self._wake_reader, self._wake_writer = self._ctx.Pipe(duplex=False)
        self._workers: list[_Worker] = [
            self._spawn_process(index) for index in range(workers)]
        self._lock = threading.Lock()
        self._pending: dict[int, _ProcessHandle] = {}
        self._task_ids = itertools.count(1)
        #: Per shard: (name, fingerprint) -> (table, cache) — both the
        #: "already shipped" marker and the replay source for respawns.
        self._registrations: "dict[int, dict[tuple[str, str], tuple]]" = {
            i: {} for i in range(workers)}
        self._register_errors: dict[str, str] = {}
        #: Respawns spent per shard, and shards past their cap.
        self._restarts: dict[int, int] = {i: 0 for i in range(workers)}
        self._dead_shards: set[int] = set()
        #: Shards currently being respawned, and the threads doing it.
        self._respawning: set[int] = set()
        self._respawn_threads: list[threading.Thread] = []
        #: Tasks submitted while their shard was down — enqueued onto
        #: the replacement worker once the respawn settles.
        self._parked: dict[int, list[_ProcessHandle]] = {
            i: [] for i in range(workers)}
        self._closed = False
        self._pump = threading.Thread(target=self._pump_loop, daemon=True,
                                      name=f"{name}-pump")
        self._pump.start()

    def _spawn_process(self, index: int, generation: int = 0) -> _Worker:
        """Start one shard process (initial spawn and respawns)."""
        tasks = self._ctx.Queue()
        control = self._ctx.Queue()
        suffix = f"-r{generation}" if generation else ""
        with _SPAWN_LOCK:
            reader, writer = self._ctx.Pipe(duplex=False)
            process = self._ctx.Process(
                target=_worker_main, args=(index, tasks, control, writer,
                                           (self.max_tables, self.max_bytes)),
                daemon=True, name=f"{self.name}-{index}{suffix}")
            try:
                process.start()
            finally:
                # The worker holds the only write end from here on, so
                # its death reads as end-of-file on ``reader``.
                writer.close()
        return _Worker(process, tasks, control, reader)

    # -- registration --------------------------------------------------------

    def shard_for(self, routing_key: str) -> int:
        """The worker index a routing key maps to (stable)."""
        return shard_index(routing_key, self.n_workers)

    def register_table(self, table, name: str | None = None,
                       cache=None) -> None:
        """Ship a table, by value, to its owning shard (once).

        The optional ``cache`` snapshot warms the shard's runtime with
        entries the coordinator already computed.
        """
        fingerprint = table.fingerprint()
        index = self.shard_for(fingerprint)
        key = (name or table.name, fingerprint)
        with self._lock:
            if self._closed:
                raise ExecutorError("executor is closed")
            if key in self._registrations[index]:
                return
            # The stored pair doubles as the respawn replay source: a
            # replacement worker receives the same table and a fresh
            # snapshot of this cache.
            self._registrations[index][key] = (table, cache)
            # Enqueue while still holding the lock: a concurrent caller
            # who sees the key marked must be guaranteed the register
            # message is already ahead of any task it then submits
            # (queue puts are cheap — the feeder thread does the work).
            self._workers[index].tasks.put(("register", name or table.name,
                                            fingerprint, table, cache))

    # -- submission ----------------------------------------------------------

    def submit(self, work, *, begin, progress, finish) -> ExecutionHandle:
        if callable(work) or not isinstance(work, CharacterizationTask):
            raise ExecutorError(
                "the process backend executes serializable "
                "CharacterizationTasks, not in-process callables")
        index = self.shard_for(work.routing_key)
        with self._lock:
            if self._closed:
                raise ExecutorError("executor is closed")
            if index in self._dead_shards:
                raise ExecutorError(
                    f"worker shard {index} is dead (respawn cap of "
                    f"{self.max_restarts} exhausted); its tables are "
                    "unavailable")
            task_id = next(self._task_ids)
            handle = _ProcessHandle(self, task_id, index, work, begin,
                                    progress, finish)
            self._pending[task_id] = handle
            if index in self._respawning:
                # The shard is mid-respawn: its old queue is gone and
                # the replacement is not accepting yet.  Park the task;
                # the respawn thread enqueues it once the worker is up.
                self._parked[index].append(handle)
            else:
                self._workers[index].tasks.put(handle.message())
        return handle

    def _send_cancel(self, handle: _ProcessHandle) -> None:
        with handle._lock:
            if handle._cancel_sent or handle._finished.is_set():
                return
            handle._cancel_sent = True
        try:
            self._workers[handle.worker_index].control.put(handle.task_id)
        except (OSError, ValueError):
            pass  # worker gone; the pump's liveness check fails the task

    # -- the event pump ------------------------------------------------------

    def _pump_loop(self) -> None:
        """Replay worker messages into the submitters' callbacks."""
        last_reap = time.monotonic()
        while True:
            # Liveness-check the shards on idle gaps *and* on a clock,
            # so a dead worker is noticed even while other shards keep
            # their pipes busy.
            if time.monotonic() - last_reap >= 1.0:
                last_reap = time.monotonic()
                if self._reap_dead_workers():
                    return
            with self._lock:
                readers = {worker.results: worker for worker in self._workers
                           if worker.results is not None}
            ready = wait_for_ready([self._wake_reader, *readers],
                                   timeout=self.POLL_SECONDS)
            if not ready:
                last_reap = time.monotonic()
                if self._reap_dead_workers():
                    return
                continue
            if self._wake_reader in ready:
                return  # close() is done with the pump
            for reader in ready:
                self._relay(readers[reader])

    def _relay(self, worker: _Worker) -> None:
        """Read one message off a worker's pipe and dispatch it.

        End-of-file, or a message cut short by its writer's death, drops
        the pipe; a message that does not unpickle is skipped.  Neither
        may kill the pump, which serves every other shard too.
        """
        try:
            data = worker.results.recv_bytes()
        except (EOFError, OSError):
            worker.close_results()
            return
        try:
            message = pickle.loads(data)
        except Exception:  # noqa: BLE001 - never kill the pump
            return
        self._dispatch(message)

    def _drain(self, worker: _Worker) -> None:
        """Relay whatever a dead worker sent before it died, then drop
        its pipe — so an outcome that made it out is never retried."""
        while worker.results is not None and worker.results.poll(0):
            self._relay(worker)
        worker.close_results()

    def _dispatch(self, message: tuple) -> None:
        tag = message[0]
        if tag == _REGISTER_FAILED:
            # Unmark so a later register_table re-ships the table
            # instead of silently assuming the shard has it.
            _, name, fingerprint, error = message
            with self._lock:
                for registrations in self._registrations.values():
                    registrations.pop((name, fingerprint), None)
                self._register_errors[name] = str(error)
            return
        task_id = message[1]
        with self._lock:
            handle = self._pending.get(task_id)
        if handle is None:
            return
        if tag == _STARTED:
            # ``begin`` fires exactly once per job, even when the
            # task is re-executed on a respawned worker.
            if handle.mark_started():
                return
            try:
                handle.begin()
            except JobCancelled:
                self._send_cancel(handle)
            except BaseException:  # noqa: BLE001 - never kill the pump
                self._send_cancel(handle)
        elif tag == _EVENT:
            try:
                handle.progress(message[2])
            except JobCancelled:
                self._send_cancel(handle)
            except BaseException:  # noqa: BLE001 - never kill the pump
                pass
        elif handle.claim():
            # A cancel sent before this claim wins over whatever the
            # worker reported (the outcome and the cancel crossed on the
            # wire) — the same precedence cancel has over a retry.  No
            # cancel can be sent after the claim.
            outcome = (("cancelled", None, None)
                       if tag == _CANCELLED or handle.cancel_requested else
                       ("done", message[2], None) if tag == _DONE else
                       ("failed", None, message[2]))
            # Claimed here, on the pump, so a death noticed right after
            # cannot retry or fail a task whose outcome already arrived.
            # The hook runs on its own thread: it may take session locks
            # or post-process results, and must not stall event relay
            # for every other shard.  The handle stays pending until the
            # hook has run, so a wait=True close cannot return with the
            # job still non-terminal.
            def _complete(handle=handle, outcome=outcome):
                try:
                    handle._finish(*outcome)
                finally:
                    with self._lock:
                        self._pending.pop(handle.task_id, None)

            threading.Thread(target=_complete, daemon=True,
                             name="ziggy-shard-finish").start()

    def _reap_dead_workers(self) -> bool:
        """Detect dead workers and recover (or fail) their shards; True
        when the executor is closed **and** nothing is left in flight."""
        with self._lock:
            dead = [(index, worker)
                    for index, worker in enumerate(self._workers)
                    if not worker.process.is_alive()
                    and index not in self._respawning
                    and index not in self._dead_shards]
        for index, worker in dead:
            self._drain(worker)
            self._recover_shard(index)
        with self._lock:
            return (self._closed and not self._pending
                    and not self._respawning)

    def _recover_shard(self, index: int) -> None:
        """One dead shard: budget its tasks' retries and either kick off
        a respawn or fail everything stranded there."""
        doomed: list[tuple[_ProcessHandle, str]] = []
        with self._lock:
            worker = self._workers[index]
            if worker.process.is_alive():  # lost a race with a respawn
                return
            exitcode = worker.process.exitcode
            stranded = [h for h in self._pending.values()
                        if h.worker_index == index and not h.finished]
            died = f"worker shard {index} died (exitcode {exitcode})"
            if self._closed or self._restarts[index] >= self.max_restarts:
                if not self._closed:
                    self._dead_shards.add(index)
                reason = (f"{died} while the executor was closing"
                          if self._closed else
                          f"{died} and its respawn cap is exhausted "
                          f"(max_restarts={self.max_restarts})")
                for handle in stranded:
                    self._pending.pop(handle.task_id, None)
                    doomed.append((handle, reason))
            else:
                self._restarts[index] += 1
                restart_no = self._restarts[index]
                self._respawning.add(index)
                retried: list[_ProcessHandle] = []
                for handle in stranded:
                    if handle.attempt_started:
                        # Only an attempt that actually began is
                        # charged: it may be the task that crashed the
                        # worker.  A still-queued task (including a
                        # retry that never got to run) retries free.
                        handle.attempts += 1
                    if handle.attempts > self.max_retries:
                        self._pending.pop(handle.task_id, None)
                        doomed.append((handle,
                            f"{died}; the task's retry budget is "
                            f"exhausted (max_retries={self.max_retries})"))
                    else:
                        retried.append(handle)
                thread = threading.Thread(
                    target=self._respawn_shard,
                    args=(index, exitcode, restart_no, retried),
                    daemon=True, name=f"{self.name}-respawn-{index}")
                # Started under the lock: a close() that sees the shard
                # respawning joins this thread, and joining a thread
                # that has not started yet raises.
                thread.start()
                self._respawn_threads.append(thread)
        for handle, reason in doomed:
            handle.finish("failed", None, WorkerError(reason))

    def _respawn_shard(self, index: int, exitcode, restart_no: int,
                       retried: "list[_ProcessHandle]") -> None:
        """Replace one dead worker: fresh process, registrations
        replayed with warm-cache snapshots, in-flight tasks re-enqueued
        (each announcing a ``worker-restart`` event).  Runs on its own
        thread so the event pump keeps relaying for healthy shards."""
        try:
            worker = None
            spawn_error: BaseException | None = None
            if not self._closed:
                try:
                    worker = self._spawn_process(index,
                                                 generation=restart_no)
                except BaseException as exc:  # noqa: BLE001 - fork/EAGAIN
                    spawn_error = exc
            if worker is not None:
                swapped = False
                with self._lock:
                    # Decide under the lock, once: a close() that wins
                    # the race sees either the old worker (and disposes
                    # it) or the swapped-in replacement — never neither.
                    if not self._closed:
                        retired = self._workers[index]
                        self._workers[index] = worker
                        registrations = list(
                            self._registrations[index].items())
                        swapped = True
                if swapped:
                    # The dead predecessor's queues are unreachable now
                    # (every put path goes through the swap lock above);
                    # release them so their feeder threads cannot pin
                    # interpreter exit.
                    retired.dispose_queues()
                else:
                    worker.process.terminate()
                    worker = None
            if worker is None:
                if spawn_error is not None:
                    # The replacement could not even start: the shard is
                    # gone for good, exactly like an exhausted cap.
                    with self._lock:
                        self._dead_shards.add(index)
                    self._abandon(retried, WorkerError(
                        f"respawn of worker shard {index} failed: "
                        f"{type(spawn_error).__name__}: {spawn_error}"))
                else:
                    self._abandon(retried, ExecutorError(
                        f"executor closed during respawn of worker shard "
                        f"{index}"))
                return
            for (name, fingerprint), (table, cache) in registrations:
                # Snapshot live caches at replay time, so statistics
                # computed since registration warm-restore as well.
                snapshot = (cache.snapshot()
                            if isinstance(cache, StatsCache) else cache)
                worker.tasks.put(("register", name, fingerprint, table,
                                  snapshot))
            for handle in sorted(retried, key=lambda h: h.task_id):
                if handle.finished:
                    continue  # its outcome arrived before the death
                self._requeue(handle, worker, restart_no, exitcode)
        finally:
            self._settle_respawn(index)

    def _requeue(self, handle: _ProcessHandle, worker: _Worker,
                 restart_no: int, exitcode) -> bool:
        """Re-enqueue one retried task (cancel wins; restart announced)."""
        if handle.cancel_requested:
            with self._lock:
                self._pending.pop(handle.task_id, None)
            handle.finish("cancelled", None, None)
            return False
        try:
            handle.progress(StageEvent(WORKER_RESTART_STAGE, {
                "worker": handle.worker_index,
                "restart": restart_no,
                "attempt": handle.attempts + 1,
                "max_retries": self.max_retries,
                "exitcode": exitcode,
            }))
        except JobCancelled:
            with self._lock:
                self._pending.pop(handle.task_id, None)
            handle.finish("cancelled", None, None)
            return False
        except BaseException:  # noqa: BLE001 - never kill the respawn
            pass
        handle.reset_attempt()
        worker.tasks.put(handle.message())
        return True

    def _settle_respawn(self, index: int) -> None:
        """Drain tasks parked during the respawn and reopen the shard."""
        while True:
            with self._lock:
                parked = self._parked[index]
                self._parked[index] = []
                if not parked:
                    # Clear the flag while holding the lock, so the
                    # next submit enqueues directly — behind everything
                    # this drain already enqueued.
                    self._respawning.discard(index)
                    return
                worker = self._workers[index]
                closed = self._closed
                dead = index in self._dead_shards
            if closed or dead:
                self._abandon(parked, ExecutorError(
                    f"worker shard {index} went away mid-submission "
                    + ("(executor closed during its respawn)" if closed
                       else "(its respawn failed)")))
                continue
            for handle in parked:
                if handle.cancel_requested:
                    with self._lock:
                        self._pending.pop(handle.task_id, None)
                    handle.finish("cancelled", None, None)
                else:
                    worker.tasks.put(handle.message())

    def _abandon(self, handles: "list[_ProcessHandle]",
                 error: BaseException) -> None:
        """Fail handles with a clean error (shutdown mid-respawn)."""
        with self._lock:
            for handle in handles:
                self._pending.pop(handle.task_id, None)
        for handle in handles:
            handle.finish("failed", None, error)

    # -- lifecycle -----------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop the shards; idempotent.

        ``wait=True`` lets queued/running tasks finish first (the
        shutdown sentinel queues behind them); ``wait=False`` terminates
        the workers and fails whatever was in flight.

        A close that lands **during an active worker respawn** must not
        hang: the drain waits on the respawn thread(s) for at most
        :attr:`RESPAWN_DRAIN_SECONDS`, and anything still stranded after
        that fails with a clean shutdown :class:`ExecutorError` instead
        of blocking the caller forever.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            respawn_threads = list(self._respawn_threads)
        # Respawn threads observe ``_closed`` and abandon their tasks
        # with a clean error; the bounded join is the backstop for a
        # thread wedged mid-spawn.
        deadline = time.monotonic() + (self.RESPAWN_DRAIN_SECONDS
                                       if wait else 1.0)
        for thread in respawn_threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        with self._lock:
            stuck = [h for h in self._pending.values()
                     if h.worker_index in self._respawning]
            for handle in stuck:
                self._pending.pop(handle.task_id, None)
        for handle in stuck:
            handle.finish("failed", None, ExecutorError(
                f"executor closed during respawn of worker shard "
                f"{handle.worker_index} (drain timed out)"))
        if wait:
            # The sentinel queues behind in-flight tasks: workers drain
            # their queues (outcomes land through the pump), then exit.
            for worker in self._workers:
                worker.tasks.put(None)
            for worker in self._workers:
                worker.process.join(timeout=30)
            # The workers have exited, but their final outcomes may
            # still sit in the results queue: let the pump deliver them
            # before declaring anything abandoned.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with self._lock:
                    if not self._pending:
                        break
                time.sleep(0.02)
        with self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5)
        for handle in leftovers:
            handle.finish("cancelled", None, None)
        self._wake_writer.send(None)
        self._pump.join(timeout=5)
        for worker in self._workers:
            worker.dispose_queues()
            worker.close_results()
        self._wake_writer.close()
        self._wake_reader.close()

    def describe(self) -> dict:
        with self._lock:
            shards = {
                str(index): sorted(name for name, _fp in registrations)
                for index, registrations in self._registrations.items()}
            in_flight = len(self._pending)
            register_errors = dict(self._register_errors)
            restarts = {str(index): count
                        for index, count in self._restarts.items() if count}
            dead_shards = sorted(self._dead_shards)
            respawning = sorted(self._respawning)
        info = {"kind": self.kind, "workers": self.n_workers,
                "mp_method": self.mp_method, "shards": shards,
                "in_flight": in_flight,
                "max_restarts": self.max_restarts,
                "max_retries": self.max_retries}
        if restarts:
            info["restarts"] = restarts
        if dead_shards:
            info["dead_shards"] = dead_shards
        if respawning:
            info["respawning"] = respawning
        if register_errors:
            info["register_errors"] = register_errors
        return info
