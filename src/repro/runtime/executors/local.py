"""In-process executor backends: inline (synchronous) and thread pool.

Both run work in the submitting process, so they accept plain callables
as well as :class:`CharacterizationTask`s.  Tasks are executed through a
:class:`TaskContext` — a private catalog + runtime + per-table engines —
which is exactly the state a process shard owns remotely; keeping the
code path identical means every backend produces the same results and
the same :class:`~repro.core.events.StageEvent` stream, differing only
in *where* the work runs.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

from repro.core.events import EmitFn
from repro.core.pipeline import Ziggy
from repro.engine.database import Database
from repro.errors import JobCancelled
from repro.runtime.runtime import ZiggyRuntime
from repro.runtime.executors.base import (
    CharacterizationTask,
    CompletedHandle,
    ExecutionHandle,
    Executor,
    FinishFn,
    WorkFn,
)


class TaskContext:
    """Catalog + runtime + engines for executing tasks locally.

    One of these backs each local executor, and one lives inside every
    worker process of the process-shard backend.  It mirrors what a
    session does — lease the table, converge the engine onto the
    runtime's current shared cache, run — without touching any
    app/service state.
    """

    def __init__(self, runtime: ZiggyRuntime | None = None):
        self.database = Database()
        self.runtime = runtime if runtime is not None else ZiggyRuntime()
        self._engines: dict[str, Ziggy] = {}
        self._lock = threading.Lock()

    def register_table(self, table, name: str | None = None,
                       cache=None) -> None:
        """Add a table to the catalog (idempotent) and optionally warm
        its shared statistics cache from a shipped snapshot."""
        with self._lock:
            self.database.register(table, name=name)
            self.runtime.register_table(table, snapshot=cache)

    def table_names(self) -> tuple[str, ...]:
        with self._lock:
            return self.database.table_names()

    def run(self, task: CharacterizationTask,
            progress: EmitFn | None = None):
        """Execute one task; returns the CharacterizationResult.

        ``progress`` receives the engine's
        :class:`~repro.core.events.StageEvent` stream — the same stream a
        local closure produces — so the job manager's bookkeeping cannot
        tell the backends apart.

        A batch task (``task.wheres``) runs every predicate against one
        engine — one warm statistics cache, exactly like
        :meth:`~repro.app.session.ZiggySession.run_many` — emitting a
        ``batch-item`` event per predicate and returning the *list* of
        results in predicate order.
        """
        with self._lock:
            table = self.database.table(task.table)
        with self.runtime.lease(table, borrower=task.client_id) as cache:
            with self._lock:
                engine = self._engines.get(task.table)
                if engine is None:
                    engine = Ziggy(self.database, cache=cache)
                    self._engines[task.table] = engine
            if engine.cache is not cache:
                engine.rebind_cache(cache)
            if not task.is_batch:
                return engine.characterize(task.where, table=task.table,
                                           config=task.config, emit=progress)
            return engine.characterize_many(task.wheres, table=task.table,
                                            config=task.config, emit=progress)


def run_unit(work: WorkFn | CharacterizationTask, context: TaskContext,
             progress: EmitFn) -> object:
    """Run either work form through one code path."""
    if callable(work):
        return work(progress)
    return context.run(work, progress=progress)


def execute_and_finish(work, context: TaskContext, *,
                       begin, progress: EmitFn,
                       finish: FinishFn) -> None:
    """The shared outcome protocol of the local backends."""
    try:
        begin()
        result = run_unit(work, context, progress)
    except JobCancelled:
        finish("cancelled", None, None)
    except BaseException as exc:  # noqa: BLE001 - reported via finish
        finish("failed", None, exc)
    else:
        finish("done", result, None)


class InlineExecutor(Executor):
    """Runs submissions synchronously on the caller's thread.

    ``submit`` does not return until ``finish`` has been called, which
    makes tests and CLI runs deterministic: a submitted job is terminal
    by the time its ID is handed back.
    """

    kind = "inline"
    supports_callables = True

    def __init__(self, runtime: ZiggyRuntime | None = None, **_ignored):
        self._context = TaskContext(runtime)

    def submit(self, work, *, begin, progress, finish) -> ExecutionHandle:
        execute_and_finish(work, self._context, begin=begin,
                           progress=progress, finish=finish)
        return CompletedHandle()

    def register_table(self, table, name=None, cache=None) -> None:
        self._context.register_table(table, name=name, cache=cache)

    def describe(self) -> dict:
        return {"kind": self.kind, "workers": 0,
                "tables": list(self._context.table_names())}


class _FutureHandle(ExecutionHandle):
    def __init__(self, future: Future):
        self._future = future

    def cancel(self) -> bool:
        # True only when the pooled function never ran — the same
        # guarantee Future.cancel gives.
        return self._future.cancel()

    def wait(self, timeout: float | None = None) -> bool:
        try:
            self._future.exception(timeout=timeout)
        except (TimeoutError, FutureTimeoutError):
            # distinct classes on Python 3.10, aliases from 3.11 on
            return False
        except BaseException:  # noqa: BLE001 - outcome surfaced via finish
            pass
        return True


class ThreadExecutor(Executor):
    """Runs submissions on a bounded thread pool (the GIL-bound
    pre-refactor behaviour, extracted from the job manager)."""

    kind = "thread"
    supports_callables = True

    def __init__(self, max_workers: int = 2, name: str = "ziggy-exec",
                 runtime: ZiggyRuntime | None = None, **_ignored):
        self.max_workers = max_workers
        self._pool = ThreadPoolExecutor(max_workers=max_workers,
                                        thread_name_prefix=name)
        self._context = TaskContext(runtime)
        self._closed = False

    def submit(self, work, *, begin, progress, finish) -> ExecutionHandle:
        future = self._pool.submit(
            execute_and_finish, work, self._context,
            begin=begin, progress=progress, finish=finish)
        return _FutureHandle(future)

    def register_table(self, table, name=None, cache=None) -> None:
        self._context.register_table(table, name=name, cache=cache)

    def close(self, wait: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=wait, cancel_futures=True)

    def describe(self) -> dict:
        return {"kind": self.kind, "workers": self.max_workers,
                "tables": list(self._context.table_names())}
