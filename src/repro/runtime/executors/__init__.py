"""Pluggable execution backends for characterization work.

See :mod:`repro.runtime.executors.base` for the contract and
``docs/executors.md`` for the ownership/sharding rules.  The factory
here is what the service and CLI speak::

    executor = create_executor("process", workers=4)
    executor.register_table(table)
    ...
    executor.close()
"""

from __future__ import annotations

from repro.runtime.executors.base import (
    BatchGroup,
    CharacterizationTask,
    ExecutionHandle,
    Executor,
    ExecutorError,
    OUTCOME_STATUSES,
    WorkerError,
    plan_batch,
    shard_index,
)
from repro.runtime.executors.local import (
    InlineExecutor,
    TaskContext,
    ThreadExecutor,
)
from repro.runtime.executors.process import (
    DEFAULT_MAX_RESTARTS,
    DEFAULT_MAX_RETRIES,
    ProcessShardExecutor,
    WORKER_RESTART_STAGE,
)

#: Backend names ``create_executor`` accepts, in rough cost order.
EXECUTOR_KINDS = ("inline", "thread", "process")

_EXECUTOR_CLASSES = {
    "inline": InlineExecutor,
    "thread": ThreadExecutor,
    "process": ProcessShardExecutor,
}


def create_executor(kind: str, workers: int = 2, *,
                    runtime=None, mp_context: str | None = None,
                    name: str | None = None,
                    max_restarts: int | None = None,
                    max_retries: int | None = None) -> Executor:
    """Build a backend by name.

    Args:
        kind: one of :data:`EXECUTOR_KINDS`.
        workers: thread-pool size / shard count (ignored by ``inline``).
        runtime: shared :class:`~repro.runtime.ZiggyRuntime` for the
            local backends' task context.  Process shards own their own
            runtimes, but inherit this runtime's **eviction limits**
            (``max_tables`` / ``max_bytes``), so the operator's memory
            bounds govern the processes where caches accumulate.
        mp_context: multiprocessing start method for ``process``.
        name: thread/process name prefix.
        max_restarts: respawn budget per dead worker shard (``process``
            only; default :data:`DEFAULT_MAX_RESTARTS`).
        max_retries: re-execution budget per in-flight task after a
            worker death (``process`` only; default
            :data:`DEFAULT_MAX_RETRIES`).
    """
    cls = _EXECUTOR_CLASSES.get(kind)
    if cls is None:
        raise ExecutorError(
            f"unknown executor kind {kind!r} "
            f"(available: {', '.join(EXECUTOR_KINDS)})")
    kwargs: dict = {}
    if kind == "inline":
        kwargs["runtime"] = runtime
    elif kind == "thread":
        kwargs.update(max_workers=workers, runtime=runtime)
        if name is not None:
            kwargs["name"] = name
    else:
        kwargs.update(workers=workers, mp_context=mp_context)
        if runtime is not None:
            kwargs.update(max_tables=runtime.max_tables,
                          max_bytes=runtime.max_bytes)
        if name is not None:
            kwargs["name"] = name
        if max_restarts is not None:
            kwargs["max_restarts"] = max_restarts
        if max_retries is not None:
            kwargs["max_retries"] = max_retries
    return cls(**kwargs)


__all__ = [
    "BatchGroup",
    "CharacterizationTask",
    "DEFAULT_MAX_RESTARTS",
    "DEFAULT_MAX_RETRIES",
    "EXECUTOR_KINDS",
    "ExecutionHandle",
    "Executor",
    "ExecutorError",
    "InlineExecutor",
    "OUTCOME_STATUSES",
    "ProcessShardExecutor",
    "TaskContext",
    "ThreadExecutor",
    "WORKER_RESTART_STAGE",
    "WorkerError",
    "create_executor",
    "plan_batch",
    "shard_index",
]
