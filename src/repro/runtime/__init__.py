"""The shared runtime layer: process-wide, cross-request state.

Everything that outlives a single request lives here (see
``docs/runtime.md`` for the ownership rules):

* :class:`ZiggyRuntime` — one thread-safe ``StatsCache`` per table
  fingerprint, shared across every client session, job and batch, with
  pins and LRU eviction under table/byte limits, and a process-wide
  default (:func:`get_runtime`);
* :mod:`repro.runtime.executors` — pluggable execution backends
  (inline / thread / process shards routed by table fingerprint) that
  run characterization jobs for the service layer (see
  ``docs/executors.md``).

Layering: ``runtime`` sits between the engine (tables, fingerprints) and
the app/service layers, which *borrow* state from it instead of owning
cross-request caches themselves.
"""

from repro.runtime.runtime import (
    DEFAULT_MAX_BYTES,
    DEFAULT_MAX_TABLES,
    ZiggyRuntime,
    get_runtime,
    reset_runtime,
    set_runtime,
)
from repro.runtime.executors import (
    EXECUTOR_KINDS,
    WORKER_RESTART_STAGE,
    BatchGroup,
    CharacterizationTask,
    Executor,
    ExecutorError,
    InlineExecutor,
    ProcessShardExecutor,
    ThreadExecutor,
    WorkerError,
    create_executor,
    plan_batch,
    shard_index,
)

__all__ = [
    "BatchGroup",
    "CharacterizationTask",
    "EXECUTOR_KINDS",
    "WORKER_RESTART_STAGE",
    "plan_batch",
    "Executor",
    "ExecutorError",
    "InlineExecutor",
    "ProcessShardExecutor",
    "ThreadExecutor",
    "WorkerError",
    "create_executor",
    "shard_index",
    "ZiggyRuntime",
    "get_runtime",
    "set_runtime",
    "reset_runtime",
    "DEFAULT_MAX_TABLES",
    "DEFAULT_MAX_BYTES",
]
