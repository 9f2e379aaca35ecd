"""The executor backend contract — who runs a characterization, where.

The service's :class:`~repro.service.jobs.JobManager` used to own a
``ThreadPoolExecutor`` outright; now it consumes an :class:`Executor`
backend, so the same job lifecycle (pending → running → terminal, with
streamed stage events and cooperative cancellation) can run

* synchronously on the caller's thread (:class:`InlineExecutor` — tests,
  the CLI, deterministic debugging),
* on a thread pool in this process (:class:`ThreadExecutor` — the
  pre-refactor behaviour, GIL-bound), or
* sharded across a persistent pool of worker processes
  (:class:`ProcessShardExecutor` — one ``ZiggyRuntime`` per worker,
  jobs routed by table fingerprint, true multi-core throughput).

Work arrives in one of two forms.  A plain callable ``work(progress)``
can only run in this process (it closes over live service state); a
:class:`CharacterizationTask` is a small, picklable description that any
backend — including a worker process that shares nothing but the task —
can execute against its own catalog.  Backends advertise which forms
they accept via :attr:`Executor.supports_callables`.

The three callbacks a submission carries define the lifecycle contract:

``begin()``
    invoked exactly once when execution is about to start; it may raise
    :class:`~repro.errors.JobCancelled` to veto a job that was cancelled
    while queued (the backend then reports a ``cancelled`` outcome
    without running the work).
``progress(stage, payload)``
    invoked in the *submitting* process for every stage event, in order;
    raising :class:`JobCancelled` from it requests cooperative
    cancellation (local backends abort the work at that point; the
    process backend relays a cancel message to the owning shard, which
    aborts at its next stage boundary).
``finish(status, result, error)``
    invoked exactly once with the terminal outcome: ``("done", result,
    None)``, ``("failed", None, exc)`` or ``("cancelled", None, None)``.
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Sequence

from repro.errors import ReproError

#: Terminal outcome statuses a backend can report.
OUTCOME_STATUSES = ("done", "failed", "cancelled")

#: ``progress(stage, payload)`` — the legacy-stage event relay.
ProgressFn = Callable[[str, Any], None]

#: ``work(progress) -> result`` — an in-process work function.
WorkFn = Callable[[ProgressFn], Any]

#: ``finish(status, result, error)`` — the terminal outcome callback.
FinishFn = Callable[[str, Any, "BaseException | None"], None]


class ExecutorError(ReproError):
    """An executor backend could not accept or run a submission."""


class WorkerError(ReproError):
    """A worker process failed in a way whose original exception could
    not cross the process boundary (unpicklable, or the worker died)."""


@dataclass(frozen=True)
class CharacterizationTask:
    """A serializable description of one characterization (or batch).

    This is the unit a process shard executes: everything is a value
    (names, predicate text, a frozen config), never live state, so the
    task pickles in microseconds and the receiving worker resolves it
    against *its own* catalog and statistics cache.

    Attributes:
        table: catalog name of the table to characterize against.
        where: predicate text (the body of a WHERE clause).
        fingerprint: the table's content fingerprint — the **routing
            key**: every task for one fingerprint lands on the same
            shard, so that table's statistics cache lives on exactly one
            worker.  When None the table name routes instead.
        config: the effective :class:`~repro.core.config.ZiggyConfig`
            for the run (None = the worker's default).
        client_id: borrower tag for the shard's runtime ledger.
        wheres: when non-empty, the task is a **batch**: the executing
            context runs every predicate sequentially against one engine
            (one warm statistics cache), emits a ``batch_item`` event
            per predicate, and the result is the *list* of
            characterization results in predicate order.  ``where`` is
            ignored for a batch task.
    """

    table: str
    where: str
    fingerprint: str | None = None
    config: Any = None
    client_id: str = "default"
    wheres: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "wheres", tuple(self.wheres))

    @property
    def routing_key(self) -> str:
        """What shard routing hashes on."""
        return self.fingerprint or self.table

    @property
    def is_batch(self) -> bool:
        """Whether this task carries several predicates for one table."""
        return bool(self.wheres)

    @property
    def predicates(self) -> tuple:
        """The predicate(s) this task executes, in order."""
        return self.wheres if self.wheres else (self.where,)


def shard_index(routing_key: str, n_shards: int) -> int:
    """Deterministic routing: key -> shard.

    Uses CRC-32, not :func:`hash` — Python string hashing is salted per
    process, and routing must agree between the coordinator and every
    worker, across restarts, and in tests.
    """
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    return zlib.crc32(routing_key.encode("utf-8")) % n_shards


@dataclass(frozen=True)
class BatchGroup:
    """One shard-bound slice of a batch: every predicate of one table.

    Attributes:
        table: catalog table name shared by the group.
        routing_key: what the group routes on (fingerprint or name) —
            the executor derives the owning shard from it.
        indices: positions of the group's entries in the original batch,
            in submission order (how results fold back into place).
        wheres: the group's predicates, aligned with ``indices``.
    """

    table: str
    routing_key: str
    indices: tuple
    wheres: tuple

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))
        object.__setattr__(self, "wheres", tuple(self.wheres))


def plan_batch(entries: "Sequence[tuple]") -> "list[BatchGroup]":
    """The shard-aware batch schedule: group entries by owning table.

    ``entries`` is a sequence of ``(table, routing_key, where)`` triples
    in submission order.  The plan has one :class:`BatchGroup` per
    distinct ``(table, routing_key)`` pair, in first-appearance order, so

    * one table's predicates **never split across shards** — every group
      routes on one key, so it runs back-to-back against that shard's
      single warm statistics cache instead of interleaving cold
      submissions, and groups for different shards run concurrently;
    * two *names* for identical content stay distinct groups (results
      and history must report the name the caller used) while still
      landing on the same shard — their routing keys are equal.

    Entry order is preserved inside each group; ``indices`` lets the
    caller reassemble results in original submission order.
    """
    groups: dict[tuple, list] = {}
    order: list[tuple] = []
    for position, (table, routing_key, where) in enumerate(entries):
        key = (str(table), str(routing_key))
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append((position, str(where)))
    return [
        BatchGroup(
            table=key[0],
            routing_key=key[1],
            indices=tuple(position for position, _ in groups[key]),
            wheres=tuple(where for _, where in groups[key]),
        )
        for key in order
    ]


class ExecutionHandle(abc.ABC):
    """A backend's reference to one submitted unit of work."""

    @abc.abstractmethod
    def cancel(self) -> bool:
        """Best-effort cancellation.

        Returns True only when the backend can guarantee the work never
        began (it was still queued); the caller may then mark the job
        cancelled immediately.  Returns False when execution has started
        (or already finished) — cancellation then happens cooperatively
        through the ``progress`` callback / a worker cancel message, and
        the outcome arrives via ``finish``.
        """

    @abc.abstractmethod
    def wait(self, timeout: float | None = None) -> bool:
        """Block until ``finish`` has been delivered; True if it was."""


class Executor(abc.ABC):
    """A pluggable execution backend.

    Lifecycle: construct → ``register_table`` for every catalog table →
    any number of ``submit`` calls → ``close``.  All methods are
    thread-safe; ``close`` is idempotent.
    """

    #: Stable backend name (``"inline"`` / ``"thread"`` / ``"process"``).
    kind: ClassVar[str] = "abstract"

    #: Whether :meth:`submit` accepts plain callables.  Backends that
    #: cross a process boundary require :class:`CharacterizationTask`s.
    supports_callables: ClassVar[bool] = True

    @abc.abstractmethod
    def submit(self, work: WorkFn | CharacterizationTask, *,
               begin: Callable[[], None],
               progress: ProgressFn,
               finish: FinishFn) -> ExecutionHandle:
        """Run ``work`` somewhere; report through the three callbacks."""

    def register_table(self, table, name: str | None = None,
                       cache=None) -> None:
        """Make a table executable by task (no-op where irrelevant).

        ``cache`` optionally ships a pre-warmed
        :class:`~repro.core.stats_cache.StatsCache` snapshot along, so a
        shard starts with the coordinator's already-computed statistics.
        """

    def close(self, wait: bool = True) -> None:
        """Release threads/processes; idempotent."""

    def describe(self) -> dict:
        """JSON-able backend diagnostics (kind, workers, shard map)."""
        return {"kind": self.kind}


class CompletedHandle(ExecutionHandle):
    """Handle for work that finished before ``submit`` returned
    (the inline backend, and rejects)."""

    def cancel(self) -> bool:
        return False

    def wait(self, timeout: float | None = None) -> bool:
        return True
