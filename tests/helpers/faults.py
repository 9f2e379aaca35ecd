"""Reusable fault-injection harness for resilience tests.

Three tools, all deterministic:

* :class:`CrashingExecutor` — an :class:`~repro.runtime.Executor`
  wrapper that fails chosen submissions through the normal ``finish``
  path (simulating a worker that died before delivering its outcome),
  while delegating everything else to a real inner backend;
* :func:`kill_worker` (and the :func:`kill_worker_by_pid` fixture) —
  SIGKILL one shard process of a :class:`ProcessShardExecutor` and wait
  until the OS confirms it is gone, so tests exercise the *real* death
  detection path, not a simulation;
* :func:`make_flaky_task` — a work-callable factory that fails a fixed
  number of times before succeeding, for retry-shaped tests that must
  not depend on timing.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro.core.events import PREPARED, StageEvent
from repro.runtime.executors import Executor, ThreadExecutor, WorkerError
from repro.runtime.executors.base import CompletedHandle


class Collector:
    """Callback harness: records stage events and the terminal outcome
    of one executor submission."""

    def __init__(self):
        self.began = threading.Event()
        self.events: list = []
        self.outcome = None
        self.done = threading.Event()

    def begin(self):
        self.began.set()

    def progress(self, event):
        self.events.append(event)

    def finish(self, status, result, error):
        self.outcome = (status, result, error)
        self.done.set()

    @property
    def stages(self) -> list:
        return [event.kind for event in self.events]

    def wait(self, timeout: float = 120):
        assert self.done.wait(timeout), "no terminal outcome arrived"
        return self.outcome


class CrashingExecutor(Executor):
    """Deterministic fault injection in the shape of a backend.

    Submissions whose 1-based ordinal is in ``fail_submissions`` report
    ``("failed", None, WorkerError(...))`` through ``finish`` — after
    optionally emitting ``preamble`` progress events, so the failure
    looks exactly like a worker that crashed mid-job.  Everything else
    delegates to the ``inner`` backend (a fresh two-thread
    :class:`ThreadExecutor` by default).
    """

    kind = "crashing"

    def __init__(self, inner: Executor | None = None,
                 fail_submissions: "tuple[int, ...]" = (1,),
                 preamble: "tuple[tuple[str, object], ...]" = ()):
        self.inner = inner if inner is not None else ThreadExecutor(
            max_workers=2, name="crashing-inner")
        self.supports_callables = self.inner.supports_callables
        self.fail_submissions = frozenset(fail_submissions)
        self.preamble = tuple(preamble)
        self.submissions = 0
        self.injected: list[int] = []
        self._lock = threading.Lock()

    def submit(self, work, *, begin, progress, finish):
        with self._lock:
            self.submissions += 1
            ordinal = self.submissions
            inject = ordinal in self.fail_submissions
            if inject:
                self.injected.append(ordinal)
        if not inject:
            return self.inner.submit(work, begin=begin, progress=progress,
                                     finish=finish)
        begin()
        for kind, payload in self.preamble:
            progress(StageEvent(kind, payload))
        finish("failed", None,
               WorkerError(f"injected crash (submission #{ordinal})"))
        return CompletedHandle()

    def register_table(self, table, name=None, cache=None) -> None:
        self.inner.register_table(table, name=name, cache=cache)

    def close(self, wait: bool = True) -> None:
        self.inner.close(wait=wait)

    def describe(self) -> dict:
        return {"kind": self.kind, "inner": self.inner.describe(),
                "submissions": self.submissions,
                "injected": list(self.injected)}


def kill_worker(executor, shard: int = 0, sig: int = signal.SIGKILL,
                timeout: float = 30.0) -> int:
    """SIGKILL one shard process and wait until it is observably dead.

    Returns the killed PID.  The executor's pump then notices the death
    through its ordinary liveness check — nothing is short-circuited, so
    the respawn path under test is the production one.
    """
    worker = executor._workers[shard]
    pid = worker.process.pid
    os.kill(pid, sig)
    worker.process.join(timeout)
    if worker.process.is_alive():
        raise RuntimeError(f"worker shard {shard} (pid {pid}) survived "
                           f"signal {sig} for {timeout}s")
    return pid


@pytest.fixture
def kill_worker_by_pid():
    """The :func:`kill_worker` helper as a fixture (import it into a
    test module's namespace to activate)."""
    return kill_worker


def make_flaky_task(fail_times: int, result: object = "ok",
                    stages: "tuple[str, ...]" = (PREPARED,)):
    """A deterministic flaky work callable: fails ``fail_times`` times
    with :class:`WorkerError`, then succeeds with ``result``.

    The returned callable carries its call counter as ``work.calls``
    (``{"n": int}``), so tests can assert exactly how often it ran.
    """
    calls = {"n": 0}

    def work(progress):
        calls["n"] += 1
        attempt = calls["n"]
        for kind in stages:
            progress(StageEvent(kind, {"attempt": attempt}))
        if attempt <= fail_times:
            raise WorkerError(f"injected flake (attempt #{attempt})")
        return result

    work.calls = calls
    return work
