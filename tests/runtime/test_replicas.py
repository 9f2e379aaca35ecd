"""A hot table on more than one process shard: replica routing, parity
between holders, faults on a replica, and the one-BLAS-thread rule."""

import ctypes
import multiprocessing as mp
import threading
import time

import pytest

from repro.core.config import ZiggyConfig
from repro.data.crime import make_crime
from repro.runtime.executors import (
    CharacterizationTask,
    ExecutorError,
    ProcessShardExecutor,
)
from repro.runtime.executors.local import TaskContext
from helpers.faults import kill_worker

PREDICATES = ("violent_crime_rate > 0.14", "pct_unemployed > 0.08",
              "avg_rent < 700")

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="the worker-side hold is inherited through fork")


@pytest.fixture(scope="module")
def table():
    return make_crime(n_rows=400)


def task_for(table, where=PREDICATES[0], **kwargs):
    return CharacterizationTask(table=table.name, where=where,
                                fingerprint=table.fingerprint(), **kwargs)


class Run:
    """One submission's callbacks and outcome."""

    def __init__(self, hold: "threading.Event | None" = None,
                 on_begin=None):
        self.hold = hold
        self.on_begin = on_begin
        self.kinds = []
        self.started = threading.Event()
        self.done = threading.Event()
        self.outcome = None

    def begin(self):
        if self.on_begin is not None:
            self.on_begin()

    def progress(self, event):
        self.kinds.append(event.kind)
        self.started.set()
        if self.hold is not None:
            # Holds the pump, so this task stays unfinished until the
            # test lets go.
            assert self.hold.wait(60)
            self.hold = None

    def finish(self, status, result, error):
        self.outcome = (status, result, error)
        self.done.set()

    def result(self, timeout=120):
        assert self.done.wait(timeout), "no outcome arrived"
        status, result, error = self.outcome
        assert status == "done", error
        return result


def submit(executor, task, run):
    return executor.submit(task, begin=run.begin, progress=run.progress,
                           finish=run.finish)


def submit_pair(executor, first, second):
    """Submit ``first`` and hold it at its first event until ``second``
    is submitted: the second then finds the first's holder busy.
    Returns both handles and both runs, finished."""
    release = threading.Event()
    held, other = Run(hold=release), Run()
    try:
        handle_a = submit(executor, first, held)
        assert held.started.wait(60)
        handle_b = submit(executor, second, other)
    finally:
        release.set()
    held.result()
    other.result()
    return (handle_a, held), (handle_b, other)


def replicate(executor, table):
    """Make a replica of ``table`` on the non-owner shard."""
    (a, _), (b, _) = submit_pair(executor, task_for(table),
                                 task_for(table, PREDICATES[1]))
    owner = executor.shard_for(table.fingerprint())
    assert (a.worker_index, b.worker_index) == (owner, 1 - owner)
    return owner, 1 - owner


def views(result):
    return [(v.view, v.score, v.p_value) for v in result.views]


class TestRouting:
    def test_sequential_submissions_stay_on_the_owner(self, table):
        executor = ProcessShardExecutor(workers=2)
        try:
            executor.register_table(table)
            owner = executor.shard_for(table.fingerprint())
            for where in PREDICATES:
                run = Run()
                handle = submit(executor, task_for(table, where), run)
                run.result()
                assert handle.worker_index == owner
            info = executor.describe()
            assert info["replicas"] == {"0": [], "1": []}
            assert table.name in info["shards"][str(owner)]
        finally:
            executor.close()

    def test_a_busy_owner_gets_a_replica_on_the_idle_shard(self, table):
        executor = ProcessShardExecutor(workers=2)
        try:
            executor.register_table(table)
            owner, replica = replicate(executor, table)
            info = executor.describe()
            assert info["replicas"][str(replica)] == [table.name]
            assert info["replicas"][str(owner)] == []
            # Owners only: the replica does not show up in ``shards``.
            assert table.name not in info["shards"][str(replica)]
            # With both holders idle again, ties go to the owner.
            run = Run()
            handle = submit(executor, task_for(table), run)
            run.result()
            assert handle.worker_index == owner
        finally:
            executor.close()

    def test_one_worker_never_replicates(self, table):
        executor = ProcessShardExecutor(workers=1)
        try:
            executor.register_table(table)
            (a, _), (b, _) = submit_pair(executor, task_for(table),
                                         task_for(table, PREDICATES[1]))
            assert a.worker_index == b.worker_index == 0
            assert executor.describe()["replicas"] == {"0": []}
        finally:
            executor.close()

    def test_a_batch_group_runs_on_one_shard(self, table):
        executor = ProcessShardExecutor(workers=2)
        try:
            executor.register_table(table)
            owner, replica = replicate(executor, table)
            batch = task_for(table, wheres=PREDICATES)
            (a, _), (b, run) = submit_pair(executor, task_for(table), batch)
            # One task, one shard: the whole group ran on the replica.
            assert (a.worker_index, b.worker_index) == (owner, replica)
            results = run.result()
            assert len(results) == len(PREDICATES)
            assert all(r.views for r in results)
        finally:
            executor.close()


@needs_fork
class TestConcurrency:
    @pytest.fixture
    def held_executor(self, monkeypatch, table):
        """Two shards whose tasks each wait at their first stage event
        until two tasks have reached theirs, across processes.  One
        shard running both in turn would never let the first one pass."""
        barrier = mp.get_context("fork").Barrier(2)
        real_run = TaskContext.run

        def run(self, task, progress=None):
            first = [True]

            def held(event):
                if first[0]:
                    first[0] = False
                    barrier.wait(timeout=60)
                if progress is not None:
                    progress(event)

            return real_run(self, task, progress=held)

        monkeypatch.setattr(TaskContext, "run", run)
        executor = ProcessShardExecutor(workers=2, mp_context="fork")
        executor.register_table(table)
        yield executor
        executor.close()

    def test_two_held_tasks_run_on_two_shards_at_once(self, held_executor,
                                                      table):
        runs = [Run(), Run()]
        handles = [submit(held_executor, task_for(table, where), run)
                   for where, run in zip(PREDICATES, runs)]
        for run in runs:
            run.result()
        assert {h.worker_index for h in handles} == {0, 1}

    def test_owner_and_replica_answer_bit_identically(self, held_executor,
                                                      table):
        owner = held_executor.shard_for(table.fingerprint())
        for where in PREDICATES:
            runs = [Run(), Run()]
            handles = [submit(held_executor, task_for(table, where), run)
                       for run in runs]
            on_owner, on_replica = (run.result() for run in runs)
            assert [h.worker_index for h in handles] == [owner, 1 - owner]
            assert views(on_owner) == views(on_replica)
            assert views(on_owner)


class TestFaults:
    def test_a_killed_replica_heals_and_keeps_serving(self, table):
        executor = ProcessShardExecutor(workers=2, max_restarts=2,
                                        max_retries=2)
        try:
            executor.register_table(table)
            owner, replica = replicate(executor, table)
            # A slow job (NMI dependencies, cold on the replica), routed
            # to the replica because the owner is held busy, and killed
            # there as soon as it begins.
            slow = task_for(table, config=ZiggyConfig(
                dependency_method="nmi"))
            release = threading.Event()
            held = Run(hold=release)
            victim = Run(on_begin=lambda: kill_worker(executor, replica))
            try:
                submit(executor, task_for(table), held)
                assert held.started.wait(60)
                handle = submit(executor, slow, victim)
            finally:
                release.set()
            assert handle.worker_index == replica
            held.result()
            result = victim.result()
            assert result.views
            assert victim.kinds.count("worker-restart") == 1
            assert executor.describe()["restarts"] == {str(replica): 1}
            # The replacement replayed the replica registration: a task
            # routed to it finds the table.
            (a, _), (b, _) = submit_pair(executor, task_for(table),
                                         task_for(table, PREDICATES[2]))
            assert (a.worker_index, b.worker_index) == (owner, replica)
            assert executor.describe()["replicas"][str(replica)] == [
                table.name]
        finally:
            executor.close()

    def test_a_dead_owner_leaves_the_replica_serving(self, table):
        executor = ProcessShardExecutor(workers=2, max_restarts=0)
        try:
            executor.register_table(table)
            owner, replica = replicate(executor, table)
            kill_worker(executor, owner)
            deadline = time.monotonic() + 30
            while owner not in executor.describe().get("dead_shards", []):
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert executor._replicas[table.fingerprint()] == [replica]
            run = Run()
            handle = submit(executor, task_for(table), run)
            assert run.result().views
            assert handle.worker_index == replica
            # Once every holder is gone, the table is rejected.
            kill_worker(executor, replica)
            deadline = time.monotonic() + 30
            while replica not in executor.describe().get("dead_shards", []):
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert executor.describe()["replicas"][str(replica)] == []
            with pytest.raises(ExecutorError, match="is dead"):
                submit(executor, task_for(table), Run())
        finally:
            executor.close()


@needs_fork
def test_a_shard_runs_one_blas_thread(monkeypatch, table):
    from numpy._core import _multiarray_umath

    lib = ctypes.CDLL(_multiarray_umath.__file__)
    getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if getter is None or setter is None:
        pytest.skip("numpy's OpenBLAS does not export its thread count")
    getter.restype = ctypes.c_int
    setter.argtypes = [ctypes.c_int]

    def run(self, task, progress=None):
        return getter()

    before = getter()
    # The shard is forked from a process with two BLAS threads, so only
    # its own pin can bring it to one.
    setter(2)
    monkeypatch.setattr(TaskContext, "run", run)
    executor = ProcessShardExecutor(workers=1, mp_context="fork")
    try:
        executor.register_table(table)
        done = Run()
        submit(executor, task_for(table), done)
        assert done.result() == 1
    finally:
        executor.close()
        setter(before)
