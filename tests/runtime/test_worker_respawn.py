"""Fault-injection tests of the self-healing process-shard executor.

Workers are killed with real SIGKILLs (``helpers.faults.kill_worker``),
so the respawn path under test — death detection by the pump, the
respawn thread, registration replay, task re-enqueueing — is exactly
the production one.  This file is the "respawn suite" the CI
fault-injection job runs against a live server.
"""

import os
import random
import signal
import threading
import time

import pytest

from helpers.faults import (  # noqa: F401 - kill_worker_by_pid is a fixture
    Collector,
    CrashingExecutor,
    kill_worker,
    kill_worker_by_pid,
    make_flaky_task,
)
from repro.core.pipeline import Ziggy
from repro.data.boxoffice import make_boxoffice
from repro.data.crime import make_crime
from repro.runtime.executors import (
    CharacterizationTask,
    ExecutorError,
    ProcessShardExecutor,
    WORKER_RESTART_STAGE,
    WorkerError,
)
from repro.service.jobs import JobManager

#: A wide table keeps a characterization running long enough that a
#: kill lands mid-job deterministically (seconds of search ahead).
SLOW_PREDICATE = "violent_crime_rate > 0.2"

FAST_PREDICATE = "gross > 200000000"


@pytest.fixture(scope="module")
def slow_table():
    return make_crime(n_rows=600, seed=11)


@pytest.fixture(scope="module")
def fast_table():
    return make_boxoffice(n_rows=200, seed=3)


def _submit(executor, table, where, calls: Collector):
    return executor.submit(
        CharacterizationTask(table=table.name, where=where,
                             fingerprint=table.fingerprint()),
        begin=calls.begin, progress=calls.progress, finish=calls.finish)


class TestKillMidJob:
    def test_sigkilled_worker_job_completes_via_respawn(self, slow_table):
        executor = ProcessShardExecutor(workers=1, max_restarts=2,
                                        max_retries=1)
        try:
            executor.register_table(slow_table)
            calls = Collector()
            _submit(executor, slow_table, SLOW_PREDICATE, calls)
            assert calls.began.wait(120)
            kill_worker(executor, 0)
            status, result, error = calls.wait(300)
            assert status == "done", error
            assert len(result.views) > 0
            # the recovery was observable in the event stream, between
            # the aborted attempt's stages and the retry's fresh start
            assert WORKER_RESTART_STAGE in calls.stages
            restart_at = calls.stages.index(WORKER_RESTART_STAGE)
            assert "prepared" in calls.stages[restart_at + 1:]
            payload = calls.events[restart_at].payload
            assert payload["worker"] == 0
            assert payload["restart"] == 1
            assert payload["attempt"] == 2
            assert executor.describe()["restarts"] == {"0": 1}
        finally:
            executor.close(wait=False)

    def test_begin_fires_once_across_retry(self, slow_table):
        executor = ProcessShardExecutor(workers=1, max_restarts=1,
                                        max_retries=1)
        try:
            executor.register_table(slow_table)
            begins = []
            calls = Collector()
            calls.begin = lambda: (begins.append(1), calls.began.set())
            _submit(executor, slow_table, SLOW_PREDICATE, calls)
            assert calls.began.wait(120)
            kill_worker(executor, 0)
            status, _, error = calls.wait(300)
            assert status == "done", error
            assert begins == [1]
        finally:
            executor.close(wait=False)


class TestKillLoop:
    def test_seeded_kills_each_finish_exactly_once(self, slow_table):
        """SIGKILL the worker from the relay, at a seeded event of each job.

        The worker is still sending when the signal lands, so some kills
        hit it mid-message.  That must not jam the relay for its
        replacement: every job gets exactly one terminal outcome, and it
        is ``done`` (retried, or delivered before the death).
        """
        rng = random.Random(20160901)
        trials = 8
        executor = ProcessShardExecutor(workers=1, max_restarts=trials,
                                        max_retries=1)
        try:
            executor.register_table(slow_table)
            for trial in range(trials):
                calls = Collector()
                finishes = []
                kill_at = rng.randint(1, 12)
                pid = executor._workers[0].process.pid

                def progress(event, calls=calls, kill_at=kill_at, pid=pid):
                    calls.events.append(event)
                    if len(calls.events) == kill_at:
                        os.kill(pid, signal.SIGKILL)

                def finish(status, result, error, calls=calls,
                           finishes=finishes):
                    finishes.append(status)
                    calls.finish(status, result, error)

                executor.submit(
                    CharacterizationTask(table=slow_table.name,
                                         where=SLOW_PREDICATE,
                                         fingerprint=slow_table.fingerprint()),
                    begin=calls.begin, progress=progress, finish=finish)
                status, _, error = calls.wait(60)
                assert status == "done", (trial, kill_at, error)
                time.sleep(0.2)  # room for a duplicate outcome to show
                assert finishes == ["done"], (trial, kill_at)
                # the next job goes to the replacement worker
                deadline = time.monotonic() + 30
                while (executor._workers[0].process.pid == pid
                       and time.monotonic() < deadline):
                    time.sleep(0.05)
            assert executor.describe()["restarts"] == {"0": trials}
        finally:
            executor.close(wait=False)


class TestBudgets:
    def test_respawn_cap_exhaustion_fails_with_worker_error(
            self, slow_table, fast_table):
        executor = ProcessShardExecutor(workers=1, max_restarts=0,
                                        max_retries=5)
        try:
            executor.register_table(slow_table)
            calls = Collector()
            _submit(executor, slow_table, SLOW_PREDICATE, calls)
            assert calls.began.wait(120)
            kill_worker(executor, 0)
            status, _, error = calls.wait(120)
            assert status == "failed"
            assert isinstance(error, WorkerError)
            assert "respawn cap" in str(error)
            assert executor.describe()["dead_shards"] == [0]
            # the dead shard rejects new work instead of hanging it
            with pytest.raises(ExecutorError, match="dead"):
                _submit(executor, slow_table, SLOW_PREDICATE, Collector())
        finally:
            executor.close(wait=False)

    def test_retry_budget_exhausted_but_shard_recovers(self, slow_table):
        executor = ProcessShardExecutor(workers=1, max_restarts=2,
                                        max_retries=0)
        try:
            executor.register_table(slow_table)
            calls = Collector()
            _submit(executor, slow_table, SLOW_PREDICATE, calls)
            assert calls.began.wait(120)
            kill_worker(executor, 0)
            status, _, error = calls.wait(120)
            assert status == "failed"
            assert isinstance(error, WorkerError)
            assert "retry budget" in str(error)
            # ... yet the shard itself was respawned: new work runs
            # (its registrations were replayed, no re-register needed)
            fresh = Collector()
            _submit(executor, slow_table, SLOW_PREDICATE, fresh)
            status, result, error = fresh.wait(300)
            assert status == "done", error
            assert len(result.views) > 0
        finally:
            executor.close(wait=False)


class TestWarmRestore:
    def test_registrations_and_warm_cache_replayed_after_respawn(
            self, fast_table):
        executor = ProcessShardExecutor(workers=1, max_restarts=2,
                                        max_retries=1)
        try:
            warm = Ziggy(fast_table)
            reference = warm.characterize(FAST_PREDICATE)
            executor.register_table(fast_table, cache=warm.cache)
            # kill the idle worker; the shard respawns and replays the
            # registration with a fresh warm-cache snapshot
            kill_worker(executor, 0)
            calls = Collector()
            _submit(executor, fast_table, FAST_PREDICATE, calls)
            status, result, error = calls.wait(300)
            assert status == "done", error
            assert len(result.views) == len(reference.views)
            info = executor.describe()
            assert info["restarts"] == {"0": 1}
            assert fast_table.name in info["shards"]["0"]
        finally:
            executor.close(wait=False)

    def test_snapshot_is_detached_and_complete(self, fast_table):
        warm = Ziggy(fast_table)
        warm.characterize(FAST_PREDICATE)
        snap = warm.cache.snapshot()
        assert snap.size == warm.cache.size
        assert snap.counters.hits == 0  # counters are the source's story
        # detached: growing the snapshot must not touch the source
        before = warm.cache.size
        snap.global_column_stats(fast_table, "budget")
        assert warm.cache.size == before


class TestCancelDuringRespawn:
    def test_cancel_wins_over_retry(self, slow_table):
        executor = ProcessShardExecutor(workers=1, max_restarts=2,
                                        max_retries=2)
        try:
            executor.register_table(slow_table)
            calls = Collector()
            handle = _submit(executor, slow_table, SLOW_PREDICATE, calls)
            assert calls.began.wait(120)
            kill_worker(executor, 0)
            # cancel while the shard is down / mid-respawn: the retry
            # machinery must honour it instead of re-running the task
            handle.cancel()
            status, result, _ = calls.wait(120)
            assert status == "cancelled"
            assert result is None
            assert WORKER_RESTART_STAGE not in calls.stages
        finally:
            executor.close(wait=False)


class TestCloseDuringRespawn:
    def test_close_does_not_hang_while_respawn_is_stuck(self, slow_table):
        executor = ProcessShardExecutor(workers=1, max_restarts=2,
                                        max_retries=2)
        executor.RESPAWN_DRAIN_SECONDS = 2.0
        gate = threading.Event()
        original_spawn = executor._spawn_process

        def stuck_spawn(index, generation=0):
            if generation:  # only the respawn blocks, not first boot
                gate.wait(60)
                raise RuntimeError("spawn aborted by test")
            return original_spawn(index, generation)

        executor._spawn_process = stuck_spawn
        try:
            executor.register_table(slow_table)
            calls = Collector()
            _submit(executor, slow_table, SLOW_PREDICATE, calls)
            assert calls.began.wait(120)
            kill_worker(executor, 0)
            deadline = time.monotonic() + 60
            while not executor._respawning and time.monotonic() < deadline:
                time.sleep(0.05)
            assert executor._respawning == {0}
            start = time.monotonic()
            executor.close(wait=True)
            elapsed = time.monotonic() - start
            assert elapsed < 30, "close hung on the respawn thread"
            status, _, error = calls.wait(10)
            assert status == "failed"
            assert isinstance(error, ExecutorError)
            assert "respawn" in str(error)
        finally:
            gate.set()
            executor.close(wait=False)

    def test_spawn_failure_fails_shard_cleanly(self, slow_table):
        executor = ProcessShardExecutor(workers=1, max_restarts=2,
                                        max_retries=2)

        def broken_spawn(index, generation=0):
            raise OSError("no processes left")

        try:
            executor.register_table(slow_table)
            calls = Collector()
            _submit(executor, slow_table, SLOW_PREDICATE, calls)
            assert calls.began.wait(120)
            executor._spawn_process = broken_spawn
            kill_worker(executor, 0)
            status, _, error = calls.wait(120)
            assert status == "failed"
            assert isinstance(error, WorkerError)
            assert "respawn of worker shard 0 failed" in str(error)
            assert executor.describe()["dead_shards"] == [0]
        finally:
            executor.close(wait=False)


class TestServerLevelRespawn:
    """The acceptance path: a SIGKILL'd worker's job completes via
    respawn+retry with the ``worker-restart`` event visible in the SSE
    stream of a live server."""

    def test_worker_restart_event_streams_over_sse(self, slow_table):
        from repro.gateway import make_async_server
        from repro.runtime import ZiggyRuntime
        from repro.service.client import ZiggyClient
        from repro.service.service import ZiggyService

        executor = ProcessShardExecutor(workers=2, max_restarts=2,
                                        max_retries=2)
        service = ZiggyService(runtime=ZiggyRuntime(), executor=executor)
        service.register_table(slow_table)
        server = make_async_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            client = ZiggyClient(f"http://{host}:{port}")
            job = client.submit(SLOW_PREDICATE, table=slow_table.name)
            shard = executor.shard_for(slow_table.fingerprint())
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if client.job(job.job_id).status == "running":
                    break
                time.sleep(0.05)
            kill_worker(executor, shard)
            events = list(client.stream_events(job.job_id, timeout=120))
            kinds = [event.kind for event in events]
            assert "worker-restart" in kinds
            restart = next(e for e in events if e.kind == "worker-restart")
            assert restart.data["worker"] == shard
            assert kinds[-1] == "done"
            assert events[-1].data["status"] == "done"
            final = client.job(job.job_id)
            assert final.status == "done"
            assert final.result is not None
            assert final.result.n_views > 0
        finally:
            server.close(wait=False)
            thread.join(timeout=30)


class TestParentWatchdog:
    def test_workers_exit_when_coordinator_dies_hard(self, tmp_path):
        """A SIGKILL'd coordinator never runs multiprocessing's atexit
        cleanup; the workers' parent watchdog must notice the
        reparenting and exit instead of lingering (holding inherited
        sockets) forever."""
        import os
        import signal
        import subprocess
        import sys
        import textwrap

        import repro

        script = tmp_path / "coordinator.py"
        script.write_text(textwrap.dedent("""
            import time
            from repro.runtime.executors import ProcessShardExecutor
            executor = ProcessShardExecutor(workers=2)
            print(" ".join(str(worker.process.pid)
                           for worker in executor._workers), flush=True)
            time.sleep(60)
        """))
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        coordinator = subprocess.Popen(
            [sys.executable, str(script)], stdout=subprocess.PIPE, env=env)
        pids: list[int] = []
        try:
            pids = [int(p) for p in coordinator.stdout.readline().split()]
            assert len(pids) == 2
            os.kill(coordinator.pid, signal.SIGKILL)
            coordinator.wait(timeout=30)
            deadline = time.monotonic() + 15  # watchdog ticks at 1 s
            alive = set(pids)
            while alive and time.monotonic() < deadline:
                for pid in list(alive):
                    try:
                        os.kill(pid, 0)
                    except ProcessLookupError:
                        alive.discard(pid)
                time.sleep(0.2)
            assert not alive, f"orphaned workers survived: {alive}"
        finally:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            coordinator.stdout.close()
            if coordinator.poll() is None:
                coordinator.kill()


class TestFaultHarness:
    """The reusable fault-injection pieces themselves stay honest."""

    def test_crashing_executor_injects_then_delegates(self):
        backend = CrashingExecutor(fail_submissions=(1,),
                                   preamble=(("prepared", None),))
        manager = JobManager(backend=backend)
        try:
            first = manager.submit(make_flaky_task(0, result="never"))
            job = manager.wait(first, timeout=60)
            assert job.status == "failed"
            assert isinstance(job.error, WorkerError)
            assert "injected crash" in str(job.error)
            work = make_flaky_task(0, result="second")
            job = manager.wait(manager.submit(work), timeout=60)
            assert job.status == "done"
            assert job.result == "second"
            assert work.calls["n"] == 1
            assert backend.describe()["injected"] == [1]
        finally:
            manager.shutdown(wait=False)

    def test_flaky_task_factory_is_deterministic(self):
        work = make_flaky_task(2, result="third time lucky")
        seen = []

        def run():
            return work(lambda event: seen.append(event.kind))

        with pytest.raises(WorkerError, match="attempt #1"):
            run()
        with pytest.raises(WorkerError, match="attempt #2"):
            run()
        assert run() == "third time lucky"
        assert work.calls["n"] == 3
        assert seen == ["prepared"] * 3

    def test_kill_worker_reports_the_pid(self, fast_table,
                                         kill_worker_by_pid):
        executor = ProcessShardExecutor(workers=1, max_restarts=0)
        try:
            pid = executor._workers[0].process.pid
            assert kill_worker_by_pid(executor, 0) == pid
            assert not executor._workers[0].process.is_alive()
        finally:
            executor.close(wait=False)
