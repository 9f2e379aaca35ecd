"""Concurrency stress test of :class:`JobManager` retention.

Two hundred short jobs churn through a manager retaining only eight
finished records while reader threads hammer ``events_since`` on every
job they have seen.  The invariants under stress:

* nothing deadlocks (every thread joins within its deadline);
* a pruned job raises :class:`JobNotFoundError` — for fresh calls and
  for waiters already blocked on it when the prune happened;
* a job that is still queryable always reports **its own** result,
  never another submission's (no stale/recycled records).
"""

import random
import threading

import pytest

from repro.core.events import StageEvent
from repro.errors import JobNotFoundError
from repro.service.jobs import JobManager

N_JOBS = 200
MAX_FINISHED = 8


class TestRetentionUnderStress:
    def test_200_short_jobs_with_concurrent_event_readers(self):
        manager = JobManager(max_workers=4, max_finished=MAX_FINISHED)
        submitted: list[str] = []
        expected_for: dict[str, str] = {}
        submitted_lock = threading.Lock()
        stop = threading.Event()
        failures: list[str] = []

        def reader(seed: int) -> None:
            rng = random.Random(seed)
            not_found = 0
            served = 0
            while not stop.is_set():
                with submitted_lock:
                    known = list(submitted)
                if not known:
                    continue
                job_id = rng.choice(known)
                try:
                    events, _finished = manager.events_since(
                        job_id, after_seq=0, timeout=0.02)
                except JobNotFoundError:
                    not_found += 1  # pruned — the documented outcome
                    continue
                served += 1
                with submitted_lock:
                    expected = expected_for[job_id]
                for _seq, stage, payload in events:
                    if stage == "tick" and payload["marker"] != expected:
                        failures.append(
                            f"{job_id} served a stale event "
                            f"({payload['marker']!r} != {expected!r})")
            if served == 0 and not_found == 0:
                failures.append(f"reader {seed} never observed a job")

        readers = [threading.Thread(target=reader, args=(seed,),
                                    name=f"retention-reader-{seed}")
                   for seed in range(3)]
        for thread in readers:
            thread.start()
        try:
            for index in range(N_JOBS):
                expected = f"result-{index}"

                def work(progress, _marker=expected):
                    progress(StageEvent("tick", {"marker": _marker}))
                    return _marker

                job_id = manager.submit(work)
                # readers only learn the ID through this list, so the
                # marker mapping is always in place before they can ask
                with submitted_lock:
                    expected_for[job_id] = expected
                    submitted.append(job_id)
                job = manager.wait(job_id, timeout=30)
                if job.finished and job.status == "done":
                    assert job.result == expected, (
                        f"{job_id} returned {job.result!r}, "
                        f"expected {expected!r}")
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            manager.shutdown(wait=True)
        assert not any(thread.is_alive() for thread in readers), \
            "a reader thread deadlocked"
        assert failures == []
        # retention actually bounded the ledger
        manager.prune()
        assert len(manager.job_ids()) <= MAX_FINISHED
        # pruned jobs behave exactly like unknown ones
        pruned = [job_id for job_id in submitted
                  if job_id not in manager.job_ids()]
        assert pruned, "stress run never pruned anything"
        with pytest.raises(JobNotFoundError):
            manager.events_since(pruned[0], timeout=0.01)
        with pytest.raises(JobNotFoundError):
            manager.get(pruned[0])

    def test_blocked_waiter_survives_finish_then_immediate_prune(self):
        """A reader blocked on a *running* job must wake promptly when
        the job finishes — even when retention prunes the record right
        behind the finish — and a fresh read after the prune raises
        :class:`JobNotFoundError` instead of blocking."""
        manager = JobManager(max_workers=2, max_finished=0)
        gate = threading.Event()
        try:
            job_id = manager.submit(lambda progress: gate.wait(30))
            outcome: dict = {}

            def blocked_reader():
                try:
                    outcome["value"] = manager.events_since(
                        job_id, after_seq=0, timeout=30)
                except JobNotFoundError:
                    outcome["value"] = "not-found"

            thread = threading.Thread(target=blocked_reader)
            thread.start()
            gate.set()
            manager.wait(job_id, timeout=30)
            manager.prune()  # max_finished=0: gone the moment it ends
            thread.join(timeout=10)
            assert not thread.is_alive(), "waiter missed the wake-up"
            # either ordering is legal; hanging is not
            assert outcome["value"] in (([], True), "not-found")
            with pytest.raises(JobNotFoundError):
                manager.events_since(job_id, timeout=0.01)
        finally:
            gate.set()
            manager.shutdown(wait=False)
