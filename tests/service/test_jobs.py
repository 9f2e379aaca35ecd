"""Tests for the job manager: lifecycle, cancellation, failure."""

import threading
import time

import pytest

from repro.core.events import StageEvent
from repro.errors import JobCancelled, JobNotFoundError
from repro.persistence.journal import JobJournal
from repro.service.jobs import JobManager


@pytest.fixture
def manager():
    m = JobManager(max_workers=1)
    yield m
    m.shutdown(wait=False)


class TestLifecycle:
    def test_submit_run_done(self, manager):
        job_id = manager.submit(lambda progress: 42)
        job = manager.wait(job_id, timeout=5)
        assert job.status == "done"
        assert job.result == 42
        assert job.finished

    def test_ids_are_unique_and_ordered(self, manager):
        first = manager.submit(lambda progress: 1)
        second = manager.submit(lambda progress: 2)
        assert first != second
        assert manager.job_ids() == (first, second)

    def test_timings_cover_queue_and_run(self, manager):
        job_id = manager.submit(lambda progress: time.sleep(0.01) or "ok")
        job = manager.wait(job_id, timeout=5)
        timings = job.timings_ms()
        assert timings["queued"] >= 0.0
        assert timings["run"] >= 10.0

    def test_progress_events_captured_as_partials(self, manager):
        def work(progress):
            progress(StageEvent("view-ranked", {"rank": 1}))
            progress(StageEvent("view-ranked", {"rank": 2}))
            # only view-ranked events are partials
            progress(StageEvent("result", "ignored"))
            return "done"

        job = manager.wait(manager.submit(work), timeout=5)
        assert job.status == "done"
        assert job.partial == [{"rank": 1}, {"rank": 2}]

    def test_unknown_job_raises(self, manager):
        with pytest.raises(JobNotFoundError):
            manager.get("job-999999")
        with pytest.raises(JobNotFoundError):
            manager.cancel("job-999999")


class TestFailure:
    def test_exception_becomes_failed(self, manager):
        def work(progress):
            raise ValueError("kaboom")

        job = manager.wait(manager.submit(work), timeout=5)
        assert job.status == "failed"
        assert isinstance(job.error, ValueError)
        assert job.result is None


class TestCancellation:
    def test_cancel_pending_job_never_runs(self, manager):
        release = threading.Event()
        ran = []

        blocker_id = manager.submit(
            lambda progress: release.wait(timeout=10))
        pending_id = manager.submit(
            lambda progress: ran.append(True))
        cancelled = manager.cancel(pending_id)
        release.set()
        manager.wait(blocker_id, timeout=5)
        job = manager.wait(pending_id, timeout=5)
        assert cancelled.status == "cancelled"
        assert job.status == "cancelled"
        assert not ran

    def test_cancel_running_job_stops_at_next_progress(self, manager):
        started = threading.Event()
        release = threading.Event()

        def work(progress):
            for i in range(1000):
                progress(StageEvent("view-ranked", i))
                started.set()
                release.wait(timeout=10)
            return "finished"

        job_id = manager.submit(work)
        assert started.wait(timeout=5)
        manager.cancel(job_id)   # lands while the worker blocks in progress
        release.set()
        job = manager.wait(job_id, timeout=5)
        assert job.status == "cancelled"
        assert job.result is None

    def test_cancel_after_done_is_a_noop(self, manager):
        job_id = manager.submit(lambda progress: "ok")
        manager.wait(job_id, timeout=5)
        job = manager.cancel(job_id)
        assert job.status == "done"
        assert job.result == "ok"

    def test_progress_raises_job_cancelled_for_worker(self, manager):
        """The cooperative mechanism: progress raises inside the worker."""
        seen = []

        def work(progress):
            manager.cancel(manager.job_ids()[0])  # self-cancel
            try:
                progress(StageEvent("view-ranked", 1))
            except JobCancelled as exc:
                seen.append(exc)
                raise
            return "never"

        job = manager.wait(manager.submit(work), timeout=5)
        assert job.status == "cancelled"
        assert seen


class TestJournal:
    def test_fallback_record_is_built_only_for_an_event_that_fails_to_encode(
            self, tmp_path):
        reprs = []

        class Traced(str):
            def __repr__(self):
                reprs.append(str(self))
                return str.__repr__(self)

        class Opaque:
            def __repr__(self):
                return "<opaque>"

        def work(progress):
            progress(StageEvent("note", {"label": Traced("fine")}))
            progress(StageEvent("note", {"thing": Opaque()}))
            return "ok"

        journal = JobJournal(str(tmp_path), fsync="never")
        manager = JobManager(max_workers=1, journal=journal)
        try:
            job = manager.wait(manager.submit(work), timeout=5)
        finally:
            manager.shutdown(wait=True)
        assert job.status == "done"
        # The encodable event never rendered a stand-in for itself.
        assert reprs == []
        records, _ = journal.replay()
        journal.close()
        assert [r["data"] for r in records if r["t"] == "event"] == [
            {"label": "fine"}, {"info": "{'thing': <opaque>}"}]
        assert manager.journal_errors == 0
