"""Service-level tests across executor backends: jobs, SSE streaming,
cancellation mid-stage, event-stream resumption with stale cursors, job
retention, and server drain — under both the thread and the process
backend (plus inline where determinism helps)."""

import threading
import time

import pytest

from repro.data.crime import make_crime
from repro.errors import JobNotFoundError
from repro.gateway import make_async_server
from repro.runtime import ZiggyRuntime
from repro.service import CharacterizeRequest, ZiggyService
from repro.service.client import ZiggyClient
from repro.service.jobs import JobManager

#: A selective predicate that works on every crime table size used here.
PREDICATE = "violent_crime_rate > 0.14"

BACKENDS = ("thread", "process")


@pytest.fixture(scope="module")
def crime_table():
    # 128 columns: a characterization long enough to stream many events.
    return make_crime(n_rows=1994)


def make_service(backend, table, max_workers=2):
    service = ZiggyService(max_workers=max_workers,
                           runtime=ZiggyRuntime(), executor=backend)
    service.register_table(table)
    return service


@pytest.fixture(params=BACKENDS, scope="module")
def service(request, crime_table):
    svc = make_service(request.param, crime_table)
    yield svc
    svc.shutdown(wait=False)


@pytest.fixture(params=BACKENDS, scope="module")
def served(request, crime_table):
    """A service behind the async gateway, and a client for it."""
    svc = make_service(request.param, crime_table)
    server = make_async_server(svc, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield svc, ZiggyClient(f"http://{host}:{port}", timeout=60)
    server.close(wait=False)
    thread.join(timeout=10)


@pytest.fixture
def http(served):
    return served[1]


class CancelGate:
    """Holds a job at its first progress event until the test has issued
    the cancel, so the job cannot finish before the cancel lands.

    The hook runs where the backend relays progress: on the job's worker
    thread (thread backend) or on the shard pump (process backend).
    Either way nothing the job reports after its first event is handled
    before :meth:`release`.
    """

    def __init__(self):
        self.first_event = threading.Event()
        self.released = threading.Event()

    def on_progress(self, stage, payload):
        self.first_event.set()
        self.released.wait(60)

    def wait_first_event(self):
        assert self.first_event.wait(60), "no stage event before timeout"

    def release(self):
        self.released.set()


class TestJobsAcrossBackends:
    def test_submit_wait_done_with_views(self, service):
        snapshot = service.submit(CharacterizeRequest(where=PREDICATE))
        final = service.wait(snapshot.job_id, timeout=120)
        assert final.status == "done"
        assert final.result is not None
        assert final.result.n_views > 0
        assert final.result.table == "us_crime"

    def test_session_history_records_the_run(self, service):
        client_id = f"historian-{service.executor.kind}"
        snapshot = service.submit(CharacterizeRequest(
            where=PREDICATE, client_id=client_id))
        final = service.wait(snapshot.job_id, timeout=120)
        assert final.status == "done"
        session = service.session(client_id)
        assert len(session.history) == 1
        assert session.history[-1].table_name == "us_crime"
        # the detail panel works after a cross-process run too
        assert session.view_detail(1)

    def test_wire_events_cover_pipeline_stages(self, service):
        snapshot = service.submit(CharacterizeRequest(where=PREDICATE))
        service.wait(snapshot.job_id, timeout=120)
        events, finished = service.job_events(snapshot.job_id, timeout=10)
        assert finished
        kinds = [e.kind for e in events]
        assert kinds[0] == "prepared"
        assert "component-scored" in kinds
        assert "view-ranked" in kinds
        assert "search-complete" in kinds
        assert "view-ready" in kinds
        assert kinds[-1] == "result"
        ready = [e for e in events if e.kind == "view-ready"]
        assert ready[0].data["explanation"]

    def test_cancel_mid_stage(self, service):
        gate = CancelGate()
        snapshot = service.submit(
            CharacterizeRequest(where="violent_crime_rate > 0.2",
                                client_id=f"cancel-{service.executor.kind}"),
            on_progress=gate.on_progress)
        try:
            gate.wait_first_event()
            service.cancel(snapshot.job_id)
        finally:
            gate.release()
        final = service.wait(snapshot.job_id, timeout=120)
        assert final.status == "cancelled"
        # the event log stops at the cancellation point; no result event
        events, finished = service.job_events(snapshot.job_id, timeout=5)
        assert finished
        assert all(e.kind != "result" for e in events)

    def test_events_since_stale_cursor_resumes(self, service):
        snapshot = service.submit(CharacterizeRequest(where=PREDICATE))
        service.wait(snapshot.job_id, timeout=120)
        all_events, _ = service.job_events(snapshot.job_id, timeout=10)
        assert len(all_events) >= 3
        # resume from the middle: only the tail comes back, same seqs
        middle = all_events[len(all_events) // 2].seq
        tail, finished = service.job_events(snapshot.job_id,
                                            after_seq=middle, timeout=10)
        assert finished
        assert [e.seq for e in tail] == \
            [e.seq for e in all_events if e.seq > middle]
        # a cursor beyond the log is not an error: empty + finished
        beyond, finished = service.job_events(
            snapshot.job_id, after_seq=all_events[-1].seq + 100, timeout=2)
        assert beyond == [] and finished


class TestHttpAcrossBackends:
    def test_sse_stream_end_to_end(self, http):
        job = http.submit(PREDICATE)
        kinds = [event.kind for event in http.stream_events(job.job_id)]
        assert kinds[0] == "prepared"
        assert "view-ready" in kinds
        assert kinds[-1] == "done"
        assert http.job(job.job_id).status == "done"

    def test_sse_cancel_mid_stream(self, served, monkeypatch):
        svc, http = served
        gate = CancelGate()
        submit = svc.jobs.submit

        def gated_submit(*args, on_progress=None, **kwargs):
            assert on_progress is None  # an HTTP job has no caller hook
            return submit(*args, on_progress=gate.on_progress, **kwargs)

        # HTTP-submitted jobs get the gate as their progress hook.
        monkeypatch.setattr(svc.jobs, "submit", gated_submit)
        try:
            job = http.submit("violent_crime_rate > 0.2")
            kinds = []
            for event in http.stream_events(job.job_id):
                kinds.append(event.kind)
                if len(kinds) == 1:
                    assert event.kind != "done"
                    http.cancel(job.job_id)
                    gate.release()
        finally:
            gate.release()
        assert kinds[-1] == "done"
        assert http.job(job.job_id).status == "cancelled"

    def test_stream_resumption_after_drop(self, http):
        """A client that lost its stream replays from a stale cursor via
        the long-poll primitive underneath the SSE route."""
        job = http.submit(PREDICATE)
        http.wait(job.job_id, timeout=120)
        events = list(http.stream_events(job.job_id))
        # replaying the finished stream yields the same events again
        replay = list(http.stream_events(job.job_id))
        assert [e.seq for e in replay] == [e.seq for e in events]

    def test_health_reports_executor(self, http):
        health = http.health()
        assert health["executor"]["kind"] in BACKENDS


class TestJobRetention:
    def test_terminal_jobs_pruned_beyond_max_finished(self):
        manager = JobManager(max_workers=1, max_finished=2)
        try:
            ids = [manager.submit(lambda progress: "ok") for _ in range(3)]
            for job_id in ids:
                manager.wait(job_id, timeout=10)
            # the 4th submission prunes the oldest terminal job
            ids.append(manager.submit(lambda progress: "ok"))
            manager.wait(ids[-1], timeout=10)
            with pytest.raises(JobNotFoundError):
                manager.get(ids[0])
            with pytest.raises(JobNotFoundError):
                manager.events_since(ids[0], timeout=0.1)
            assert manager.get(ids[2]).status == "done"
        finally:
            manager.shutdown(wait=False)

    def test_ttl_prunes_old_terminal_jobs(self):
        manager = JobManager(max_workers=1, finished_ttl=0.05)
        try:
            job_id = manager.submit(lambda progress: "ok")
            manager.wait(job_id, timeout=10)
            time.sleep(0.1)
            assert manager.prune() == 1
            with pytest.raises(JobNotFoundError):
                manager.get(job_id)
        finally:
            manager.shutdown(wait=False)

    def test_blocked_events_since_raises_when_pruned(self):
        """The satellite fix: a streamer blocked in events_since with no
        timeout must be woken and raised when its job is pruned, never
        left waiting on a condition nobody will signal again."""
        manager = JobManager(max_workers=1)
        try:
            gate = threading.Event()
            job_id = manager.submit(lambda progress: gate.wait(30))
            outcome: dict = {}

            def blocked_stream():
                try:
                    # stale cursor beyond the log + no timeout: blocks
                    # until events arrive, the job finishes — or a prune
                    # forgets the job while we wait (the bug's scenario).
                    manager.events_since(job_id, after_seq=999,
                                         timeout=None)
                    outcome["result"] = "returned"
                except JobNotFoundError:
                    outcome["result"] = "raised"

            waiter = threading.Thread(target=blocked_stream)
            waiter.start()
            time.sleep(0.2)  # let the waiter block
            # Simulate the prune landing while the waiter is parked
            # (pruning normally only touches terminal jobs; the race is
            # a waiter that entered just before the transition+prune).
            job = manager.get(job_id)
            with manager._lock:
                manager._jobs.pop(job_id)
                manager._handles.pop(job_id, None)
            manager._wake_pruned([job])
            waiter.join(timeout=10)
            assert not waiter.is_alive(), "waiter is blocked forever"
            assert outcome["result"] == "raised"
            # and post-prune callers get the typed error immediately
            with pytest.raises(JobNotFoundError):
                manager.events_since(job_id, timeout=0.1)
            gate.set()
        finally:
            manager.shutdown(wait=False)

    def test_unknown_job_raises_immediately(self):
        manager = JobManager(max_workers=1)
        try:
            start = time.monotonic()
            with pytest.raises(JobNotFoundError):
                manager.events_since("job-999999", timeout=None)
            assert time.monotonic() - start < 1.0
        finally:
            manager.shutdown(wait=False)


class TestServerDrain:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_close_drains_sse_handlers_and_backend(self, backend,
                                                   crime_table):
        service = make_service(backend, crime_table, max_workers=1)
        server = make_async_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ZiggyClient(f"http://{host}:{port}", timeout=30)

        # park a streaming handler on a job that is still running
        job = client.submit("violent_crime_rate > 0.2")
        stream_done = threading.Event()

        def consume():
            try:
                for _event in client.stream_events(job.job_id):
                    pass
            except Exception:  # noqa: BLE001 - a cut stream is expected
                pass
            finally:
                stream_done.set()

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        time.sleep(0.2)

        start = time.monotonic()
        server.close(wait=False)
        elapsed = time.monotonic() - start
        assert elapsed < 15, f"drain took {elapsed:.1f}s"
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert stream_done.wait(10), "client stream never terminated"
        # double close is safe
        server.close(wait=False)

    def test_inline_service_runs_jobs_synchronously(self, crime_table):
        service = make_service("inline", crime_table)
        try:
            snapshot = service.submit(CharacterizeRequest(where=PREDICATE))
            # inline: terminal before submit() even returns
            assert snapshot.status == "done"
            assert snapshot.result.n_views > 0
        finally:
            service.shutdown(wait=False)
