"""Tests for the streamed job event pipeline: JobManager event log,
service wire conversion, and the SSE endpoint end to end."""

import threading

import pytest

from repro.core.events import StageEvent
from repro.errors import JobNotFoundError
from repro.gateway import make_async_server
from repro.runtime import ZiggyRuntime
from repro.service import CharacterizeRequest, ZiggyService
from repro.service.client import RemoteError, ZiggyClient
from repro.service.jobs import JobManager


@pytest.fixture
def service(boxoffice_small):
    s = ZiggyService(max_workers=2, runtime=ZiggyRuntime())
    s.register_table(boxoffice_small)
    yield s
    s.shutdown(wait=False)


# One value, kept so test ids stay stable (``test_x[async]``).
@pytest.fixture(params=("async",))
def http(boxoffice_small):
    service = ZiggyService(max_workers=2, runtime=ZiggyRuntime())
    service.register_table(boxoffice_small)
    server = make_async_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield ZiggyClient(f"http://{host}:{port}", timeout=30)
    server.shutdown()
    server.server_close()
    service.shutdown(wait=False)
    thread.join(timeout=5)


class TestJobEventLog:
    def test_events_recorded_in_order(self):
        manager = JobManager(max_workers=1)
        try:
            def work(progress):
                progress(StageEvent("view-ranked", {"rank": 1}))
                progress(StageEvent("result", "done"))
                return "ok"

            job_id = manager.submit(work)
            manager.wait(job_id, timeout=10)
            events, finished = manager.events_since(job_id, timeout=1)
            assert finished
            assert [(seq, kind) for seq, kind, _ in events] == \
                [(1, "view-ranked"), (2, "result")]
        finally:
            manager.shutdown(wait=False)

    def test_events_since_filters_and_blocks(self):
        manager = JobManager(max_workers=1)
        try:
            gate = threading.Event()

            def work(progress):
                progress(StageEvent("view-ranked", 1))
                gate.wait(timeout=10)
                progress(StageEvent("view-ranked", 2))
                return "ok"

            job_id = manager.submit(work)
            first, finished = manager.events_since(job_id, timeout=5)
            assert [k for _, k, _ in first] == ["view-ranked"]
            assert not finished
            gate.set()
            rest, finished = manager.events_since(
                job_id, after_seq=first[-1][0], timeout=5)
            # blocks until the second event (and possibly completion);
            # view-ranked payloads carry their keep-order rank:
            # (rank, payload)
            assert any(k == "view-ranked" and p == (2, 2)
                       for _, k, p in rest)
        finally:
            manager.shutdown(wait=False)

    def test_timeout_returns_empty_unfinished(self):
        manager = JobManager(max_workers=1)
        try:
            gate = threading.Event()
            job_id = manager.submit(lambda progress: gate.wait(timeout=10))
            events, finished = manager.events_since(job_id, timeout=0.05)
            assert events == [] and not finished
            gate.set()
        finally:
            manager.shutdown(wait=False)


class TestServiceJobEvents:
    def test_wire_events_cover_pipeline_stages(self, service):
        snapshot = service.submit(CharacterizeRequest(
            where="gross > 200000000"))
        service.wait(snapshot.job_id, timeout=60)
        events, finished = service.job_events(snapshot.job_id, timeout=5)
        assert finished
        kinds = [e.kind for e in events]
        assert kinds[0] == "prepared"
        assert "component-scored" in kinds
        assert "view-ranked" in kinds
        assert "search-complete" in kinds
        assert "view-ready" in kinds
        assert kinds[-1] == "result"
        # view events carry full serialized views
        ready = [e for e in events if e.kind == "view-ready"]
        assert ready[0].data["explanation"]
        assert ready[0].data["rank"] == 1
        # streamed view-ranked events are numbered in keep order
        ranked = [e.data["rank"] for e in events if e.kind == "view-ranked"]
        assert ranked == list(range(1, len(ranked) + 1))
        # sequence numbers are strictly increasing
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_unknown_job_raises(self, service):
        with pytest.raises(JobNotFoundError):
            service.job_events("job-999999", timeout=0.1)


class TestHttpStreaming:
    def test_stream_receives_view_ready_before_done(self, http):
        """Acceptance: a streamed /v2/jobs/<id>/events consumer receives
        at least one view-ready event before the job reaches done."""
        job = http.submit("gross > 200000000")
        kinds = []
        for event in http.stream_events(job.job_id):
            kinds.append(event.kind)
            if event.kind == "done":
                assert event.data["status"] == "done"
        assert "view-ready" in kinds
        assert kinds[-1] == "done"
        assert kinds.index("view-ready") < kinds.index("done")
        # the poll API agrees the job finished
        assert http.job(job.job_id).status == "done"

    def test_stream_of_finished_job_replays_and_terminates(self, http):
        job = http.submit("gross > 150000000")
        http.wait(job.job_id, timeout=60)
        events = list(http.stream_events(job.job_id))
        kinds = [e.kind for e in events]
        assert kinds[0] == "prepared"
        assert kinds[-1] == "done"

    def test_stream_unknown_job_is_structured_404(self, http):
        with pytest.raises(RemoteError) as err:
            list(http.stream_events("job-424242"))
        assert err.value.code == "job_not_found"

    def test_failed_job_streams_done_failed(self, http):
        job = http.submit("no_such_column > 1")
        events = list(http.stream_events(job.job_id))
        assert events[-1].kind == "done"
        assert events[-1].data["status"] == "failed"

    def test_truncated_stream_raises_not_completes(self):
        """A connection that drops before the terminal done event must
        surface as a TransportError, never as normal completion."""
        import http.server
        import socketserver

        from repro.service.client import TransportError

        class Truncating(http.server.BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                self.send_response(200)
                self.send_header("Content-Type", "text/event-stream")
                self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(
                    b"id: 1\nevent: prepared\ndata: {}\n\n")
                # connection closes here: no "done" event ever arrives

            def log_message(self, *args):
                pass

        with socketserver.TCPServer(("127.0.0.1", 0), Truncating) as srv:
            threading.Thread(target=srv.handle_request, daemon=True).start()
            host, port = srv.server_address
            client = ZiggyClient(f"http://{host}:{port}", timeout=10)
            events = []
            # reconnects=0: the fake server answers exactly one request,
            # so the truncation must surface instead of being retried.
            with pytest.raises(TransportError, match="before the 'done'"):
                for event in client.stream_events("job-000001",
                                                  reconnects=0):
                    events.append(event)
            assert [e.kind for e in events] == ["prepared"]
