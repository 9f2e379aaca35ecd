"""Last-Event-ID resume: the server replays strictly after the cursor,
and the client reconnects a cut stream without duplicating or losing
events."""

import threading
import time

import pytest

from repro.core.events import StageEvent
from repro.service.client import TransportError, ZiggyClient
from repro.service.protocol import job_event_from_stage


def _submit_gated_job(service, n_events: int = 10):
    gate = threading.Event()

    def work(progress):
        for i in range(n_events):
            progress(StageEvent("note", {"i": i}))
        gate.wait(timeout=60)
        return "ok"

    job_id = service.jobs.submit(work, event_mapper=job_event_from_stage)
    deadline = time.monotonic() + 30
    while True:
        events, _ = service.job_events(job_id, after_seq=0, timeout=0.2)
        if len(events) >= n_events:
            return job_id, gate
        assert time.monotonic() < deadline


class TestServerSideResume:
    def test_after_cursor_skips_replayed_prefix(self, box_service,
                                                serve_factory):
        base = serve_factory(box_service)
        job_id, gate = _submit_gated_job(box_service)
        gate.set()
        client = ZiggyClient(base, timeout=30)
        full = list(client.stream_events(job_id))
        assert [e.data["i"] for e in full if e.kind == "note"] == \
            list(range(10))
        cursor = full[4].seq
        resumed = list(client.stream_events(job_id, after=cursor))
        assert [e.seq for e in resumed] == \
            [e.seq for e in full if e.seq > cursor]

    def test_garbled_cursor_restarts_from_scratch(self, box_service,
                                                  serve_factory):
        from helpers.http_probe import http_get
        base = serve_factory(box_service)
        job_id, gate = _submit_gated_job(box_service)
        gate.set()
        box_service.wait(job_id, timeout=30)
        _, _, body = http_get(f"{base}/v2/jobs/{job_id}/events",
                              headers={"Last-Event-ID": "not-a-number"},
                              timeout=60)
        assert body.count(b"event: note") == 10  # full replay


class TestClientReconnect:
    def test_cut_stream_resumes_without_dup_or_loss(self, box_service,
                                                    serve_factory,
                                                    monkeypatch):
        base = serve_factory(box_service)
        job_id, gate = _submit_gated_job(box_service)
        gate.set()
        box_service.wait(job_id, timeout=30)
        client = ZiggyClient(base, timeout=30)
        cursors = []
        real = client._stream_once

        def flaky(job_id, after, timeout):
            cursors.append(after)
            stream = real(job_id, after, timeout)
            if len(cursors) == 1:
                # First connection dies after 4 events, mid-job.
                def truncated():
                    for i, event in enumerate(stream):
                        if i == 4:
                            raise TransportError("connection reset")
                        yield event
                return truncated()
            return stream

        monkeypatch.setattr(client, "_stream_once", flaky)
        events = list(client.stream_events(job_id))
        seqs = [e.seq for e in events]
        assert sorted(set(seqs)) == seqs, f"duplicated events: {seqs}"
        assert [e.data["i"] for e in events if e.kind == "note"] == \
            list(range(10)), "lost events across the reconnect"
        assert events[-1].kind == "done"
        # The reconnect carried the last-seen cursor, not zero.
        assert cursors == [0, 4]

    def test_reconnect_budget_exhausted_raises(self, box_service,
                                               serve_factory, monkeypatch):
        base = serve_factory(box_service)
        job_id, gate = _submit_gated_job(box_service)
        gate.set()
        box_service.wait(job_id, timeout=30)
        client = ZiggyClient(base, timeout=30)

        def always_cut(job_id, after, timeout):
            raise TransportError("connection refused")
            yield  # pragma: no cover - makes this a generator

        monkeypatch.setattr(client, "_stream_once", always_cut)
        with pytest.raises(TransportError):
            list(client.stream_events(job_id, reconnects=2))
