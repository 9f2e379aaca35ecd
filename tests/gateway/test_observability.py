"""The gateway's health surface: saturation and fault counters on
``/healthz`` and ``GET /v2/state``."""

import json
import threading
import time

from repro.core.events import StageEvent
from repro.service.client import ZiggyClient
from repro.service.protocol import job_event_from_stage

from helpers.http_probe import http_get


class TestHealthz:
    def test_jobs_section_reports_open_and_journal_errors(
            self, box_service, serve_factory):
        base = serve_factory(box_service)
        health = json.loads(http_get(f"{base}/healthz")[2])
        assert health["jobs"] == {"open": 0, "journal_errors": 0}
        gate = threading.Event()
        box_service.jobs.submit(lambda progress: gate.wait(timeout=30))
        try:
            health = json.loads(http_get(f"{base}/healthz")[2])
            assert health["jobs"]["open"] == 1
        finally:
            gate.set()

    def test_gateway_section_tracks_open_streams(self, box_service,
                                                 serve_factory, frontend):
        base = serve_factory(box_service)
        health = json.loads(http_get(f"{base}/healthz")[2])
        gateway = health["gateway"]
        assert gateway["frontend"] == frontend
        assert gateway["open_streams"] == 0
        assert gateway["admission"] == {"enabled": False}
        assert gateway["max_pending_jobs"] is None

        hold = threading.Event()

        def work(progress):
            progress(StageEvent("note", {"i": 0}))
            hold.wait(timeout=30)
            return "ok"

        job_id = box_service.jobs.submit(
            work, event_mapper=job_event_from_stage)
        client = ZiggyClient(base, timeout=30)
        stream = client.stream_events(job_id)
        assert next(stream).kind == "note"  # the stream is live
        try:
            deadline = time.monotonic() + 10
            while True:
                gateway = json.loads(
                    http_get(f"{base}/healthz")[2])["gateway"]
                if gateway["open_streams"] == 1:
                    break
                assert time.monotonic() < deadline, gateway
                time.sleep(0.05)
            assert gateway["peak_streams"] >= 1
        finally:
            hold.set()
            stream.close()


class TestStateReport:
    def test_state_carries_gateway_section(self, box_service,
                                           serve_factory, frontend):
        base = serve_factory(box_service)
        # Raw payload: the section rides on the state report.
        _, _, body = http_get(f"{base}/v2/state")
        payload = json.loads(body)
        assert payload["gateway"]["frontend"] == frontend
        assert "open_streams" in payload["gateway"]
        # And the typed client parses it.
        report = ZiggyClient(base, timeout=30).state()
        assert report.gateway is not None
        assert report.gateway["frontend"] == frontend
