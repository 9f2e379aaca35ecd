"""HTTP-level backpressure and admission tests: bounded job queue ->
429 + Retry-After, per-client and per-table rejection, and the client's
transparent throttle retry."""

import json
import threading
import time

import pytest

from repro.gateway import GatewayPolicy
from repro.service.client import RemoteError, ZiggyClient

from helpers.http_probe import http_get, http_post


def _throttle_fields(headers: dict, body: bytes) -> tuple[int, float, str]:
    """(Retry-After header, detail.retry_after, detail.scope) of a 429."""
    payload = json.loads(body)
    assert payload["ok"] is False
    assert payload["error"]["code"] == "throttled"
    detail = payload["error"]["detail"]
    header = {k.lower(): v for k, v in headers.items()}["retry-after"]
    return int(header), float(detail["retry_after"]), detail["scope"]


class TestBoundedQueue:
    def test_full_queue_answers_429_with_retry_after(self, box_service,
                                                     serve_factory):
        base = serve_factory(box_service,
                             GatewayPolicy(max_pending_jobs=0,
                                           queue_retry_after=2.5))
        status, headers, body = http_post(
            f"{base}/v2/jobs", {"where": "gross > 200000000"})
        assert status == 429
        header, exact, scope = _throttle_fields(headers, body)
        assert scope == "queue"
        assert exact == 2.5
        assert header == 3  # ceil(2.5); the header is integer seconds
        health = json.loads(http_get(f"{base}/healthz")[2])
        assert health["gateway"]["queue_rejected"] == 1

    def test_queue_frees_as_jobs_finish(self, box_service, serve_factory):
        base = serve_factory(box_service,
                             GatewayPolicy(max_pending_jobs=1))
        gate = threading.Event()
        box_service.jobs.submit(lambda progress: gate.wait(timeout=30))
        try:
            status, _, _ = http_post(
                f"{base}/v2/jobs", {"where": "gross > 200000000"})
            assert status == 429  # the gated job occupies the only slot
        finally:
            gate.set()
        deadline = time.monotonic() + 30
        while box_service.jobs.open_jobs() > 0:
            assert time.monotonic() < deadline, "gated job never finished"
            time.sleep(0.02)
        status, _, body = http_post(
            f"{base}/v2/jobs", {"where": "gross > 200000000"})
        assert status == 200, body

    def test_sync_characterize_not_queue_bounded(self, box_service,
                                                 serve_factory):
        # The queue bound governs *submissions*; synchronous requests
        # don't occupy the job queue and must pass.
        base = serve_factory(box_service,
                             GatewayPolicy(max_pending_jobs=0))
        status, _, body = http_post(
            f"{base}/v2/characterize", {"where": "gross > 200000000"})
        assert status == 200, body


class TestAdmissionOverHttp:
    def test_per_client_rejection(self, box_service, serve_factory):
        base = serve_factory(box_service,
                             GatewayPolicy(client_rate=0.001,
                                           client_burst=1))
        payload = {"where": "gross > 200000000", "client_id": "alice"}
        assert http_post(f"{base}/v2/characterize", payload)[0] == 200
        status, headers, body = http_post(f"{base}/v2/characterize",
                                          payload)
        assert status == 429
        header, exact, scope = _throttle_fields(headers, body)
        assert scope == "client"
        assert exact > 0 and header >= 1
        # Another client is not affected by alice's exhausted bucket.
        status, _, _ = http_post(
            f"{base}/v2/characterize",
            {"where": "gross > 200000000", "client_id": "bob"})
        assert status == 200
        health = json.loads(http_get(f"{base}/healthz")[2])
        assert health["gateway"]["throttled"]["client"] == 1

    def test_per_table_rejection(self, box_service, serve_factory):
        base = serve_factory(box_service,
                             GatewayPolicy(table_rate=0.001,
                                           table_burst=1))
        first = {"where": "gross > 200000000", "table": "boxoffice",
                 "client_id": "alice"}
        assert http_post(f"{base}/v2/characterize", first)[0] == 200
        # A *different* client hits the same table's bucket.
        status, headers, body = http_post(
            f"{base}/v2/characterize",
            {"where": "gross > 200000000", "table": "boxoffice",
             "client_id": "bob"})
        assert status == 429
        _, _, scope = _throttle_fields(headers, body)
        assert scope == "table"
        health = json.loads(http_get(f"{base}/healthz")[2])
        assert health["gateway"]["throttled"]["table"] == 1

    def test_submission_inner_request_is_governed(self, box_service,
                                                  serve_factory):
        # Admission reads client_id/table from the submit envelope's
        # inner request, not the envelope itself.
        base = serve_factory(box_service,
                             GatewayPolicy(client_rate=0.001,
                                           client_burst=1))
        payload = {"where": "gross > 200000000", "client_id": "carol"}
        assert http_post(f"{base}/v2/jobs", payload)[0] == 200
        assert http_post(f"{base}/v2/jobs", payload)[0] == 429


class TestClientRetry:
    def test_client_honours_retry_after_and_succeeds(self, box_service,
                                                     serve_factory):
        # rate 5/s, burst 1: the second submit is throttled for ~0.2s;
        # the client sleeps that out and retries transparently.
        base = serve_factory(box_service,
                             GatewayPolicy(client_rate=5.0,
                                           client_burst=1))
        client = ZiggyClient(base, timeout=30, throttle_retries=3)
        first = client.submit("gross > 200000000")
        second = client.submit("gross > 150000000")
        assert first.job_id != second.job_id
        for job_id in (first.job_id, second.job_id):
            assert client.wait(job_id, timeout=60).status == "done"

    def test_retry_disabled_surfaces_429(self, box_service, serve_factory):
        base = serve_factory(box_service,
                             GatewayPolicy(client_rate=0.001,
                                           client_burst=1))
        client = ZiggyClient(base, timeout=30, throttle_retries=0)
        client.submit("gross > 200000000")
        with pytest.raises(RemoteError) as err:
            client.submit("gross > 150000000")
        assert err.value.status == 429
        assert err.value.code == "throttled"
        assert err.value.retry_after is not None
        assert err.value.retry_after > 0
