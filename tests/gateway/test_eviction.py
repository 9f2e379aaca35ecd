"""Slow-consumer eviction: a stalled SSE subscriber is dropped without
delaying healthy subscribers of the same job."""

import json
import socket
import threading
import time
import urllib.parse

import pytest

from repro.core.events import StageEvent
from repro.gateway import GatewayPolicy
from repro.service.client import ZiggyClient
from repro.service.protocol import job_event_from_stage

from helpers.http_probe import http_get

#: How many synthetic events the gated job records, and their size —
#: together far beyond the tiny socket buffers the test configures, so
#: a non-reading subscriber reliably blocks the server's writes.
N_EVENTS = 300
BLOB = "x" * 512


def _submit_gated_noisy_job(service) -> tuple[str, threading.Event]:
    """A job that logs ~150 KiB of events, then parks on a gate."""
    gate = threading.Event()

    def work(progress):
        for i in range(N_EVENTS):
            progress(StageEvent("note", {"i": i, "blob": BLOB}))
        gate.wait(timeout=60)
        return "ok"

    job_id = service.jobs.submit(work, event_mapper=job_event_from_stage)
    deadline = time.monotonic() + 30
    while True:
        events, _ = service.job_events(job_id, after_seq=0, timeout=0.2)
        if len(events) >= N_EVENTS:
            return job_id, gate
        assert time.monotonic() < deadline, \
            f"only {len(events)} events recorded"


def _stalled_subscriber(base: str, job_id: str) -> socket.socket:
    """Open the SSE stream on a raw socket and never read from it."""
    parsed = urllib.parse.urlparse(base)
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    # A tiny receive window, set before connect so the handshake
    # advertises it: the server's backlog fills in KBs, not MBs.
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.connect((parsed.hostname, parsed.port))
    sock.sendall(f"GET /v2/jobs/{job_id}/events HTTP/1.1\r\n"
                 f"Host: {parsed.netloc}\r\n"
                 f"Accept: text/event-stream\r\n\r\n".encode())
    return sock


def _wait_for_eviction(base: str, timeout: float = 20.0) -> dict:
    deadline = time.monotonic() + timeout
    while True:
        health = json.loads(http_get(f"{base}/healthz")[2])
        gateway = health["gateway"]
        if gateway["evicted"] >= 1:
            return gateway
        assert time.monotonic() < deadline, \
            f"no eviction recorded: {gateway}"
        time.sleep(0.1)


@pytest.fixture
def eviction_policy() -> GatewayPolicy:
    return GatewayPolicy(sse_write_timeout=1.0, sse_buffer_bytes=8192,
                         keepalive_seconds=0.2)


class TestSlowConsumerEviction:
    def test_stalled_reader_is_evicted_healthy_one_is_not(
            self, box_service, serve_factory, eviction_policy):
        base = serve_factory(box_service, eviction_policy)
        job_id, gate = _submit_gated_noisy_job(box_service)
        stalled = _stalled_subscriber(base, job_id)
        try:
            time.sleep(0.3)  # let the server start (and block) the replay

            # A healthy subscriber opened *while* the stalled one sits
            # on a full socket still gets the entire stream promptly.
            client = ZiggyClient(base, timeout=30)
            notes = 0
            done = None
            for event in client.stream_events(job_id):
                if event.kind == "note":
                    notes += 1
                    if notes == N_EVENTS:
                        gate.set()  # all replayed; let the job finish
                elif event.kind == "done":
                    done = event.data
            assert notes == N_EVENTS
            assert done == {"status": "done"}

            gateway = _wait_for_eviction(base)
            assert gateway["evicted"] >= 1

            # The server tore the stalled connection down: draining it
            # ends in EOF or a reset, never a hang.
            stalled.settimeout(10.0)
            try:
                while stalled.recv(65536):
                    pass
            except ConnectionError:
                pass
        finally:
            gate.set()
            stalled.close()

    def test_stream_counts_return_to_zero(self, box_service, serve_factory,
                                          eviction_policy):
        base = serve_factory(box_service, eviction_policy)
        job_id, gate = _submit_gated_noisy_job(box_service)
        gate.set()
        client = ZiggyClient(base, timeout=30)
        events = list(client.stream_events(job_id))
        assert events[-1].kind == "done"
        deadline = time.monotonic() + 10
        while True:
            gateway = json.loads(http_get(f"{base}/healthz")[2])["gateway"]
            if gateway["open_streams"] == 0:
                break
            assert time.monotonic() < deadline, gateway
            time.sleep(0.05)
        assert gateway["streams_total"] >= 1
        assert gateway["evicted"] == 0
