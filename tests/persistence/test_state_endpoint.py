"""HTTP-surface tests for durable state: ``/v2/state`` and the enriched
``/healthz`` (uptime, per-shard restarts, journal/snapshot stats)."""

import threading

import pytest

from repro.data.boxoffice import make_boxoffice
from repro.gateway import make_async_server
from repro.runtime import ZiggyRuntime
from repro.service.client import ZiggyClient
from repro.service.service import ZiggyService


@pytest.fixture(scope="module")
def table():
    return make_boxoffice(n_rows=120, seed=5)


# One value, kept so test ids stay stable (``test_x[async]``).
@pytest.fixture(params=("async",))
def live_server(tmp_path, table):
    """A served durable service; yields (client, service, server)."""
    service = ZiggyService(executor="inline",
                           state_dir=str(tmp_path / "state"),
                           snapshot_interval=0, runtime=ZiggyRuntime())
    service.register_table(table)
    service.recover()
    server = make_async_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ZiggyClient(f"http://{host}:{port}"), service, server
    finally:
        server.close(wait=False)
        thread.join(timeout=10)


class TestHealthz:
    def test_reports_uptime_restarts_and_persistence(self, live_server):
        client, service, _ = live_server
        health = client.health()
        assert health["ok"]
        assert health["uptime_seconds"] >= 0.0
        assert health["restarts"] == {}  # local backend: no shards died
        persistence = health["persistence"]
        assert persistence["enabled"]
        assert persistence["state_dir"] == service.state.state_dir
        assert persistence["journal"]["segments"] >= 1
        assert "snapshots" in persistence

    def test_in_memory_service_reports_disabled(self, table):
        service = ZiggyService(executor="inline", runtime=ZiggyRuntime())
        service.register_table(table)
        server = make_async_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            health = ZiggyClient(f"http://{host}:{port}").health()
            assert health["persistence"] == {"enabled": False}
        finally:
            server.close(wait=False)
            thread.join(timeout=10)


class TestStateEndpoint:
    def test_state_report_round_trips(self, live_server):
        client, service, _ = live_server
        job = client.submit("gross > 200000000", table="boxoffice")
        client.wait(job.job_id, timeout=120)
        report = client.state()
        assert report.enabled
        assert report.state_dir == service.state.state_dir
        assert report.journal["appends"] > 0
        assert report.journal["fsync_policy"] == "rotate"
        assert report.jobs["live"] >= 1
        assert report.jobs["by_status"].get("done", 0) >= 1
        assert report.jobs["journal_errors"] == 0
        assert "registry" in report.runtime

    def test_runtime_section_key_sets(self, live_server):
        client, _, _ = live_server
        client.characterize("gross > 200000000", table="boxoffice")
        runtime = client.state().runtime
        assert set(runtime) == {"tables", "registry"}
        assert set(runtime["tables"]) == {
            "tables", "resident", "pinned", "resident_bytes", "evictions",
            "max_tables", "max_bytes"}
        assert set(runtime["registry"]) == {
            "caches", "entries", "hits", "misses", "cross_client_hits",
            "evictions", "hit_rate"}
        assert runtime["tables"]["tables"] == runtime["tables"]["resident"]

    def test_recovery_section_appears_after_a_restart(self, tmp_path,
                                                      table, live_server):
        client, service, server = live_server
        job = client.submit("gross > 200000000", table="boxoffice")
        client.wait(job.job_id, timeout=120)
        server.close()  # clean drain: snapshots + compaction
        successor = ZiggyService(executor="inline",
                                 state_dir=str(tmp_path / "state"),
                                 snapshot_interval=0,
                                 runtime=ZiggyRuntime())
        successor.register_table(table)
        successor.recover()
        successor_server = make_async_server(successor)
        thread = threading.Thread(target=successor_server.serve_forever,
                                  daemon=True)
        thread.start()
        host, port = successor_server.server_address[:2]
        try:
            report = ZiggyClient(f"http://{host}:{port}").state()
            assert report.recovery is not None
            assert report.recovery["policy"] == "resume"
            assert report.recovery["restored_terminal"] == 1
            assert report.snapshots["loaded"] >= 1
        finally:
            successor_server.close(wait=False)
            thread.join(timeout=10)
