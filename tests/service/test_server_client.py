"""Integration tests: the HTTP server driven by the Python client."""

import json
import threading
import urllib.request

import pytest

from repro.gateway import make_async_server
from repro.service import ZiggyService
from repro.service.client import RemoteError, TransportError, ZiggyClient


@pytest.fixture(scope="module")
def server_url(boxoffice_small):
    service = ZiggyService(max_workers=2)
    service.register_table(boxoffice_small)
    server = make_async_server(service, port=0)  # ephemeral port
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    service.shutdown(wait=False)
    thread.join(timeout=5)


@pytest.fixture
def client(server_url):
    return ZiggyClient(server_url, timeout=30)


class TestHttp:
    def test_health(self, client):
        health = client.health()
        assert health["ok"] is True
        assert health["protocol"] == 2
        assert "boxoffice" in health["tables"]

    def test_tables(self, client):
        catalog = client.tables()
        assert catalog.tables[0].name == "boxoffice"
        assert catalog.tables[0].columns == 12

    def test_characterize(self, client):
        response = client.characterize("gross > 200000000", page_size=3)
        assert response.n_views >= 1
        assert len(response.views.items) <= 3
        assert response.views.items[0]["explanation"]

    def test_views_pagination_over_http(self, client):
        scoped = ZiggyClient(client.base_url, client_id="pager")
        response = scoped.characterize("gross > 150000000")
        page = scoped.views(page=1, page_size=1)
        assert page.total == response.n_views
        assert len(page.items) <= 1

    def test_batch(self, client):
        batch = client.characterize_many(
            ["gross > 150000000", "gross > 250000000"])
        assert len(batch.results) == 2
        assert batch.cache_hits is not None

    def test_configure(self, client):
        response = client.configure(weights={"mean_shift": 2.0})
        assert response.weights["mean_shift"] == 2.0

    def test_job_submit_poll_wait(self, client):
        snapshot = client.submit("gross > 200000000")
        assert snapshot.job_id.startswith("job-")
        final = client.wait(snapshot.job_id, timeout=30)
        assert final.status == "done"
        assert final.result.n_views >= 1

    def test_jobs_endpoint_submits_even_with_explicit_type(self, client,
                                                           server_url):
        # Regression: a full CharacterizeRequest.to_dict() carries
        # "type": "characterize"; POST /v2/jobs must still submit a job
        # rather than silently running the request synchronously.
        from repro.service import CharacterizeRequest
        payload = CharacterizeRequest(where="gross > 200000000",
                                      client_id="typed").to_dict()
        request = urllib.request.Request(
            f"{server_url}/v2/jobs",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as response:
            body = json.load(response)
        assert body["type"] == "job_status"
        assert client.wait(body["job_id"], timeout=30).status == "done"

    def test_job_cancel_endpoint(self, client):
        snapshot = client.submit("gross > 150000000")
        cancelled = client.cancel(snapshot.job_id)
        # the race is fine either way: cancelled in time, or already done
        assert cancelled.status in ("pending", "running", "cancelled",
                                    "done")
        final = client.wait(snapshot.job_id, timeout=30)
        assert final.finished

    def test_generic_v2_endpoint(self, client, server_url):
        payload = json.dumps({"type": "tables"}).encode()
        request = urllib.request.Request(
            f"{server_url}/v2", data=payload,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as response:
            body = json.load(response)
        assert body["type"] == "table_list"

    def test_syntax_error_is_remote_error(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.characterize("gross >")
        assert excinfo.value.code == "syntax_error"
        assert excinfo.value.status == 400

    def test_unknown_job_is_404(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.job("job-424242")
        assert excinfo.value.code == "job_not_found"
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client._get("/nowhere")
        assert excinfo.value.status == 404

    def test_malformed_json_is_bad_request(self, client, server_url):
        request = urllib.request.Request(
            f"{server_url}/v2", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_legacy_v1_endpoint(self, client):
        response = client.legacy({"action": "query",
                                  "where": "gross > 200000000"})
        assert response["ok"] is True
        assert response["n_views"] == len(response["views"])

    def test_legacy_v1_error_has_code(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.legacy({"action": "explode"})
        assert excinfo.value.code == "unknown_action"

    def test_connection_refused_is_transport_error(self):
        dead = ZiggyClient("http://127.0.0.1:9", timeout=2)
        with pytest.raises(TransportError):
            dead.health()
