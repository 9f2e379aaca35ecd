"""Fixtures for the gateway suite: served services, cleaned up."""

from __future__ import annotations

import threading

import pytest

from repro.gateway import GatewayPolicy, make_async_server
from repro.runtime import ZiggyRuntime
from repro.service import ZiggyService


# One value, kept so test ids stay stable (``test_x[async]``);
# ``serve_factory`` requests it so every test using it carries the id.
@pytest.fixture(params=("async",))
def frontend(request) -> str:
    """The front-end ``/healthz`` reports."""
    return request.param


@pytest.fixture
def serve_factory(frontend):
    """Start servers over arbitrary services/policies; all cleaned up.

    Returns ``start(service, policy=None, verbose=False) -> base_url``.
    The factory owns teardown: servers are closed (which shuts their
    service down) and serve threads joined, whatever the test outcome.
    """
    started: list[tuple] = []

    def start(service: ZiggyService, policy: GatewayPolicy | None = None,
              verbose: bool = False) -> str:
        server = make_async_server(service, policy=policy, verbose=verbose)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread))
        host, port = server.server_address[:2]
        return f"http://{host}:{port}"

    yield start
    for server, thread in started:
        server.close(shutdown_service=True, wait=False)
        thread.join(timeout=15)
        assert not thread.is_alive(), "serve thread failed to stop"


@pytest.fixture
def box_service(boxoffice_small) -> ZiggyService:
    """A fresh two-worker service over the small box-office table.

    No teardown here: tests hand it to ``serve_factory``, whose server
    close shuts the service down.
    """
    service = ZiggyService(max_workers=2, runtime=ZiggyRuntime())
    service.register_table(boxoffice_small)
    return service
