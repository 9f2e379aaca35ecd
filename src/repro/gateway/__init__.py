"""The gateway subsystem: the HTTP front-end over the service.

* :mod:`repro.gateway.server` — :class:`AsyncGateway`, one event loop
  multiplexing every connection, including thousands of concurrent SSE
  subscribers, with compute bridged onto the executor backends;
* :mod:`repro.gateway.routes` — what each route does, independent of
  the transport;
* :mod:`repro.gateway.admission` — the token buckets.

:class:`GatewayPolicy` sets per-client/per-table admission control, a
bounded job-submission queue answering ``429`` + ``Retry-After``, and
slow-consumer eviction on the job event streams.
"""

from repro.gateway.admission import (
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)
from repro.gateway.routes import (
    EventStreamReply,
    GatewayMetrics,
    GatewayPolicy,
    GatewayRoutes,
    JsonReply,
    status_for,
)
from repro.gateway.server import AsyncGateway, make_async_server

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AsyncGateway",
    "EventStreamReply",
    "GatewayMetrics",
    "GatewayPolicy",
    "GatewayRoutes",
    "JsonReply",
    "TokenBucket",
    "make_async_server",
    "status_for",
]
