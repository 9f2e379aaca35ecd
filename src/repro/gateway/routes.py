"""Transport-neutral HTTP route logic for the gateway.

This module is the single definition of what each route *does*; the
transport (:mod:`repro.gateway.server`) hands a parsed request (method,
path, lower-cased headers, decoded body) to :class:`GatewayRoutes` and
gets back either a :class:`JsonReply` (payload dict + HTTP status +
extra headers, ready to serialize) or an :class:`EventStreamReply` (the
marker that this request becomes a Server-Sent-Events stream of the
named job, starting after a resume cursor).

The production-traffic controls live here too:

* **admission control** — compute-bearing requests (characterize,
  batch, job submission) pass per-client and per-table token buckets
  (:class:`~repro.gateway.admission.AdmissionController`); a rejected
  request is answered ``429`` with a ``Retry-After`` header and a
  structured ``throttled`` error carrying the exact wait in
  ``detail.retry_after``.
* **backpressure** — job submission is bounded by
  ``GatewayPolicy.max_pending_jobs`` open (non-terminal) jobs; beyond
  it, submissions get the same ``429`` + ``Retry-After`` treatment
  instead of queueing without limit.
* **observability** — :class:`GatewayMetrics` counts open/peak SSE
  subscribers, evicted slow consumers and every rejection, and the
  counters are surfaced on ``/healthz`` and ``GET /v2/state``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ReproError, ThrottledError
from repro.gateway.admission import AdmissionController
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ApiError,
    ErrorCode,
    json_safe,
)

#: Error code -> HTTP status for error payloads.
STATUS_FOR_CODE = {
    ErrorCode.BAD_REQUEST: 400,
    ErrorCode.UNKNOWN_ACTION: 400,
    ErrorCode.UNKNOWN_TABLE: 404,
    ErrorCode.UNKNOWN_COLUMN: 400,
    ErrorCode.SYNTAX_ERROR: 400,
    ErrorCode.EMPTY_SELECTION: 400,
    ErrorCode.INVALID_CONFIG: 400,
    ErrorCode.NO_ACTIVE_QUERY: 409,
    ErrorCode.JOB_NOT_FOUND: 404,
    ErrorCode.CANCELLED: 200,
    ErrorCode.INTERRUPTED: 200,
    ErrorCode.THROTTLED: 429,
    ErrorCode.ERROR: 400,
    ErrorCode.INTERNAL: 500,
}

#: POST /v2/<suffix> -> implied protocol request type.
IMPLIED_TYPES = {
    "characterize": "characterize",
    "batch": "batch",
    "views": "views",
    "configure": "configure",
    "jobs": "submit",
}

#: Request types that carry real characterization compute (admission
#: control applies); everything else is bookkeeping-cheap.
_GOVERNED_TYPES = ("characterize", "batch", "submit")


def status_for(payload: Mapping) -> int:
    """The HTTP status mirroring a response payload's error code."""
    if payload.get("ok", True):
        return 200
    code = (payload.get("error") or {}).get("code", ErrorCode.ERROR)
    return STATUS_FOR_CODE.get(code, 400)


@dataclass(frozen=True)
class JsonReply:
    """A JSON response: payload dict, HTTP status, extra headers."""

    payload: dict
    status: int
    headers: tuple = ()


@dataclass(frozen=True)
class EventStreamReply:
    """This request becomes an SSE stream of ``job_id``'s event log,
    resuming after sequence number ``after`` (0 = from the start)."""

    job_id: str
    after: int = 0


@dataclass
class GatewayPolicy:
    """Tunable production-traffic limits.

    The defaults admit everything and never reject a submission — a
    policy-free deployment behaves exactly like the pre-gateway server.
    """

    #: Most open (pending + running) jobs before submissions get 429.
    #: None = unbounded.
    max_pending_jobs: int | None = None
    #: Per-client token-bucket rate (requests/second); None = off.
    client_rate: float | None = None
    client_burst: float | None = None
    #: Per-table token-bucket rate (requests/second); None = off.
    table_rate: float | None = None
    table_burst: float | None = None
    #: Seconds a blocked SSE write may stall before the subscriber is
    #: evicted (the bounded per-subscriber buffer, in time units).
    sse_write_timeout: float = 10.0
    #: High-water mark (bytes) of one subscriber's transport write
    #: buffer before writes start waiting on drain.
    sse_buffer_bytes: int = 64 * 1024
    #: Seconds of idle stream before a ``: keepalive`` comment.
    keepalive_seconds: float = 1.0
    #: Retry-After hint (seconds) on bounded-queue rejections.
    queue_retry_after: float = 1.0

    admission: AdmissionController = field(init=False, repr=False)

    def __post_init__(self):
        self.admission = AdmissionController(
            client_rate=self.client_rate, client_burst=self.client_burst,
            table_rate=self.table_rate, table_burst=self.table_burst)


class GatewayMetrics:
    """Thread-safe counters for gateway health (surfaced on /healthz)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._open = 0
        self._peak = 0
        self._total = 0
        self._evicted = 0
        self._throttled = {"client": 0, "table": 0}
        self._queue_rejected = 0

    def stream_opened(self) -> None:
        with self._lock:
            self._open += 1
            self._total += 1
            self._peak = max(self._peak, self._open)

    def stream_closed(self) -> None:
        with self._lock:
            self._open -= 1

    def stream_evicted(self) -> None:
        with self._lock:
            self._evicted += 1

    def throttled(self, scope: str) -> None:
        with self._lock:
            self._throttled[scope] = self._throttled.get(scope, 0) + 1

    def queue_rejected(self) -> None:
        with self._lock:
            self._queue_rejected += 1

    @property
    def open_streams(self) -> int:
        with self._lock:
            return self._open

    @property
    def evictions(self) -> int:
        with self._lock:
            return self._evicted

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "open_streams": self._open,
                "peak_streams": self._peak,
                "streams_total": self._total,
                "evicted": self._evicted,
                "throttled": dict(self._throttled),
                "queue_rejected": self._queue_rejected,
            }


class GatewayRoutes:
    """The shared route table bound to one :class:`ZiggyService`.

    Stateless per request; owns the policy, the metrics and the v1
    compatibility adapter.
    """

    def __init__(self, service, policy: GatewayPolicy | None = None,
                 metrics: GatewayMetrics | None = None):
        self.service = service
        self.policy = policy if policy is not None else GatewayPolicy()
        self.metrics = metrics if metrics is not None else GatewayMetrics()
        # Lazy import: app.api imports the service layer; importing it
        # at module top would be circular.
        from repro.app.api import ZiggyApi
        self.legacy_api = ZiggyApi(service=service)

    # -- replies -----------------------------------------------------------------

    def _json(self, payload: dict, status: int | None = None,
              headers: tuple = ()) -> JsonReply:
        return JsonReply(payload=payload,
                         status=status if status is not None
                         else status_for(payload),
                         headers=headers)

    def _error(self, code: str, message: str,
               status: int | None = None) -> JsonReply:
        return self._json(ApiError(code=code, message=message).to_dict(),
                          status=status)

    def _throttled_reply(self, exc: ThrottledError) -> JsonReply:
        error = ApiError(code=ErrorCode.THROTTLED, message=str(exc),
                         detail={"retry_after": round(exc.retry_after, 3),
                                 "scope": exc.scope})
        # HTTP Retry-After is integer delta-seconds; the exact float
        # rides in the error detail for clients that want finer pacing.
        retry_after = max(1, math.ceil(exc.retry_after))
        return JsonReply(payload=error.to_dict(), status=429,
                         headers=(("Retry-After", str(retry_after)),))

    # -- admission / backpressure ------------------------------------------------

    def _govern(self, payload: Any) -> JsonReply | None:
        """Apply admission control and the bounded submission queue.

        Returns the 429 reply when the request must not proceed, None
        when it may.  Only dict payloads of governed types are checked —
        malformed requests fall through to the protocol parser, whose
        structured error is more useful than a rate-limit verdict.
        """
        if not isinstance(payload, Mapping):
            return None
        rtype = payload.get("type")
        if rtype not in _GOVERNED_TYPES:
            return None
        inner = payload.get("request") if rtype == "submit" else payload
        if not isinstance(inner, Mapping):
            inner = {}
        client_id = str(inner.get("client_id") or "default")
        table = inner.get("table")
        policy = self.policy
        decision = policy.admission.admit(
            client_id, str(table) if table else "(default)")
        if not decision:
            self.metrics.throttled(decision.scope or "client")
            return self._throttled_reply(ThrottledError(
                f"rate limit exceeded for {decision.scope} "
                f"{client_id if decision.scope == 'client' else table or '(default)'!r}",
                retry_after=decision.retry_after,
                scope=decision.scope or "client"))
        if rtype == "submit" and policy.max_pending_jobs is not None:
            open_jobs = self.service.jobs.open_jobs()
            if open_jobs >= policy.max_pending_jobs:
                self.metrics.queue_rejected()
                return self._throttled_reply(ThrottledError(
                    f"job queue is full ({open_jobs} open jobs, "
                    f"limit {policy.max_pending_jobs})",
                    retry_after=policy.queue_retry_after,
                    scope="queue"))
        return None

    # -- observability payloads --------------------------------------------------

    def gateway_report(self) -> dict:
        """The gateway section of /healthz and /v2/state."""
        report = self.metrics.snapshot()
        report["frontend"] = "async"
        report["admission"] = self.policy.admission.describe()
        report["max_pending_jobs"] = self.policy.max_pending_jobs
        return report

    def healthz(self) -> JsonReply:
        from repro import __version__
        service = self.service
        executor = service.executor.describe()
        state = service.state
        persistence: dict[str, Any] = {"enabled": state is not None}
        if state is not None:
            persistence["state_dir"] = state.state_dir
            journal = state.journal.stats()
            persistence["journal"] = {
                "segments": journal["segments"],
                "bytes": journal["bytes"],
                "appends": journal["appends"],
            }
            snapshots = state.snapshots.stats()
            persistence["snapshots"] = {
                "count": snapshots["count"],
                "bytes": snapshots["bytes"],
                "loaded": snapshots["loaded"],
            }
        return self._json({
            "ok": True, "protocol": PROTOCOL_VERSION,
            "version": __version__,
            "uptime_seconds": round(service.uptime_seconds, 3),
            "executor": executor,
            # Per-shard respawn counts, surfaced even when zero so
            # probes need no key checks (local backends report {}).
            "restarts": executor.get("restarts", {}),
            "persistence": persistence,
            # Saturation and persistence-fault signals: a healthy 200
            # with a non-zero journal_errors count is a degraded node.
            "jobs": {"open": service.jobs.open_jobs(),
                     "journal_errors": service.jobs.journal_errors},
            "gateway": self.gateway_report(),
            "tables": list(service.database.table_names()),
        })

    # -- verbs -------------------------------------------------------------------

    def handle_get(self, path: str, headers: Mapping | None = None
                   ) -> JsonReply | EventStreamReply:
        """Route one GET; returns a reply object, never raises.

        ``headers`` maps lower-cased header names to values.
        """
        path = path.rstrip("/")
        if path in ("", "/healthz"):
            return self.healthz()
        if path == "/v2/state":
            payload = self.service.dispatch({"type": "state"})
            if payload.get("ok"):
                payload["gateway"] = json_safe(self.gateway_report())
            return self._json(payload)
        if path == "/v2/tables":
            return self._json(self.service.dispatch({"type": "tables"}))
        if path.startswith("/v2/jobs/") and path.endswith("/events"):
            job_id = path[len("/v2/jobs/"):-len("/events")]
            after = 0
            raw = (headers or {}).get("last-event-id")
            if raw:
                try:
                    after = max(0, int(str(raw).strip()))
                except ValueError:
                    pass  # a garbled cursor restarts from the beginning
            return EventStreamReply(job_id=job_id, after=after)
        if path.startswith("/v2/jobs/"):
            job_id = path[len("/v2/jobs/"):]
            return self._json(self.service.dispatch(
                {"type": "job", "job_id": job_id, "op": "status"}))
        return self._error(ErrorCode.BAD_REQUEST,
                           f"no route for GET {path or '/'}", status=404)

    def stream_precheck(self, job_id: str) -> JsonReply | None:
        """404 (as a JSON reply) before the server commits to SSE."""
        try:
            self.service.job_status(job_id)
        except ReproError as exc:
            return self._json(ApiError.from_exception(exc).to_dict())
        return None

    def _dispatch_payload(self, path: str, body: Any) -> tuple[bool, Any]:
        """Normalize a POST body into the protocol payload it dispatches.

        Returns ``(routed, payload)`` — ``routed`` is False when the
        path has no dispatching route (404 territory; /v1 and cancel are
        handled separately).  The implied-type suffixes
        (``/v2/characterize`` etc.) get their ``type`` tag injected here
        so governance and dispatch always see the same payload.
        """
        if path == "/v2":
            return True, body
        if path.startswith("/v2/"):
            implied = IMPLIED_TYPES.get(path[len("/v2/"):])
            if implied is not None:
                payload = dict(body) if isinstance(body, Mapping) else body
                if isinstance(payload, dict):
                    if implied == "submit":
                        # POST /v2/jobs accepts a characterize request
                        # (bare or tagged) and always submits it as a
                        # job; a pre-wrapped submit envelope passes
                        # through.
                        if payload.get("type") != "submit":
                            payload = {"type": "submit",
                                       "request": {**payload,
                                                   "type": "characterize"}}
                    else:
                        payload.setdefault("type", implied)
                return True, payload
        return False, None

    def govern_post(self, path: str, body: Any) -> JsonReply | None:
        """Admission/backpressure verdict for a POST, without dispatch.

        The server calls this *on the event loop* before
        bridging to its dispatch pool, so 429s are served instantly even
        when every dispatch thread is busy; it then passes
        ``governed=True`` to :meth:`handle_post` so the request is not
        double-charged.
        """
        routed, payload = self._dispatch_payload(path.rstrip("/"), body)
        if not routed:
            return None
        return self._govern(payload)

    def handle_post(self, path: str, body: Any,
                    governed: bool = False) -> JsonReply:
        """Route one POST with a decoded JSON body; never raises.

        ``governed=True`` skips admission/backpressure (the caller
        already ran :meth:`govern_post` for this request).
        """
        path = path.rstrip("/")
        if path == "/v1":
            if not isinstance(body, Mapping):
                return self._json({"ok": False,
                                   "error": "v1 request must be an object",
                                   "code": ErrorCode.BAD_REQUEST},
                                  status=400)
            response = self.legacy_api.handle(dict(body))
            return self._json(response,
                              status=200 if response.get("ok") else 400)
        if path.startswith("/v2/jobs/") and path.endswith("/cancel"):
            job_id = path[len("/v2/jobs/"):-len("/cancel")]
            return self._json(self.service.dispatch(
                {"type": "job", "job_id": job_id, "op": "cancel"}))
        routed, payload = self._dispatch_payload(path, body)
        if routed:
            if not governed:
                rejected = self._govern(payload)
                if rejected is not None:
                    return rejected
            return self._json(self.service.dispatch(payload))
        return self._error(ErrorCode.BAD_REQUEST,
                           f"no route for POST {path or '/'}", status=404)
