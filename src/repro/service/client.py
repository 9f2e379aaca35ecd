"""A Python client for the v2 HTTP service (stdlib ``urllib`` only).

Example::

    from repro.service.client import ZiggyClient

    client = ZiggyClient("http://127.0.0.1:8765")
    response = client.characterize("gross > 200000000", table="boxoffice")
    for view in response.views.items:
        print(view["explanation"])

    job = client.submit("budget > 50000000")
    snapshot = client.wait(job.job_id)
    print(snapshot.status, len(snapshot.result.views.items))
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Iterator, Mapping

from repro.errors import ServiceError
from repro.service.protocol import (
    ApiError,
    BatchRequest,
    BatchResponse,
    CharacterizeRequest,
    CharacterizeResponse,
    ConfigureRequest,
    ConfigureResponse,
    JobEvent,
    JobSnapshot,
    JobSubmitRequest,
    StateReport,
    TableList,
    ViewPage,
    ViewPageRequest,
    parse_response,
)


class RemoteError(ServiceError):
    """The server answered with a structured :class:`ApiError`.

    ``retry_after`` is populated on 429 (throttled/backpressure)
    responses: the exact wait from ``error.detail.retry_after`` when the
    server sent one, else the integer ``Retry-After`` header.
    """

    def __init__(self, error: ApiError, status: int = 0,
                 retry_after: float | None = None):
        self.error = error
        self.code = error.code
        self.status = status
        self.retry_after = retry_after
        super().__init__(f"[{error.code}] {error.message}")


class TransportError(ServiceError):
    """The server could not be reached or spoke something other than the
    protocol (connection refused, timeouts, non-JSON bodies)."""


def _retry_after_seconds(decoded: Mapping,
                         header: str | None) -> float | None:
    """The server's retry hint: exact float from ``detail.retry_after``
    when present, else the integer ``Retry-After`` header."""
    error = decoded.get("error")
    if isinstance(error, Mapping):
        detail = error.get("detail")
        if isinstance(detail, Mapping) and "retry_after" in detail:
            try:
                return float(detail["retry_after"])
            except (TypeError, ValueError):
                pass
    if header is not None:
        try:
            return float(str(header).strip())
        except ValueError:
            pass
    return None


class ZiggyClient:
    """Speaks protocol v2 to a :mod:`repro.gateway` endpoint.

    Args:
        base_url: e.g. ``"http://127.0.0.1:8765"`` (no trailing slash
            needed).
        timeout: per-request socket timeout in seconds.
        client_id: the session key sent with every stateful request.
        throttle_retries: how many times a request answered ``429`` is
            retried after honouring the server's ``Retry-After`` before
            the :class:`RemoteError` is surfaced; 0 disables retrying.
        max_retry_wait: upper bound (seconds) on any single throttle
            wait, whatever the server asked for.
    """

    def __init__(self, base_url: str, timeout: float = 30.0,
                 client_id: str = "default", throttle_retries: int = 2,
                 max_retry_wait: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.client_id = client_id
        self.throttle_retries = throttle_retries
        self.max_retry_wait = max_retry_wait

    # -- transport ---------------------------------------------------------------

    def _request(self, method: str, path: str,
                 payload: Mapping | None = None) -> Any:
        """One round trip, transparently retrying throttled (429)
        responses up to ``throttle_retries`` times, pacing each retry by
        the server's ``Retry-After``."""
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, payload)
            except RemoteError as exc:
                if (exc.status != 429 or exc.retry_after is None
                        or attempt >= self.throttle_retries):
                    raise
                attempt += 1
                time.sleep(max(0.0, min(exc.retry_after,
                                        self.max_retry_wait)))

    def _request_once(self, method: str, path: str,
                      payload: Mapping | None = None) -> Any:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers,
                                         method=method)
        retry_header = None
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                body = response.read()
                status = response.status
        except urllib.error.HTTPError as exc:
            body = exc.read()
            status = exc.code
            retry_header = exc.headers.get("Retry-After")
        except (urllib.error.URLError, OSError) as exc:
            raise TransportError(f"{method} {url}: {exc}") from exc
        try:
            decoded = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TransportError(
                f"{method} {url}: non-JSON response "
                f"(HTTP {status}): {exc}") from None
        if isinstance(decoded, Mapping) and decoded.get("ok") is False:
            retry_after = _retry_after_seconds(decoded, retry_header)
            if decoded.get("type") == ApiError.TYPE:
                raise RemoteError(ApiError.from_dict(decoded), status=status,
                                  retry_after=retry_after)
            # v1 endpoint errors are plain {"ok": False, "error": str}.
            raise RemoteError(ApiError(
                code=str(decoded.get("code", "error")),
                message=str(decoded.get("error", "request failed"))),
                status=status, retry_after=retry_after)
        return decoded

    def _post(self, path: str, payload: Mapping) -> Any:
        return self._request("POST", path, payload)

    def _get(self, path: str) -> Any:
        return self._request("GET", path)

    # -- endpoints ---------------------------------------------------------------

    def health(self) -> dict:
        """GET /healthz — liveness, protocol version, table names."""
        return self._get("/healthz")

    def state(self) -> "StateReport":
        """GET /v2/state — the durable-state report (journal, snapshot
        and recovery stats; ``enabled=False`` for in-memory servers)."""
        return parse_response(self._get("/v2/state"))

    def tables(self) -> TableList:
        """The server's catalog."""
        return parse_response(self._get("/v2/tables"))

    def characterize(self, where: str, table: str | None = None,
                     page: int = 1, page_size: int | None = None,
                     weights: Mapping | None = None,
                     options: Mapping | None = None) -> CharacterizeResponse:
        """Characterize one predicate synchronously."""
        request = CharacterizeRequest(
            where=where, table=table, client_id=self.client_id,
            page=page, page_size=page_size,
            weights=dict(weights or {}), options=dict(options or {}))
        return parse_response(self._post("/v2/characterize",
                                         request.to_dict()))

    def characterize_many(self, predicates: list[str] | tuple[str, ...],
                          table: str | None = None,
                          page_size: int | None = None,
                          options: Mapping | None = None) -> BatchResponse:
        """Characterize a batch of predicates in one round trip."""
        request = BatchRequest(
            predicates=tuple(predicates), table=table,
            client_id=self.client_id, page_size=page_size,
            options=dict(options or {}))
        return parse_response(self._post("/v2/batch", request.to_dict()))

    def views(self, page: int = 1,
              page_size: int | None = None) -> ViewPage:
        """Page through the current result's views."""
        request = ViewPageRequest(client_id=self.client_id, page=page,
                                  page_size=page_size)
        return parse_response(self._post("/v2/views", request.to_dict()))

    def configure(self, weights: Mapping | None = None,
                  options: Mapping | None = None) -> ConfigureResponse:
        """Adjust the server-side session's weights and options."""
        request = ConfigureRequest(client_id=self.client_id,
                                   weights=dict(weights or {}),
                                   options=dict(options or {}))
        return parse_response(self._post("/v2/configure", request.to_dict()))

    # -- jobs --------------------------------------------------------------------

    def submit(self, where: str, table: str | None = None,
               page_size: int | None = None,
               weights: Mapping | None = None,
               options: Mapping | None = None) -> JobSnapshot:
        """Queue an asynchronous characterization; returns the pending
        snapshot (carrying the job ID)."""
        request = JobSubmitRequest(request=CharacterizeRequest(
            where=where, table=table, client_id=self.client_id,
            page_size=page_size,
            weights=dict(weights or {}), options=dict(options or {})))
        return parse_response(self._post("/v2/jobs", request.to_dict()))

    def job(self, job_id: str) -> JobSnapshot:
        """Poll one job (status, timings, partial views, result)."""
        return parse_response(self._get(f"/v2/jobs/{job_id}"))

    def cancel(self, job_id: str) -> JobSnapshot:
        """Ask the server to cancel a job."""
        return parse_response(self._post(f"/v2/jobs/{job_id}/cancel", {}))

    def stream_events(self, job_id: str, timeout: float | None = None,
                      after: int = 0,
                      reconnects: int = 3) -> Iterator[JobEvent]:
        """Iterate a job's events as the server streams them (SSE).

        Yields :class:`JobEvent` objects in order — ``prepared``,
        ``component-scored``, one ``view-ranked`` per view *while the
        search is still running*, ``search-complete``, ``view-ready``,
        ``result`` — and finally the terminal ``done`` event (carrying
        ``{"status": ...}``), after which the iterator stops.  This
        replaces poll-based partial-view consumption::

            job = client.submit("gross > 2e8")
            for event in client.stream_events(job.job_id):
                if event.kind == "view-ready":
                    print(event.data["rank"], event.data["explanation"])

        The connection carries a ``Last-Event-ID`` cursor: when the
        socket is cut mid-job (server restart, proxy hiccup, eviction),
        the client reconnects up to ``reconnects`` times and resumes
        after the last sequence number it saw — no events duplicated or
        lost across the gap.  ``after`` starts the stream past an
        already-consumed prefix.  ``timeout`` bounds each socket read,
        not the whole stream; the server sends keep-alives, so the
        default is safe for long searches.
        """
        last_seq = max(0, int(after))
        attempts = 0
        while True:
            progressed = False
            try:
                for event in self._stream_once(job_id, last_seq, timeout):
                    last_seq = max(last_seq, event.seq)
                    progressed = True
                    yield event
                    if event.kind == JobEvent.DONE:
                        return
                # The stream ended (connection closed) without the
                # terminal "done" event: the server died or the socket
                # was cut mid-job.
                raise TransportError(
                    f"GET {self.base_url}/v2/jobs/{job_id}/events: event "
                    f"stream ended before the 'done' event "
                    f"(connection lost mid-job?)")
            except TransportError:
                # A truncated stream must never look like success, but
                # it is also the one failure Last-Event-ID exists for:
                # reconnect and resume after what was already consumed.
                if progressed:
                    attempts = 0
                if attempts >= max(0, reconnects):
                    raise
                attempts += 1
                time.sleep(min(0.2 * attempts, 1.0))

    def _stream_once(self, job_id: str, after: int,
                     timeout: float | None) -> Iterator[JobEvent]:
        """One SSE connection, resuming after sequence ``after``."""
        url = f"{self.base_url}/v2/jobs/{job_id}/events"
        headers = {"Accept": "text/event-stream"}
        if after > 0:
            headers["Last-Event-ID"] = str(after)
        request = urllib.request.Request(url, headers=headers)
        try:
            response = urllib.request.urlopen(
                request, timeout=timeout if timeout is not None
                else self.timeout)
        except urllib.error.HTTPError as exc:
            body = exc.read()
            try:
                decoded = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                raise TransportError(
                    f"GET {url}: non-JSON error (HTTP {exc.code})") from None
            if isinstance(decoded, Mapping) and decoded.get("type") == ApiError.TYPE:
                raise RemoteError(ApiError.from_dict(decoded),
                                  status=exc.code) from None
            raise TransportError(f"GET {url}: HTTP {exc.code}") from None
        except (urllib.error.URLError, OSError) as exc:
            raise TransportError(f"GET {url}: {exc}") from exc
        with response:
            seq, kind, data_lines = 0, None, []
            try:
                for raw in response:
                    line = raw.decode("utf-8").rstrip("\r\n")
                    if line.startswith(":"):
                        continue  # keep-alive / eviction comment
                    if line.startswith("id:"):
                        seq = int(line[len("id:"):].strip() or 0)
                        continue
                    if line.startswith("event:"):
                        kind = line[len("event:"):].strip()
                        continue
                    if line.startswith("data:"):
                        data_lines.append(line[len("data:"):].strip())
                        continue
                    if line == "" and kind is not None:
                        try:
                            data = json.loads("\n".join(data_lines) or "{}")
                        except json.JSONDecodeError as exc:
                            raise TransportError(
                                f"GET {url}: bad event data: {exc}") \
                                from None
                        yield JobEvent(seq=seq, kind=kind,
                                       data=data if isinstance(data, dict)
                                       else {"value": data})
                        if kind == JobEvent.DONE:
                            return
                        seq, kind, data_lines = 0, None, []
            except OSError as exc:
                raise TransportError(f"GET {url}: {exc}") from exc

    def wait(self, job_id: str, timeout: float = 60.0,
             poll: float = 0.05) -> JobSnapshot:
        """Poll until the job finishes; raises on timeout."""
        deadline = time.monotonic() + timeout
        while True:
            snapshot = self.job(job_id)
            if snapshot.finished:
                return snapshot
            if time.monotonic() >= deadline:
                raise TransportError(
                    f"job {job_id} still {snapshot.status!r} "
                    f"after {timeout:.1f}s")
            time.sleep(poll)

    # -- legacy ------------------------------------------------------------------

    def legacy(self, action: dict) -> dict:
        """POST a v1 action dict to the compatibility endpoint."""
        return self._post("/v1", action)
