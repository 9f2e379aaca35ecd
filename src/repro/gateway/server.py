"""The HTTP front-end: one asyncio event loop over :class:`ZiggyService`.

The paper's demo architecture is "the query characterization engine and
a Web server"; this is that web server, speaking protocol v2 as JSON
over HTTP with no dependencies beyond the standard library:

==========  =========================  =====================================
method      path                       meaning
==========  =========================  =====================================
GET         /healthz                   liveness, uptime, shard restarts,
                                       journal/snapshot stats, gateway load
GET         /v2/state                  durable-state report (journal,
                                       snapshots, recovery, runtime, gateway)
GET         /v2/tables                 catalog
POST        /v2                        any protocol request (tag-dispatched)
POST        /v2/characterize           characterize (type implied)
POST        /v2/batch                  batch characterize
POST        /v2/views                  page through the current result
POST        /v2/configure              weights / options
POST        /v2/jobs                   submit a job
GET         /v2/jobs/<id>              poll a job
GET         /v2/jobs/<id>/events       stream the job's events (SSE)
POST        /v2/jobs/<id>/cancel       cancel a job
POST        /v1                        legacy v1 action dict (adapter)
==========  =========================  =====================================

Route logic, payload bytes, admission and metrics come from
:class:`~repro.gateway.routes.GatewayRoutes`; this module owns the
transport, which multiplexes *thousands* of connections on one loop:

* **SSE fan-out is loop-native.**  Each subscriber is a coroutine that
  polls the job's event log non-blockingly (``timeout=0``) and parks on
  an :class:`asyncio.Event`.  The wakeup comes from the job side:
  :meth:`JobManager.watch` registers a ``loop.call_soon_threadsafe``
  ping that fires whenever the job appends an event, finishes or is
  pruned — no thread per subscriber, no condition-variable polling.
  Idle gaps are filled with ``: keepalive`` comments, the stream ends
  with a ``done`` event carrying the final job status, and a
  ``Last-Event-ID`` request header resumes after that sequence number.
* **Compute never runs on the loop.**  JSON routes are bridged onto a
  small thread pool with ``loop.run_in_executor``; the work itself
  still runs wherever the service's executor backend puts it (thread
  pool or worker-process shards).  Admission control and backpressure
  are checked *on the loop* before the bridge, so 429s are served
  instantly even when every dispatch thread is busy — which is exactly
  the saturation scenario they exist for.
* **Slow consumers are evicted, not accumulated.**  Every subscriber's
  transport write buffer is bounded (``GatewayPolicy.sse_buffer_bytes``);
  when a client stops draining its socket and a write stays parked past
  ``sse_write_timeout``, the subscriber gets a best-effort
  ``: client-evicted`` comment and its transport is aborted.  Healthy
  subscribers never wait on a stalled one.
* **Serialization is shared.**  An SSE block is rendered once per
  ``(job, seq)`` and the bytes are reused across all subscribers of
  that job, so fanning one event out to a thousand streams costs a
  thousand socket writes, not a thousand ``json.dumps``.
* **Each reply is one write.**  Status line, headers and body leave in
  a single ``transport.write``, so Nagle's algorithm never holds a
  body back waiting for the client's delayed ACK of the headers.

Error payloads are structured :class:`ApiError` dicts; the HTTP status
mirrors the error code (400 family for caller mistakes, 404 for unknown
jobs/routes, 429 + ``Retry-After`` for throttled work, 500 for internal
faults).  A request whose ``Content-Length`` is not a non-negative
integer cannot be framed, so it is answered 400 and the connection is
closed.
"""

from __future__ import annotations

import asyncio
import json
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, NamedTuple

from repro.errors import ReproError
from repro.gateway.routes import (
    EventStreamReply,
    GatewayPolicy,
    GatewayRoutes,
    JsonReply,
)
from repro.service.protocol import ApiError, ErrorCode, json_safe
from repro.service.service import ZiggyService

#: HTTP reason phrases for the statuses this server emits.
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    429: "Too Many Requests", 500: "Internal Server Error",
}

#: Seconds an idle kept-alive connection may sit between requests.
_IDLE_TIMEOUT = 10.0

#: Seconds allotted to reading one request head + body.
_READ_TIMEOUT = 10.0

#: Most serialized SSE blocks cached per job (seq -> bytes).
_SSE_CACHE_BLOCKS = 4096

#: Threads bridging JSON routes off the event loop.
_DISPATCH_THREADS = 16


def _sse_block(seq: int, kind: str, data: str) -> bytes:
    """One SSE frame."""
    return f"id: {seq}\nevent: {kind}\ndata: {data}\n\n".encode("utf-8")


def _bad_request(message: str, status: int = 400) -> JsonReply:
    return JsonReply(payload=ApiError(code=ErrorCode.BAD_REQUEST,
                                      message=message).to_dict(),
                     status=status)


class _Request(NamedTuple):
    """One parsed request.  ``body`` is None when the ``Content-Length``
    header is malformed: the body cannot be framed, so it is not read."""

    line: str
    method: str
    path: str
    headers: dict
    body: bytes | None
    keep_alive: bool


class AsyncGateway:
    """The asyncio HTTP/SSE server bound to one :class:`ZiggyService`.

    Binds its listening socket synchronously in the constructor (so
    ``server_address`` is valid immediately) and runs the event loop
    inside :meth:`serve_forever` — typically on a dedicated thread, with
    :meth:`shutdown` called from any other.  With ``verbose`` every
    request is logged to stderr as one access line.
    """

    def __init__(self, address: tuple[str, int], service: ZiggyService,
                 verbose: bool = False, policy: GatewayPolicy | None = None):
        self.service = service
        self.verbose = verbose
        self.routes = GatewayRoutes(service, policy=policy)
        self._socket = socket.create_server(address, backlog=1024)
        self._socket.setblocking(False)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._stopped = threading.Event()
        self._stopped.set()  # not serving yet
        self._conn_tasks: set[asyncio.Task] = set()
        self._executor: ThreadPoolExecutor | None = None
        #: job_id -> {"refs": n, "blocks": {seq: bytes}} — shared SSE
        #: serialization, touched only from the event loop.
        self._sse_cache: dict[str, dict[str, Any]] = {}
        #: Set by :meth:`close` when the service drain failed (e.g. an
        #: executor backend wedged mid-respawn) — the close itself still
        #: completes, sockets and threads released.
        self.shutdown_error: BaseException | None = None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def server_address(self) -> tuple:
        return self._socket.getsockname()

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (blocking)."""
        loop = asyncio.new_event_loop()
        self._loop = loop
        self._stopped.clear()
        try:
            loop.run_until_complete(self._serve())
        finally:
            try:
                # A KeyboardInterrupt (Ctrl-C / SIGTERM) lands here with
                # the accept task still pending: cancel and drain so the
                # loop closes clean.
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(asyncio.gather(
                        *pending, return_exceptions=True))
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                loop.close()
                self._loop = None
                self._stopped.set()

    async def _serve(self) -> None:
        self._stop_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=_DISPATCH_THREADS,
            thread_name_prefix="ziggy-gateway")
        server = await asyncio.start_server(self._handle_connection,
                                            sock=self._socket)
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks,
                                     return_exceptions=True)
            self._executor.shutdown(wait=False)

    def shutdown(self) -> None:
        """Stop the accept loop and drain connections (thread-safe)."""
        loop = self._loop
        stop = self._stop_event
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already closed
        self._stopped.wait(timeout=30)

    def server_close(self) -> None:
        """Release the listening socket (idempotent)."""
        try:
            self._socket.close()
        except OSError:
            pass

    def close(self, shutdown_service: bool = True,
              wait: bool = True) -> None:
        """Drain and stop everything, in dependency order (idempotent).

        1. stop the accept loop, ending in-flight SSE streams and
           connections;
        2. close the listening socket;
        3. shut the service down — which closes the executor backend
           (thread pool or worker processes).

        The service drain is bounded even when the executor is mid
        worker-respawn (the backend waits on its respawn thread with a
        timeout and fails stranded work with a clean error); should the
        drain itself raise, the error lands in :attr:`shutdown_error`
        rather than aborting the close half-way.
        """
        self.shutdown()
        self.server_close()
        if shutdown_service:
            try:
                self.service.shutdown(wait=wait)
            except ReproError as exc:
                self.shutdown_error = exc

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    return
                status, keep_alive = await self._dispatch(request, writer)
                if self.verbose:
                    self._log_request(writer, request.line, status)
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.TimeoutError, TimeoutError):
            return  # client vanished or stalled mid-request
        except asyncio.CancelledError:
            return  # server draining
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await asyncio.wait_for(writer.wait_closed(), timeout=1.0)
            except (asyncio.TimeoutError, TimeoutError, ConnectionError,
                    asyncio.CancelledError):
                pass

    @staticmethod
    def _log_request(writer: asyncio.StreamWriter, line: str,
                     status: int) -> None:
        """One access line on stderr, in the stdlib ``http.server``
        format: ``host - - [date] "request line" status -``."""
        peer = writer.get_extra_info("peername") or ("-",)
        stamp = time.strftime("%d/%b/%Y %H:%M:%S")
        sys.stderr.write(f'{peer[0]} - - [{stamp}] "{line}" {status} -\n')

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> _Request | None:
        """Parse one HTTP/1.x request; None on EOF/garbage/idle."""
        raw_line = await asyncio.wait_for(reader.readline(),
                                          timeout=_IDLE_TIMEOUT)
        if not raw_line:
            return None
        line = raw_line.decode("latin-1").strip()
        parts = line.split()
        if len(parts) != 3:
            return None
        method, target, version = parts
        headers: dict[str, str] = {}
        while True:
            raw = await asyncio.wait_for(reader.readline(),
                                         timeout=_READ_TIMEOUT)
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        # HTTP/1.1 connections persist unless the client says "close";
        # HTTP/1.0 ones close unless the client asks for keep-alive.
        connection = headers.get("connection", "").lower()
        keep_alive = (connection == "keep-alive" if version == "HTTP/1.0"
                      else connection != "close")
        path = target.split("?", 1)[0]
        length = headers.get("content-length") or "0"
        if not (length.isascii() and length.isdigit()):
            return _Request(line, method, path, headers, None, False)
        size = int(length)
        body = b""
        if size:
            body = await asyncio.wait_for(reader.readexactly(size),
                                          timeout=_READ_TIMEOUT)
        return _Request(line, method, path, headers, body, keep_alive)

    async def _dispatch(self, request: _Request,
                        writer: asyncio.StreamWriter) -> tuple[int, bool]:
        """Route one request; returns its status and whether to keep the
        connection."""
        method, path = request.method, request.path
        keep_alive = request.keep_alive
        if request.body is None:
            reply = _bad_request("invalid Content-Length "
                                 f"{request.headers['content-length']!r}")
        elif method == "GET":
            reply = await asyncio.get_running_loop().run_in_executor(
                self._executor, self.routes.handle_get, path,
                request.headers)
            if isinstance(reply, EventStreamReply):
                # SSE always ends the connection.
                return await self._stream_job_events(writer, reply), False
        elif method == "POST":
            reply = await self._post(path, request.body)
        else:
            reply = _bad_request(f"method {method} not supported",
                                 status=405)
            keep_alive = False
        await self._write_json(writer, reply, keep_alive)
        return reply.status, keep_alive

    async def _post(self, path: str, body: bytes) -> JsonReply:
        try:
            decoded = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return _bad_request(f"request body is not valid JSON: {exc}")
        # Admission control and the bounded submission queue are
        # checked on the loop: a saturated dispatch pool (the very
        # condition backpressure exists for) must not delay the 429.
        rejected = self.routes.govern_post(path, decoded)
        if rejected is not None:
            return rejected
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, lambda: self.routes.handle_post(
                path, decoded, governed=True))

    async def _write_json(self, writer: asyncio.StreamWriter,
                          reply: JsonReply, keep_alive: bool) -> None:
        body = json.dumps(reply.payload).encode("utf-8")
        head = [f"HTTP/1.1 {reply.status} "
                f"{_REASONS.get(reply.status, 'OK')}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}"]
        for name, value in reply.headers:
            head.append(f"{name}: {value}")
        head.append("Connection: keep-alive" if keep_alive
                    else "Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()

    # -- SSE streaming -----------------------------------------------------------

    async def _stream_job_events(self, writer: asyncio.StreamWriter,
                                 request: EventStreamReply) -> int:
        """Multiplex one job-event subscription on the loop; returns the
        response status.

        The subscriber never blocks a thread: it polls the event log
        with ``timeout=0`` and parks on an :class:`asyncio.Event` that
        the job's watcher pings from whichever thread records events.
        The wake flag is cleared *before* each poll, so an event landing
        between the poll and the park just re-wakes immediately — no
        lost wakeups, no polling loop.
        """
        loop = asyncio.get_running_loop()
        routes, service = self.routes, self.service
        job_id, after = request.job_id, request.after
        policy = routes.policy
        rejected = await loop.run_in_executor(
            self._executor, routes.stream_precheck, job_id)
        if rejected is not None:
            await self._write_json(writer, rejected, keep_alive=False)
            return rejected.status
        wake = asyncio.Event()

        def ping() -> None:
            # Fired with the job lock held: hand off to the loop and
            # return immediately.
            try:
                loop.call_soon_threadsafe(wake.set)
            except RuntimeError:
                pass  # loop shut down mid-ping

        try:
            unwatch = service.watch_job(job_id, ping)
        except ReproError as exc:
            await self._write_json(
                writer, JsonReply(
                    payload=ApiError.from_exception(exc).to_dict(),
                    status=404),
                keep_alive=False)
            return 404
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-cache\r\n"
                     b"Connection: close\r\n\r\n")
        transport = writer.transport
        transport.set_write_buffer_limits(high=policy.sse_buffer_bytes)
        # Bound the kernel's send buffer too: a stalled client then
        # stops draining the transport quickly, instead of absorbing
        # megabytes of backlog before the high-water mark ever fills.
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                policy.sse_buffer_bytes)
            except OSError:
                pass
        cache = self._acquire_sse_cache(job_id)
        routes.metrics.stream_opened()
        try:
            while True:
                wake.clear()
                try:
                    events, finished = service.job_events(
                        job_id, after_seq=after, timeout=0)
                except ReproError:
                    # Pruned mid-stream (bounded retention): terminate
                    # like a vanished resource, not a hang.
                    writer.write(_sse_block(after + 1, "done",
                                            '{"status": "unknown"}'))
                    await self._drain_or_evict(writer)
                    break
                for event in events:
                    after = max(after, event.seq)
                    writer.write(self._sse_bytes(cache, event))
                if events and not await self._drain_or_evict(writer):
                    break
                if finished:
                    try:
                        status = service.job_status(job_id).status
                    except ReproError:  # pruned between the two calls
                        status = "unknown"
                    writer.write(_sse_block(after + 1, "done",
                                            json.dumps({"status": status})))
                    await self._drain_or_evict(writer)
                    break
                if self._stop_event is not None \
                        and self._stop_event.is_set():
                    break  # server draining
                if not events:
                    try:
                        await asyncio.wait_for(
                            wake.wait(), timeout=policy.keepalive_seconds)
                    except (asyncio.TimeoutError, TimeoutError):
                        writer.write(b": keepalive\n\n")
                        if not await self._drain_or_evict(writer):
                            break
        except ConnectionError:
            pass  # client went away; nothing to clean up
        finally:
            unwatch()
            routes.metrics.stream_closed()
            self._release_sse_cache(job_id)
        return 200

    async def _drain_or_evict(self, writer: asyncio.StreamWriter) -> bool:
        """Wait for the subscriber's buffer to drain; evict laggards.

        Returns False when the subscriber was evicted: its transport
        buffer stayed above the high-water mark past the policy's write
        timeout, meaning the client is not reading.  The eviction is a
        best-effort ``: client-evicted`` comment followed by a transport
        abort — the stalled socket must not leak, and healthy
        subscribers (their own coroutines) are never delayed.
        """
        policy = self.routes.policy
        try:
            await asyncio.wait_for(writer.drain(),
                                   timeout=policy.sse_write_timeout)
            return True
        except (asyncio.TimeoutError, TimeoutError):
            self.routes.metrics.stream_evicted()
            try:
                writer.write(b": client-evicted\n\n")
                writer.transport.abort()
            except Exception:  # noqa: BLE001 - already tearing down
                pass
            return False

    # -- shared SSE serialization ------------------------------------------------

    def _acquire_sse_cache(self, job_id: str) -> dict:
        entry = self._sse_cache.get(job_id)
        if entry is None:
            entry = {"refs": 0, "blocks": {}}
            self._sse_cache[job_id] = entry
        entry["refs"] += 1
        return entry

    def _release_sse_cache(self, job_id: str) -> None:
        entry = self._sse_cache.get(job_id)
        if entry is not None:
            entry["refs"] -= 1
            if entry["refs"] <= 0:
                del self._sse_cache[job_id]

    def _sse_bytes(self, cache: dict, event) -> bytes:
        blocks = cache["blocks"]
        block = blocks.get(event.seq)
        if block is None:
            block = _sse_block(event.seq, event.kind,
                               json.dumps(json_safe(event.data)))
            if len(blocks) < _SSE_CACHE_BLOCKS:
                blocks[event.seq] = block
        return block


def make_async_server(service: ZiggyService, host: str = "127.0.0.1",
                      port: int = 0, verbose: bool = False,
                      policy: GatewayPolicy | None = None) -> AsyncGateway:
    """Build (but do not start) the gateway; ``port=0`` picks a free
    port."""
    return AsyncGateway((host, port), service, verbose=verbose,
                        policy=policy)
