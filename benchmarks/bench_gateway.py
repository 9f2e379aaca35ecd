"""BENCH gateway — concurrent SSE fan-out on the HTTP gateway.

The gateway exists to hold thousands of idle-but-live event streams
without a thread apiece.  Three sections:

* **fanout** — N raw-socket SSE subscribers attach to one job, the job
  then emits timestamped events, and every subscriber's receipt latency
  is measured (emission ``perf_counter`` stamp rides in the event
  payload; same process, same clock).  Configurations: 100 clients and
  the C10k-direction scale point (1,000 clients).
* **eviction** — one deliberately stalled subscriber (tiny SO_RCVBUF,
  never reads) among healthy ones; the stalled client must be evicted
  while every healthy client still receives the full stream.
* **gates** — the scale run must complete for every subscriber, and
  eviction must isolate the stalled client.

Writes ``BENCH_gateway.json`` and prints a short table.  Usage::

    PYTHONPATH=src python benchmarks/bench_gateway.py [--smoke]
        [--out BENCH_gateway.json] [--clients N] [--scale-clients N]
        [--events N]

Exit code 1 when a gate fails, so CI trips loudly.
"""

from __future__ import annotations

import argparse
import json
import selectors
import socket
import sys
import threading
import time

from repro.core.events import StageEvent
from repro.data.boxoffice import make_boxoffice
from repro.gateway import GatewayPolicy, make_async_server
from repro.runtime import ZiggyRuntime
from repro.service import ZiggyService
from repro.service.protocol import job_event_from_stage

RECV_CHUNK = 1 << 16


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return float("nan")
    index = min(len(sorted_values) - 1,
                max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


class ServedGateway:
    """The gateway served on a daemon thread; context-managed teardown."""

    def __init__(self, policy: GatewayPolicy | None = None):
        self.service = ZiggyService(max_workers=2, runtime=ZiggyRuntime())
        self.service.register_table(make_boxoffice(n_rows=60, seed=3))
        self.server = make_async_server(self.service, port=0, policy=policy)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        self.host, self.port = self.server.server_address[:2]

    def submit_emitter(self, n_events: int, payload_pad: str = "",
                       gate: threading.Event | None = None) -> str:
        """A job that (optionally after ``gate``) emits stamped events."""

        def work(progress):
            if gate is not None:
                gate.wait(timeout=120)
            for i in range(n_events):
                progress(StageEvent("note", {"i": i,
                                             "t": time.perf_counter(),
                                             "pad": payload_pad}))
            return "ok"

        return self.service.jobs.submit(
            work, event_mapper=job_event_from_stage)

    def close(self):
        self.server.close(shutdown_service=True, wait=False)
        self.thread.join(timeout=30)


class Subscriber:
    """One raw-socket SSE client parsed incrementally off a selector."""

    def __init__(self, host: str, port: int, job_id: str,
                 rcvbuf: int | None = None):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf is not None:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.sock.connect((host, port))
        request = (f"GET /v2/jobs/{job_id}/events HTTP/1.1\r\n"
                   f"Host: {host}:{port}\r\n"
                   "Accept: text/event-stream\r\n"
                   "Connection: close\r\n\r\n")
        self.sock.sendall(request.encode("ascii"))
        self.sock.setblocking(False)
        self.buffer = b""
        self.notes = 0
        self.done = False
        self.eof = False
        self.latencies_ms: list[float] = []

    def feed(self, chunk: bytes, now: float):
        self.buffer += chunk
        while b"\n\n" in self.buffer:
            block, self.buffer = self.buffer.split(b"\n\n", 1)
            self._consume(block, now)

    def _consume(self, block: bytes, now: float):
        kind, data = None, None
        for line in block.split(b"\n"):
            if line.startswith(b"event: "):
                kind = line[7:]
            elif line.startswith(b"data: "):
                data = line[6:]
        if kind == b"note" and data is not None:
            self.notes += 1
            stamp = json.loads(data)["t"]
            self.latencies_ms.append((now - stamp) * 1000.0)
        elif kind == b"done":
            self.done = True

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def pump(subscribers: list[Subscriber], deadline: float,
         stop_when=None) -> None:
    """Drive every subscriber off one selector until done/EOF/deadline."""
    sel = selectors.DefaultSelector()
    live = 0
    for sub in subscribers:
        sel.register(sub.sock, selectors.EVENT_READ, sub)
        live += 1
    try:
        while live and time.perf_counter() < deadline:
            if stop_when is not None and stop_when():
                break
            for key, _ in sel.select(timeout=0.5):
                sub = key.data
                try:
                    chunk = sub.sock.recv(RECV_CHUNK)
                except BlockingIOError:
                    continue
                except OSError:
                    chunk = b""
                now = time.perf_counter()
                if chunk:
                    sub.feed(chunk, now)
                if not chunk or sub.done:
                    sub.eof = not chunk
                    sel.unregister(sub.sock)
                    sub.close()
                    live -= 1
    finally:
        sel.close()


def bench_fanout(n_clients: int, n_events: int,
                 timeout: float = 300.0) -> dict:
    served = ServedGateway()
    try:
        gate = threading.Event()
        job_id = served.submit_emitter(n_events, gate=gate)
        subscribers = [Subscriber(served.host, served.port, job_id)
                       for _ in range(n_clients)]
        start = time.perf_counter()
        gate.set()
        pump(subscribers, deadline=start + timeout)
        wall = time.perf_counter() - start
    finally:
        served.close()

    completed = sum(1 for s in subscribers if s.done)
    latencies = sorted(lat for s in subscribers for lat in s.latencies_ms)
    return {
        "clients": n_clients,
        "events_per_client": n_events,
        "completed": completed,
        "deliveries": len(latencies),
        "p50_ms": round(_percentile(latencies, 0.50), 3),
        "p99_ms": round(_percentile(latencies, 0.99), 3),
        "max_ms": round(latencies[-1], 3) if latencies else None,
        "wall_seconds": round(wall, 3),
    }


def bench_eviction(n_healthy: int, n_events: int) -> dict:
    policy = GatewayPolicy(sse_write_timeout=1.0, sse_buffer_bytes=8192,
                           keepalive_seconds=0.2)
    served = ServedGateway(policy=policy)
    try:
        gate = threading.Event()
        job_id = served.submit_emitter(n_events, payload_pad="x" * 512,
                                       gate=gate)
        stalled = Subscriber(served.host, served.port, job_id, rcvbuf=4096)
        time.sleep(0.2)  # let the stalled stream attach before the burst
        healthy = [Subscriber(served.host, served.port, job_id)
                   for _ in range(n_healthy)]
        start = time.perf_counter()
        gate.set()
        pump(healthy, deadline=start + 120.0)
        healthy_wall = time.perf_counter() - start

        # Wait for the server to give up on the stalled stream before
        # touching its socket: reading from it would unblock the very
        # write the eviction timeout is waiting on.
        import urllib.request

        def read_evicted() -> int:
            with urllib.request.urlopen(
                    f"http://{served.host}:{served.port}/healthz",
                    timeout=30) as reply:
                return json.load(reply)["gateway"]["evicted"]

        deadline = time.perf_counter() + 60.0
        evicted = 0
        while time.perf_counter() < deadline:
            evicted = read_evicted()
            if evicted:
                break
            time.sleep(0.2)

        # The stalled socket was torn down server-side; draining it
        # now must hit EOF (or a reset) in short order.
        deadline = time.perf_counter() + 30.0
        stalled.sock.setblocking(True)
        stalled.sock.settimeout(5.0)
        stalled_eof = False
        while time.perf_counter() < deadline:
            try:
                if not stalled.sock.recv(RECV_CHUNK):
                    stalled_eof = True
                    break
            except socket.timeout:
                continue
            except OSError:
                stalled_eof = True
                break
        stalled.close()
    finally:
        served.close()

    return {
        "healthy_clients": n_healthy,
        "healthy_completed": sum(1 for s in healthy if s.done),
        "events_per_client": n_events,
        "healthy_wall_seconds": round(healthy_wall, 3),
        "evicted": evicted,
        "stalled_connection_closed": stalled_eof,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: small client counts")
    parser.add_argument("--out", default="BENCH_gateway.json")
    parser.add_argument("--clients", type=int, default=None,
                        help="fan-out client count (default 100)")
    parser.add_argument("--scale-clients", type=int, default=None,
                        help="scale point (default 1000)")
    parser.add_argument("--events", type=int, default=None,
                        help="events per job in the fanout runs")
    args = parser.parse_args(argv)

    clients = args.clients or (20 if args.smoke else 100)
    scale_clients = args.scale_clients or (100 if args.smoke else 1000)
    events = args.events or (10 if args.smoke else 20)
    scale_events = max(3, events // 4)

    fanout = {}
    for n_clients, n_events in ((clients, events),
                                (scale_clients, scale_events)):
        label = f"async@{n_clients}"
        print(f"fanout {label}: {n_events} events/client ...",
              flush=True)
        row = fanout[label] = bench_fanout(n_clients, n_events)
        print(f"  completed {row['completed']}/{n_clients}, "
              f"p50 {row['p50_ms']}ms, p99 {row['p99_ms']}ms, "
              f"wall {row['wall_seconds']}s", flush=True)

    print("eviction: 1 stalled + healthy readers ...", flush=True)
    eviction = bench_eviction(n_healthy=5 if args.smoke else 20,
                              n_events=150 if args.smoke else 300)
    print(f"  healthy {eviction['healthy_completed']}"
          f"/{eviction['healthy_clients']}, "
          f"evicted {eviction['evicted']}, "
          f"stalled closed: {eviction['stalled_connection_closed']}",
          flush=True)

    scale = fanout[f"async@{scale_clients}"]
    gates = {
        "async_scale_completes": {
            "required": scale_clients,
            "completed": scale["completed"],
            "ok": scale["completed"] == scale_clients,
        },
        "eviction_isolates_stall": {
            "ok": (eviction["evicted"] >= 1
                   and eviction["stalled_connection_closed"]
                   and eviction["healthy_completed"]
                       == eviction["healthy_clients"]),
        },
    }

    report = {
        "bench": "gateway",
        "smoke": args.smoke,
        "fanout": fanout,
        "eviction": eviction,
        "gates": gates,
        "ok": all(gate["ok"] for gate in gates.values()),
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"\nwrote {args.out}")
    for name, gate in gates.items():
        print(f"gate {name}: {'ok' if gate['ok'] else 'FAILED'}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
