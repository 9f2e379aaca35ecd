"""Admission control for the gateway: token buckets.

Compute-heavy requests (characterize, batch, job submission) pass
through an :class:`AdmissionController` before they reach the service.
The controller keeps one :class:`TokenBucket` per client ID and one per
table name; a request must win a token from *both* scopes (when both
are configured) or it is rejected with the number of seconds after
which a token will be available — the value the HTTP layer surfaces as
``Retry-After`` on a 429 response.

Token buckets, not sliding windows, because they are O(1) in memory and
time and allow controlled bursts: a bucket of capacity ``burst`` refills
at ``rate`` tokens per second, so a client can fire ``burst`` requests
back to back and then sustain ``rate`` requests/second — the classic
shape for interactive exploration traffic (a person clicks a few times,
then thinks).

Buckets are created lazily and the key space is bounded: beyond
``max_keys`` distinct clients/tables, the least-recently-used bucket is
dropped (a dropped bucket resurrects full, which only ever errs in the
caller's favour).  Everything is thread-safe: the gateway calls
:meth:`AdmissionController.admit` from its event loop, and in-process
callers of :meth:`GatewayRoutes.handle_post` from their own threads.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

#: Most distinct per-client / per-table buckets kept before LRU drop.
DEFAULT_MAX_KEYS = 4096


class TokenBucket:
    """A thread-safe token bucket (``rate`` tokens/s, ``burst`` deep).

    :meth:`try_acquire` either takes one token and returns ``0.0`` or
    leaves the bucket untouched and returns the seconds until a token
    will have accrued — never negative, never an exception.
    """

    __slots__ = ("rate", "burst", "_tokens", "_stamp", "_lock")

    def __init__(self, rate: float, burst: float):
        if rate <= 0:
            raise ValueError(f"token rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be at least 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._stamp = now

    def try_acquire(self, now: float | None = None) -> float:
        """Take one token (returns 0.0) or report the wait in seconds."""
        now = time.monotonic() if now is None else now
        with self._lock:
            self._refill(now)
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return 0.0
            return (1.0 - self._tokens) / self.rate

    def peek(self, now: float | None = None) -> float:
        """The current token count (diagnostics only)."""
        now = time.monotonic() if now is None else now
        with self._lock:
            self._refill(now)
            return self._tokens


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one admission check."""

    #: True when the request may proceed.
    allowed: bool
    #: Seconds after which a retry can succeed (0.0 when allowed).
    retry_after: float = 0.0
    #: Which scope rejected: ``"client"`` or ``"table"`` (None if allowed).
    scope: str | None = None

    def __bool__(self) -> bool:
        return self.allowed


class _BucketMap:
    """A bounded, lazily populated key -> TokenBucket map (LRU)."""

    def __init__(self, rate: float, burst: float,
                 max_keys: int = DEFAULT_MAX_KEYS):
        self.rate = rate
        self.burst = burst
        self.max_keys = max_keys
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self._lock = threading.Lock()

    def bucket(self, key: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst)
                self._buckets[key] = bucket
                while len(self._buckets) > self.max_keys:
                    self._buckets.popitem(last=False)
            else:
                self._buckets.move_to_end(key)
            return bucket

    def __len__(self) -> int:
        with self._lock:
            return len(self._buckets)


class AdmissionController:
    """Per-client and per-table token-bucket admission.

    Args:
        client_rate / client_burst: sustained requests/second and burst
            depth allowed per client ID; ``client_rate=None`` disables
            the per-client scope entirely.
        table_rate / table_burst: the same, keyed on the target table —
            this bounds how hard any one (possibly popular) table can be
            hammered regardless of how many distinct clients pile on.
        max_keys: bound on distinct buckets kept per scope.

    A default-constructed controller admits everything (both scopes
    off), so wiring it unconditionally into a front-end costs nothing
    until limits are configured.
    """

    def __init__(self, client_rate: float | None = None,
                 client_burst: float | None = None,
                 table_rate: float | None = None,
                 table_burst: float | None = None,
                 max_keys: int = DEFAULT_MAX_KEYS):
        self._clients = (_BucketMap(client_rate,
                                    client_burst or max(1.0, client_rate),
                                    max_keys)
                         if client_rate is not None else None)
        self._tables = (_BucketMap(table_rate,
                                   table_burst or max(1.0, table_rate),
                                   max_keys)
                        if table_rate is not None else None)

    @property
    def enabled(self) -> bool:
        """Whether any scope is configured."""
        return self._clients is not None or self._tables is not None

    def admit(self, client_id: str | None,
              table: str | None) -> AdmissionDecision:
        """Check both scopes; reject with the *longer* retry horizon.

        The client bucket is charged first; when the table bucket then
        rejects, the client token is refunded — a rejected request must
        not burn the caller's budget (that would punish retrying exactly
        as instructed).
        """
        client_bucket = (self._clients.bucket(client_id or "default")
                         if self._clients is not None else None)
        if client_bucket is not None:
            wait = client_bucket.try_acquire()
            if wait > 0.0:
                return AdmissionDecision(False, retry_after=wait,
                                         scope="client")
        if self._tables is not None and table:
            wait = self._tables.bucket(table).try_acquire()
            if wait > 0.0:
                if client_bucket is not None:
                    with client_bucket._lock:
                        client_bucket._tokens = min(
                            client_bucket.burst, client_bucket._tokens + 1.0)
                return AdmissionDecision(False, retry_after=wait,
                                         scope="table")
        return AdmissionDecision(True)

    def describe(self) -> dict:
        """Configuration + live key counts (for /healthz)."""
        info: dict = {"enabled": self.enabled}
        if self._clients is not None:
            info["client"] = {"rate": self._clients.rate,
                              "burst": self._clients.burst,
                              "keys": len(self._clients)}
        if self._tables is not None:
            info["table"] = {"rate": self._tables.rate,
                             "burst": self._tables.burst,
                             "keys": len(self._tables)}
        return info
