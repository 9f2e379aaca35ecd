"""Protocol v2 — the typed request/response language of the service.

The paper's architecture is "the query characterization engine and a Web
server"; this module is the contract between them.  Every message is a
frozen dataclass with ``to_dict`` / ``from_dict`` round-tripping through
plain JSON-able dicts, so the HTTP server, the Python client, the v1
compatibility adapter and the tests all speak the same language.

Conventions:

* every serialized message carries ``"protocol": PROTOCOL_VERSION`` and a
  ``"type"`` tag; :func:`parse_request` / :func:`parse_response` dispatch
  on the tag.
* responses carry ``"ok": True``; errors are :class:`ApiError` with
  ``"ok": False`` and a stable machine-readable ``code``.
* every float is passed through :func:`json_safe`, which recursively
  replaces non-finite values with ``None`` (JSON has no ``inf``/``nan``)
  and converts numpy scalars/arrays to native types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.core.views import CharacterizationResult, ComponentScore, ViewResult
from repro.errors import (
    ConfigError,
    EmptySelectionError,
    JobCancelled,
    JobInterruptedError,
    JobNotFoundError,
    NoActiveQueryError,
    ProtocolError,
    QuerySyntaxError,
    ReproError,
    ThrottledError,
    UnknownColumnError,
    UnknownDatasetError,
    UnknownTableError,
)

#: The protocol generation this module implements.
PROTOCOL_VERSION = 2

#: Default number of views per page when a request asks for pagination
#: without naming a size.
DEFAULT_PAGE_SIZE = 8


class ErrorCode:
    """Stable machine-readable error codes (string constants)."""

    BAD_REQUEST = "bad_request"
    UNKNOWN_ACTION = "unknown_action"
    UNKNOWN_TABLE = "unknown_table"
    UNKNOWN_COLUMN = "unknown_column"
    SYNTAX_ERROR = "syntax_error"
    EMPTY_SELECTION = "empty_selection"
    INVALID_CONFIG = "invalid_config"
    NO_ACTIVE_QUERY = "no_active_query"
    JOB_NOT_FOUND = "job_not_found"
    CANCELLED = "cancelled"
    INTERRUPTED = "interrupted"
    THROTTLED = "throttled"
    ERROR = "error"
    INTERNAL = "internal"


#: Exception type -> error code, checked in order (subclasses first).
_EXCEPTION_CODES: tuple[tuple[type, str], ...] = (
    (QuerySyntaxError, ErrorCode.SYNTAX_ERROR),
    (UnknownColumnError, ErrorCode.UNKNOWN_COLUMN),
    (UnknownTableError, ErrorCode.UNKNOWN_TABLE),
    (UnknownDatasetError, ErrorCode.UNKNOWN_TABLE),
    (EmptySelectionError, ErrorCode.EMPTY_SELECTION),
    (ConfigError, ErrorCode.INVALID_CONFIG),
    (NoActiveQueryError, ErrorCode.NO_ACTIVE_QUERY),
    (JobNotFoundError, ErrorCode.JOB_NOT_FOUND),
    (JobCancelled, ErrorCode.CANCELLED),
    (JobInterruptedError, ErrorCode.INTERRUPTED),
    (ThrottledError, ErrorCode.THROTTLED),
    (ProtocolError, ErrorCode.BAD_REQUEST),
    (ReproError, ErrorCode.ERROR),
)


def error_code_for(exc: BaseException) -> str:
    """The protocol error code for an exception (``internal`` fallback).

    An exception carrying an ``error_code`` attribute (e.g. a
    journal-restored job error whose original type did not survive the
    restart) keeps its recorded code instead of a type-derived one.
    """
    recorded = getattr(exc, "error_code", None)
    if recorded:
        return str(recorded)
    for exc_type, code in _EXCEPTION_CODES:
        if isinstance(exc, exc_type):
            return code
    return ErrorCode.INTERNAL


# ---------------------------------------------------------------------------
# JSON safety
# ---------------------------------------------------------------------------


def json_safe(value: Any) -> Any:
    """Recursively convert ``value`` into something ``json.dumps`` accepts.

    Non-finite floats become ``None`` at any nesting depth, numpy
    scalars become native Python numbers, numpy arrays and tuples become
    lists, and dict keys are stringified.
    """
    if isinstance(value, bool):  # before int: bool is an int subclass
        return value
    if isinstance(value, float):  # also catches np.float64 (a float subclass)
        return float(value) if math.isfinite(value) else None
    if isinstance(value, (int, str)) or value is None:
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value) if math.isfinite(float(value)) else None
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [json_safe(v) for v in value]
    return value


def component_to_dict(score: ComponentScore) -> dict[str, Any]:
    """Serialize one component score (shared by protocol v2 and the v1
    adapter — shapes are identical)."""
    return {
        "component": score.component,
        "columns": list(score.columns),
        "raw": json_safe(score.raw),
        "normalized": json_safe(score.normalized),
        "weight": json_safe(score.weight),
        "direction": score.direction,
        "p_value": json_safe(score.p_value),
        "detail": json_safe(score.detail),
    }


def view_to_dict(result: ViewResult, rank: int) -> dict[str, Any]:
    """Serialize one ranked view."""
    return {
        "rank": rank,
        "columns": list(result.columns),
        "score": json_safe(result.score),
        "tightness": json_safe(result.tightness),
        "p_value": json_safe(result.p_value),
        "significant": result.significant,
        "explanation": result.explanation,
        "components": [component_to_dict(c) for c in result.components],
    }


# ---------------------------------------------------------------------------
# Envelope helpers
# ---------------------------------------------------------------------------


def _check_protocol(payload: Mapping) -> None:
    version = payload.get("protocol", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this server speaks {PROTOCOL_VERSION})")


def _require(payload: Mapping, key: str, kind: str) -> Any:
    if key not in payload or payload[key] is None:
        raise ProtocolError(f"{kind} requires field {key!r}")
    return payload[key]


def _opt_int(payload: Mapping, key: str, default: int | None) -> int | None:
    value = payload.get(key, default)
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ProtocolError(f"field {key!r} must be an integer, "
                            f"got {value!r}") from None


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharacterizeRequest:
    """Characterize one predicate's selection.

    Attributes:
        where: predicate text (the body of a WHERE clause).
        table: table name; optional when the session holds one table.
        client_id: session key — requests with the same client ID share
            history, configuration and statistics caches.
        page / page_size: pagination of the returned views
            (``page_size=None`` returns everything on one page).
        weights: component weight overrides applied before the query.
        options: :class:`ZiggyConfig` field overrides applied before the
            query.
    """

    where: str
    table: str | None = None
    client_id: str = "default"
    page: int = 1
    page_size: int | None = None
    weights: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    TYPE = "characterize"

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": self.TYPE, "protocol": PROTOCOL_VERSION,
            "where": self.where, "table": self.table,
            "client_id": self.client_id,
            "page": self.page, "page_size": self.page_size,
            "weights": json_safe(self.weights),
            "options": json_safe(self.options),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CharacterizeRequest":
        _check_protocol(payload)
        return cls(
            where=str(_require(payload, "where", cls.TYPE)),
            table=payload.get("table"),
            client_id=str(payload.get("client_id", "default")),
            page=_opt_int(payload, "page", 1) or 1,
            page_size=_opt_int(payload, "page_size", None),
            weights=dict(payload.get("weights") or {}),
            options=dict(payload.get("options") or {}),
        )


@dataclass(frozen=True)
class BatchRequest:
    """Characterize several predicates in one call, sharing statistics.

    Two shapes are accepted: ``predicates`` (all against one ``table``,
    the original form) or ``items`` — ``(table, where)`` pairs that may
    span several tables.  Either way the service's shard-aware batch
    scheduler groups the entries by owning table, so each table's
    predicates run back-to-back against one warm :class:`StatsCache`
    (and, on the process backend, each table's group runs on the one
    shard that owns its fingerprint) instead of interleaving cold
    submissions.  Results come back in submission order regardless of
    how the scheduler grouped them.
    """

    predicates: tuple[str, ...] = ()
    table: str | None = None
    client_id: str = "default"
    page_size: int | None = None
    options: dict = field(default_factory=dict)
    items: tuple = ()

    TYPE = "batch"

    def __post_init__(self):
        object.__setattr__(self, "predicates", tuple(self.predicates))
        object.__setattr__(self, "items", tuple(
            (table, str(where)) for table, where in self.items))
        if not self.predicates and not self.items:
            raise ProtocolError("a batch request needs at least one predicate")
        if self.predicates and self.items:
            raise ProtocolError(
                "a batch request takes either 'predicates' or 'items', "
                "not both")

    def entries(self) -> tuple:
        """The batch as ``(table, where)`` pairs, in submission order.

        ``table`` may be None (the session's sole table resolves it);
        ``items`` entries without a table fall back to ``self.table``.
        """
        if self.items:
            return tuple((table if table is not None else self.table, where)
                         for table, where in self.items)
        return tuple((self.table, where) for where in self.predicates)

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "type": self.TYPE, "protocol": PROTOCOL_VERSION,
            "predicates": list(self.predicates), "table": self.table,
            "client_id": self.client_id, "page_size": self.page_size,
            "options": json_safe(self.options),
        }
        if self.items:
            payload["items"] = [{"table": table, "where": where}
                                for table, where in self.items]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "BatchRequest":
        _check_protocol(payload)
        raw_items = payload.get("items")
        items: tuple = ()
        if raw_items:
            if isinstance(raw_items, (str, Mapping)) \
                    or not isinstance(raw_items, Sequence):
                raise ProtocolError(
                    "field 'items' must be a list of {table, where} objects")
            built = []
            for entry in raw_items:
                if not isinstance(entry, Mapping) or "where" not in entry:
                    raise ProtocolError(
                        "each batch item needs at least a 'where' field")
                built.append((entry.get("table"), str(entry["where"])))
            items = tuple(built)
        predicates = payload.get("predicates")
        if not items:
            predicates = _require(payload, "predicates", cls.TYPE)
        if predicates is not None and (
                isinstance(predicates, str)
                or not isinstance(predicates, Sequence)):
            raise ProtocolError("field 'predicates' must be a list of strings")
        return cls(
            predicates=tuple(str(p) for p in predicates or ()),
            table=payload.get("table"),
            client_id=str(payload.get("client_id", "default")),
            page_size=_opt_int(payload, "page_size", None),
            options=dict(payload.get("options") or {}),
            items=items,
        )


@dataclass(frozen=True)
class ViewPageRequest:
    """Page through the views of the client's current (latest) result."""

    client_id: str = "default"
    page: int = 1
    page_size: int | None = DEFAULT_PAGE_SIZE

    TYPE = "views"

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.TYPE, "protocol": PROTOCOL_VERSION,
                "client_id": self.client_id,
                "page": self.page, "page_size": self.page_size}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ViewPageRequest":
        _check_protocol(payload)
        return cls(client_id=str(payload.get("client_id", "default")),
                   page=_opt_int(payload, "page", 1) or 1,
                   page_size=_opt_int(payload, "page_size", DEFAULT_PAGE_SIZE))


@dataclass(frozen=True)
class JobSubmitRequest:
    """Submit a characterization to run asynchronously as a job."""

    request: CharacterizeRequest

    TYPE = "submit"

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.TYPE, "protocol": PROTOCOL_VERSION,
                "request": self.request.to_dict()}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "JobSubmitRequest":
        _check_protocol(payload)
        inner = _require(payload, "request", cls.TYPE)
        if not isinstance(inner, Mapping):
            raise ProtocolError("field 'request' must be a characterize "
                                "request object")
        return cls(request=CharacterizeRequest.from_dict(inner))


@dataclass(frozen=True)
class JobControlRequest:
    """Poll (``op="status"``) or cancel (``op="cancel"``) a job."""

    job_id: str
    op: str = "status"

    TYPE = "job"
    OPS = ("status", "cancel")

    def __post_init__(self):
        if self.op not in self.OPS:
            raise ProtocolError(f"job op must be one of {self.OPS}, "
                                f"got {self.op!r}")

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.TYPE, "protocol": PROTOCOL_VERSION,
                "job_id": self.job_id, "op": self.op}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "JobControlRequest":
        _check_protocol(payload)
        return cls(job_id=str(_require(payload, "job_id", cls.TYPE)),
                   op=str(payload.get("op", "status")))


@dataclass(frozen=True)
class TablesRequest:
    """List the tables registered with the service."""

    TYPE = "tables"

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.TYPE, "protocol": PROTOCOL_VERSION}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TablesRequest":
        _check_protocol(payload)
        return cls()


@dataclass(frozen=True)
class ConfigureRequest:
    """Adjust a client session's component weights and config options."""

    client_id: str = "default"
    weights: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    TYPE = "configure"

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.TYPE, "protocol": PROTOCOL_VERSION,
                "client_id": self.client_id,
                "weights": json_safe(self.weights),
                "options": json_safe(self.options)}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ConfigureRequest":
        _check_protocol(payload)
        return cls(client_id=str(payload.get("client_id", "default")),
                   weights=dict(payload.get("weights") or {}),
                   options=dict(payload.get("options") or {}))


@dataclass(frozen=True)
class StateRequest:
    """Report the service's durable-state health (journal, snapshots,
    recovery) — the typed form of ``GET /v2/state``."""

    TYPE = "state"

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.TYPE, "protocol": PROTOCOL_VERSION}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StateRequest":
        _check_protocol(payload)
        return cls()


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ViewPage:
    """One page of serialized views.

    ``page_size == 0`` means "unpaged" (everything on page 1).  An
    out-of-range page is not an error: it has empty ``items`` and
    ``has_next == False``, so clients can iterate until exhaustion.
    """

    items: tuple[dict, ...]
    page: int
    page_size: int
    total: int

    TYPE = "view_page"

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))

    @property
    def has_next(self) -> bool:
        """Whether a later page holds more views."""
        if self.page_size <= 0:
            return False
        return self.page * self.page_size < self.total

    @classmethod
    def from_views(cls, views: Sequence[ViewResult], page: int = 1,
                   page_size: int | None = None) -> "ViewPage":
        """Slice ranked views into one page (ranks stay global)."""
        page = max(1, int(page))
        if page_size is None or page_size <= 0:
            start, stop, size = 0, len(views), 0
            page = 1
        else:
            size = int(page_size)
            start = (page - 1) * size
            stop = start + size
        items = tuple(view_to_dict(v, rank)
                      for rank, v in enumerate(views[start:stop],
                                               start=start + 1))
        return cls(items=items, page=page, page_size=size, total=len(views))

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.TYPE, "protocol": PROTOCOL_VERSION, "ok": True,
                "items": [dict(i) for i in self.items],
                "page": self.page, "page_size": self.page_size,
                "total": self.total, "has_next": self.has_next}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ViewPage":
        _check_protocol(payload)
        items = payload.get("items", [])
        return cls(items=tuple(dict(i) for i in items),
                   page=_opt_int(payload, "page", 1) or 1,
                   page_size=_opt_int(payload, "page_size", 0) or 0,
                   total=_opt_int(payload, "total", len(items)) or 0)


@dataclass(frozen=True)
class CharacterizeResponse:
    """The outcome of one characterization, with paginated views."""

    predicate: str
    table: str
    n_inside: int
    n_outside: int
    n_views: int
    timings_ms: dict
    views: ViewPage
    notes: tuple[str, ...] = ()

    TYPE = "characterize_result"

    def __post_init__(self):
        object.__setattr__(self, "notes", tuple(self.notes))

    @classmethod
    def from_result(cls, result: CharacterizationResult, table: str,
                    page: int = 1,
                    page_size: int | None = None) -> "CharacterizeResponse":
        """Build the response from a pipeline result."""
        return cls(
            predicate=result.predicate,
            table=table,
            n_inside=result.n_inside,
            n_outside=result.n_outside,
            n_views=len(result.views),
            timings_ms={k: json_safe(v * 1000.0)
                        for k, v in result.timings.items()},
            views=ViewPage.from_views(result.views, page=page,
                                      page_size=page_size),
            notes=tuple(result.notes),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": self.TYPE, "protocol": PROTOCOL_VERSION, "ok": True,
            "predicate": self.predicate, "table": self.table,
            "n_inside": self.n_inside, "n_outside": self.n_outside,
            "n_views": self.n_views,
            "timings_ms": json_safe(self.timings_ms),
            "views": self.views.to_dict(),
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CharacterizeResponse":
        _check_protocol(payload)
        return cls(
            predicate=str(_require(payload, "predicate", cls.TYPE)),
            table=str(payload.get("table", "")),
            n_inside=_opt_int(payload, "n_inside", 0) or 0,
            n_outside=_opt_int(payload, "n_outside", 0) or 0,
            n_views=_opt_int(payload, "n_views", 0) or 0,
            timings_ms=dict(payload.get("timings_ms") or {}),
            views=ViewPage.from_dict(payload.get("views") or
                                     {"items": [], "page": 1,
                                      "page_size": 0, "total": 0}),
            notes=tuple(payload.get("notes") or ()),
        )


@dataclass(frozen=True)
class BatchResponse:
    """The outcomes of a batch, plus the shared-cache evidence."""

    results: tuple[CharacterizeResponse, ...]
    total_time_ms: float
    cache_hits: int | None = None
    cache_misses: int | None = None

    TYPE = "batch_result"

    def __post_init__(self):
        object.__setattr__(self, "results", tuple(self.results))

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": self.TYPE, "protocol": PROTOCOL_VERSION, "ok": True,
            "results": [r.to_dict() for r in self.results],
            "total_time_ms": json_safe(self.total_time_ms),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "BatchResponse":
        _check_protocol(payload)
        return cls(
            results=tuple(CharacterizeResponse.from_dict(r)
                          for r in payload.get("results") or ()),
            total_time_ms=float(payload.get("total_time_ms", 0.0)),
            cache_hits=_opt_int(payload, "cache_hits", None),
            cache_misses=_opt_int(payload, "cache_misses", None),
        )


@dataclass(frozen=True)
class JobSnapshot:
    """A point-in-time view of a job's lifecycle.

    ``partial_views`` holds the views streamed so far (the progressive
    results); ``result`` is set once the job is ``done``; ``error`` once
    it ``failed``.
    """

    job_id: str
    status: str
    timings_ms: dict = field(default_factory=dict)
    partial_views: tuple[dict, ...] = ()
    result: CharacterizeResponse | None = None
    error: "ApiError | None" = None

    TYPE = "job_status"

    def __post_init__(self):
        object.__setattr__(self, "partial_views", tuple(self.partial_views))

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state (``interrupted`` is
        one: the coordinator restarted and did not resume the job)."""
        return self.status in ("done", "failed", "cancelled", "interrupted")

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": self.TYPE, "protocol": PROTOCOL_VERSION, "ok": True,
            "job_id": self.job_id, "status": self.status,
            "timings_ms": json_safe(self.timings_ms),
            "partial_views": [dict(v) for v in self.partial_views],
            "result": self.result.to_dict() if self.result else None,
            "error": self.error.to_dict() if self.error else None,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "JobSnapshot":
        _check_protocol(payload)
        result = payload.get("result")
        error = payload.get("error")
        return cls(
            job_id=str(_require(payload, "job_id", cls.TYPE)),
            status=str(_require(payload, "status", cls.TYPE)),
            timings_ms=dict(payload.get("timings_ms") or {}),
            partial_views=tuple(dict(v)
                                for v in payload.get("partial_views") or ()),
            result=(CharacterizeResponse.from_dict(result)
                    if result else None),
            error=ApiError.from_dict(error) if error else None,
        )


@dataclass(frozen=True)
class TableInfo:
    """Catalog entry for one registered table."""

    name: str
    rows: int
    columns: int
    column_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "column_names", tuple(self.column_names))

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "rows": self.rows,
                "columns": self.columns,
                "column_names": list(self.column_names)}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TableInfo":
        return cls(name=str(payload.get("name", "")),
                   rows=_opt_int(payload, "rows", 0) or 0,
                   columns=_opt_int(payload, "columns", 0) or 0,
                   column_names=tuple(payload.get("column_names") or ()))


@dataclass(frozen=True)
class TableList:
    """The service catalog."""

    tables: tuple[TableInfo, ...]

    TYPE = "table_list"

    def __post_init__(self):
        object.__setattr__(self, "tables", tuple(self.tables))

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.TYPE, "protocol": PROTOCOL_VERSION, "ok": True,
                "tables": [t.to_dict() for t in self.tables]}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TableList":
        _check_protocol(payload)
        return cls(tables=tuple(TableInfo.from_dict(t)
                                for t in payload.get("tables") or ()))


@dataclass(frozen=True)
class ConfigureResponse:
    """Acknowledges a configuration change; echoes the effective weights."""

    weights: dict
    applied: tuple[str, ...] = ()

    TYPE = "configure_result"

    def __post_init__(self):
        object.__setattr__(self, "applied", tuple(self.applied))

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.TYPE, "protocol": PROTOCOL_VERSION, "ok": True,
                "weights": json_safe(self.weights),
                "applied": list(self.applied)}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ConfigureResponse":
        _check_protocol(payload)
        return cls(weights=dict(payload.get("weights") or {}),
                   applied=tuple(payload.get("applied") or ()))


@dataclass(frozen=True)
class StateReport:
    """The durable-state health report (the ``GET /v2/state`` body).

    ``enabled`` is False for a fully in-memory service — the other
    sections are then empty.  ``journal`` / ``snapshots`` carry the
    write-side counters of :mod:`repro.persistence`; ``recovery`` is the
    last boot's :class:`~repro.persistence.RecoveryReport` (or None when
    the journal was empty / no recovery ran); ``runtime`` is the shared
    runtime's ``stats_snapshot()`` (``tables`` and ``registry``);
    ``jobs`` counts the manager's live records by status.
    """

    enabled: bool
    state_dir: str | None = None
    uptime_seconds: float = 0.0
    journal: dict = field(default_factory=dict)
    snapshots: dict = field(default_factory=dict)
    recovery: dict | None = None
    runtime: dict = field(default_factory=dict)
    jobs: dict = field(default_factory=dict)
    #: Front-end saturation counters (open/peak SSE subscribers,
    #: evictions, throttle/queue rejections); None when the report was
    #: produced outside an HTTP front-end.
    gateway: dict | None = None
    #: Process-wide stage/kernel timing aggregates from the profiler
    #: (``{name: {calls, total_s, max_s}}``); empty when profiling is
    #: disabled or nothing has run yet.
    profile: dict = field(default_factory=dict)

    TYPE = "state_report"

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "type": self.TYPE, "protocol": PROTOCOL_VERSION, "ok": True,
            "enabled": self.enabled, "state_dir": self.state_dir,
            "uptime_seconds": json_safe(self.uptime_seconds),
            "journal": json_safe(self.journal),
            "snapshots": json_safe(self.snapshots),
            "recovery": json_safe(self.recovery),
            "runtime": json_safe(self.runtime),
            "jobs": json_safe(self.jobs),
            "profile": json_safe(self.profile),
        }
        if self.gateway is not None:
            payload["gateway"] = json_safe(self.gateway)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StateReport":
        _check_protocol(payload)
        recovery = payload.get("recovery")
        return cls(
            enabled=bool(payload.get("enabled", False)),
            state_dir=payload.get("state_dir"),
            uptime_seconds=float(payload.get("uptime_seconds", 0.0) or 0.0),
            journal=dict(payload.get("journal") or {}),
            snapshots=dict(payload.get("snapshots") or {}),
            recovery=dict(recovery) if recovery else None,
            runtime=dict(payload.get("runtime") or {}),
            jobs=dict(payload.get("jobs") or {}),
            profile=dict(payload.get("profile") or {}),
            gateway=(dict(payload["gateway"])
                     if isinstance(payload.get("gateway"), Mapping)
                     else None),
        )


@dataclass(frozen=True)
class JobEvent:
    """One streamed execution event of a job (the SSE wire unit).

    ``seq`` is the job-local monotonic event number (clients resume a
    dropped stream by discarding events they have seen).  ``kind`` is a
    :mod:`repro.core.events` stage-event kind — ``prepared``,
    ``component-scored``, ``view-ranked``, ``search-complete``,
    ``view-ready``, ``result``, ``batch-item`` — or the terminal
    ``done`` event carrying the job's final status.  ``data`` is a small
    JSON-able summary of the stage artifact (full views for
    ``view-ranked``/``view-ready``, counts elsewhere).

    Jobs on the self-healing process backend may additionally emit a
    ``worker-restart`` event when their worker died and the task was
    re-enqueued on the respawned shard: ``data`` carries ``worker``,
    ``restart`` (the shard's respawn ordinal), ``attempt`` and
    ``exitcode``.  Stage events of the aborted attempt precede it;
    the retry's events follow from ``prepared`` again.
    """

    seq: int
    kind: str
    data: dict = field(default_factory=dict)

    TYPE = "job_event"

    #: The stream-terminating pseudo-kind.
    DONE = "done"

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.TYPE, "protocol": PROTOCOL_VERSION, "ok": True,
                "seq": self.seq, "kind": self.kind,
                "data": json_safe(self.data)}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "JobEvent":
        _check_protocol(payload)
        return cls(seq=_opt_int(payload, "seq", 0) or 0,
                   kind=str(_require(payload, "kind", cls.TYPE)),
                   data=dict(payload.get("data") or {}))


def job_event_from_stage(seq: int, kind: str, payload: Any) -> JobEvent:
    """Serialize one recorded job event for the wire, under its kind.

    The payloads are pipeline-internal objects; each kind maps to a small
    JSON-able summary (duck-typed so the protocol stays import-light).
    Both view kinds arrive as ``(rank, ViewResult)`` — the job manager
    stamps the keep-order rank on streamed views, the pipeline stamps the
    final rank on ready views.
    """
    data: dict[str, Any]
    if kind in ("view-ranked", "view-ready") and isinstance(payload, tuple) \
            and len(payload) == 2 and isinstance(payload[1], ViewResult):
        rank, view = payload
        data = view_to_dict(view, int(rank))
    elif kind == "view-ranked" and isinstance(payload, ViewResult):
        data = view_to_dict(payload, 0)  # rank unknown outside a job run
    elif kind == "result" and isinstance(payload, CharacterizationResult):
        data = {
            "n_views": len(payload.views),
            "predicate": payload.predicate,
            "n_inside": payload.n_inside,
            "n_outside": payload.n_outside,
            "timings_ms": {k: json_safe(v * 1000.0)
                           for k, v in payload.timings.items()},
        }
    elif kind == "prepared":
        data = {
            "n_columns": len(getattr(payload, "active_columns", ()) or ()),
            "notes": list(getattr(payload, "notes", ()) or ()),
        }
    elif kind == "component-scored":
        # Local runs carry the full catalog; cross-process runs carry the
        # executor layer's CatalogSummary, which pre-counts.
        if hasattr(payload, "n_unary"):
            data = {"n_unary": int(payload.n_unary),
                    "n_pairwise": int(payload.n_pairwise)}
        else:
            unary = getattr(payload, "unary", {}) or {}
            pairwise = getattr(payload, "pairwise", {}) or {}
            data = {
                "n_unary": sum(len(v) for v in unary.values()),
                "n_pairwise": sum(len(v) for v in pairwise.values()),
            }
    elif kind == "search-complete":
        data = {
            "n_candidates": int(getattr(payload, "n_candidates", 0) or 0),
            "n_views": (int(payload.n_views) if hasattr(payload, "n_views")
                        else len(getattr(payload, "views", ()) or ())),
        }
    elif kind == "batch-item" and isinstance(payload, tuple) \
            and len(payload) == 2:
        # Local runs carry (index, full result); cross-process runs
        # carry (index, BatchItemSummary) — both pre-count the views.
        index, result = payload
        data = {"index": int(index),
                "n_views": (int(result.n_views)
                            if hasattr(result, "n_views")
                            else len(getattr(result, "views", ()) or ()))}
    else:
        safe = json_safe(payload)
        data = safe if isinstance(safe, dict) else {"info": repr(payload)}
    return JobEvent(seq=seq, kind=kind, data=data)


@dataclass(frozen=True)
class ApiError:
    """A structured error — what every failure serializes to.

    ``code`` is machine-readable (see :class:`ErrorCode`), ``message`` is
    for humans, ``detail`` carries optional context (e.g. the available
    actions for ``unknown_action``).
    """

    code: str
    message: str
    detail: dict = field(default_factory=dict)

    TYPE = "error"

    @classmethod
    def from_exception(cls, exc: BaseException,
                       detail: dict | None = None) -> "ApiError":
        """Map an exception onto a protocol error."""
        return cls(code=error_code_for(exc), message=str(exc),
                   detail=detail or {})

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.TYPE, "protocol": PROTOCOL_VERSION, "ok": False,
                "error": {"code": self.code, "message": self.message,
                          "detail": json_safe(self.detail)}}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ApiError":
        _check_protocol(payload)
        body = payload.get("error")
        if not isinstance(body, Mapping):
            raise ProtocolError("error payload missing 'error' object")
        return cls(code=str(body.get("code", ErrorCode.ERROR)),
                   message=str(body.get("message", "")),
                   detail=dict(body.get("detail") or {}))


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

#: Request tag -> class, for :func:`parse_request`.
REQUEST_TYPES: dict[str, Any] = {
    CharacterizeRequest.TYPE: CharacterizeRequest,
    BatchRequest.TYPE: BatchRequest,
    ViewPageRequest.TYPE: ViewPageRequest,
    JobSubmitRequest.TYPE: JobSubmitRequest,
    JobControlRequest.TYPE: JobControlRequest,
    TablesRequest.TYPE: TablesRequest,
    ConfigureRequest.TYPE: ConfigureRequest,
    StateRequest.TYPE: StateRequest,
}

#: Response tag -> class, for :func:`parse_response`.
RESPONSE_TYPES: dict[str, Any] = {
    ViewPage.TYPE: ViewPage,
    CharacterizeResponse.TYPE: CharacterizeResponse,
    BatchResponse.TYPE: BatchResponse,
    JobSnapshot.TYPE: JobSnapshot,
    JobEvent.TYPE: JobEvent,
    TableList.TYPE: TableList,
    ConfigureResponse.TYPE: ConfigureResponse,
    StateReport.TYPE: StateReport,
    ApiError.TYPE: ApiError,
}


def _parse(payload: Any, registry: dict[str, Any], kind: str) -> Any:
    if not isinstance(payload, Mapping):
        raise ProtocolError(f"a {kind} must be a JSON object, "
                            f"got {type(payload).__name__}")
    tag = payload.get("type")
    cls: Callable | None = registry.get(tag)
    if cls is None:
        raise ProtocolError(
            f"unknown {kind} type {tag!r} "
            f"(available: {', '.join(sorted(registry))})")
    return cls.from_dict(payload)


def parse_request(payload: Any):
    """Turn a decoded JSON payload into a typed request."""
    return _parse(payload, REQUEST_TYPES, "request")


def parse_response(payload: Any):
    """Turn a decoded JSON payload into a typed response."""
    return _parse(payload, RESPONSE_TYPES, "response")
