"""The legacy (v1) dict API — now a thin adapter over protocol v2.

:class:`ZiggyApi` keeps the original stringly-typed contract — plain-dict
requests with an ``"action"`` key, plain-dict responses with ``"ok"`` —
but every action is translated onto the typed v2 service
(:class:`~repro.service.service.ZiggyService`), so the demo, notebooks
and old tests keep working unchanged while new deployments talk v2
directly.

Success responses are shape-identical to the original implementation.
Error responses additionally carry a machine-readable ``"code"`` (the v2
error code) next to the original ``"error"`` string.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.app.session import ZiggySession
from repro.errors import ReproError
from repro.service.protocol import (
    CharacterizeRequest,
    ConfigureRequest,
    ErrorCode,
    ViewPageRequest,
    component_to_dict,
    error_code_for,
    view_to_dict,
)

if TYPE_CHECKING:  # imported lazily at runtime (app <-> service cycle)
    from repro.service.service import ZiggyService

__all__ = ["ZiggyApi", "component_to_dict", "view_to_dict"]

#: The client ID the adapter parks its session under in the service.
V1_CLIENT_ID = "v1"

#: The v1 action vocabulary (advertised on unknown actions).
V1_ACTIONS = ("list_tables", "query", "views", "view_detail", "dendrogram",
              "set_weights", "set_option")


class ZiggyApi:
    """Dispatches v1 dict requests onto the v2 service.

    Supported actions: ``list_tables``, ``query``, ``views``,
    ``view_detail``, ``dendrogram``, ``set_weights``, ``set_option``.
    Errors come back as ``{"ok": False, "error": ..., "code": ...}``
    rather than raising — a web handler must never 500 on a user typo.

    Args:
        session: an existing session to adopt (the pre-service calling
            convention); a fresh one is created when omitted.
        service: an existing service to share (the server passes its
            own, so ``/v1`` and ``/v2`` traffic see the same catalog).
    """

    def __init__(self, session: ZiggySession | None = None,
                 service: ZiggyService | None = None):
        from repro.service.service import ZiggyService
        if service is not None:
            self.service = service
            self.session = service.session(V1_CLIENT_ID)
            if session is not None:
                self.service.attach_session(V1_CLIENT_ID, session)
                self.session = session
        else:
            self.session = session if session is not None else ZiggySession()
            self.service = ZiggyService(database=self.session.database)
            self.service.attach_session(V1_CLIENT_ID, self.session)

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Process one request dict and return the response dict."""
        action = request.get("action")
        handler = getattr(self, f"_handle_{action}", None)
        if action is None or handler is None:
            return {"ok": False,
                    "error": f"unknown action {action!r}",
                    "code": ErrorCode.UNKNOWN_ACTION,
                    "available": list(V1_ACTIONS)}
        try:
            payload = handler(request)
        except ReproError as exc:
            return {"ok": False, "error": str(exc),
                    "code": error_code_for(exc)}
        except (ValueError, TypeError, KeyError) as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                    "code": ErrorCode.BAD_REQUEST}
        payload["ok"] = True
        return payload

    # -- handlers ----------------------------------------------------------------

    def _handle_list_tables(self, request: dict) -> dict:
        catalog = self.service.list_tables()
        return {"tables": [t.to_dict() for t in catalog.tables]}

    def _handle_query(self, request: dict) -> dict:
        response = self.service.characterize(CharacterizeRequest(
            where=request["where"],
            table=request.get("table"),
            client_id=V1_CLIENT_ID,
            page_size=None,  # v1 always returned every view
        ))
        return {
            "predicate": response.predicate,
            "n_inside": response.n_inside,
            "n_outside": response.n_outside,
            "n_views": response.n_views,
            "timings_ms": dict(response.timings_ms),
            "views": [dict(v) for v in response.views.items],
            "notes": list(response.notes),
        }

    def _handle_views(self, request: dict) -> dict:
        page = self.service.view_page(ViewPageRequest(
            client_id=V1_CLIENT_ID, page=1, page_size=None))
        return {"views": [dict(v) for v in page.items]}

    def _handle_view_detail(self, request: dict) -> dict:
        rank = int(request["rank"])
        panel = self.service.view_detail(V1_CLIENT_ID, rank)
        return {"rank": rank, "panel": panel}

    def _handle_dendrogram(self, request: dict) -> dict:
        return {"dendrogram": self.service.dendrogram(V1_CLIENT_ID)}

    def _handle_set_weights(self, request: dict) -> dict:
        weights = {str(k): float(v)
                   for k, v in request.get("weights", {}).items()}
        result = self.service.configure(ConfigureRequest(
            client_id=V1_CLIENT_ID, weights=weights))
        return {"weights": dict(result.weights)}

    def _handle_set_option(self, request: dict) -> dict:
        options = dict(request.get("options", {}))
        result = self.service.configure(ConfigureRequest(
            client_id=V1_CLIENT_ID, options=options))
        return {"applied": list(result.applied)}
