"""Typed stage events — the execution core's progress vocabulary.

The plan/execute split (:mod:`repro.core.pipeline`) emits one
:class:`StageEvent` per observable step of a characterization.  Event
kinds, in emission order:

==================  =========================================================
kind                payload
==================  =========================================================
``prepared``        :class:`~repro.core.preparation.PreparedData`
``component-scored``  the :class:`~repro.core.dissimilarity.ComponentCatalog`
``view-ranked``     one :class:`~repro.core.views.ViewResult` per view, as
                    the searcher keeps it (the progressive-results stream)
``search-complete``  :class:`~repro.core.search.searcher.SearchOutput`
``view-ready``      ``(rank, ViewResult)`` per validated, explained view
``result``          the final :class:`CharacterizationResult`
``batch-item``      ``(index, CharacterizationResult)`` after each batch
                    predicate
==================  =========================================================

These events are the one event form from the pipeline to the wire: the
executor backends relay them, the job manager logs them under their
kind, and the service streams them to clients as SSE events named by
the same kinds.  Every in-process hook — ``emit`` on the engine and the
session, ``progress`` on an executor submission, ``on_progress`` on a
job — receives the :class:`StageEvent` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

#: Event kinds, in pipeline order.
PREPARED = "prepared"
COMPONENT_SCORED = "component-scored"
VIEW_RANKED = "view-ranked"
SEARCH_COMPLETE = "search-complete"
VIEW_READY = "view-ready"
RESULT = "result"
BATCH_ITEM = "batch-item"

#: All kinds the executor can emit, in order of first emission.
STAGE_KINDS = (PREPARED, COMPONENT_SCORED, VIEW_RANKED, SEARCH_COMPLETE,
               VIEW_READY, RESULT, BATCH_ITEM)


@dataclass(frozen=True)
class StageEvent:
    """One observable step of a characterization.

    Attributes:
        kind: one of :data:`STAGE_KINDS`.
        payload: the stage artifact (see the module table).
    """

    kind: str
    payload: Any = None


#: Signature of a typed event consumer.
EmitFn = Callable[[StageEvent], None]


# ---------------------------------------------------------------------------
# Compact payloads — the cross-process projection
# ---------------------------------------------------------------------------
#
# Worker processes relay stage events back to the coordinating process.
# The heavy stage artifacts (PreparedData pins column slices and the
# selection's table; SearchOutput pins the dendrogram) must not cross the
# boundary per event, so executors replace them with these summaries.
# Each summary keeps the attributes downstream consumers duck-type on
# (``active_columns``, ``notes``, ``n_candidates``, ...), so the job
# event log and the wire serializer treat both forms identically.
# View and result events pass through unchanged: their payloads are small
# frozen dataclasses and the consumers need them in full.


@dataclass(frozen=True)
class PreparedSummary:
    """Cross-process stand-in for a ``prepared`` event's PreparedData."""

    active_columns: tuple[str, ...]
    n_inside: int
    n_outside: int
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class CatalogSummary:
    """Cross-process stand-in for a ``component-scored`` catalog."""

    n_unary: int
    n_pairwise: int


@dataclass(frozen=True)
class SearchSummary:
    """Cross-process stand-in for a ``search-complete`` SearchOutput."""

    n_candidates: int
    n_views: int
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class BatchItemSummary:
    """Cross-process stand-in for a ``batch-item`` result.

    The full per-predicate result already crosses once, in the batch
    task's terminal outcome; relaying it a second time per event would
    double the result IPC traffic for nothing.
    """

    n_views: int


def compact_event(event: StageEvent) -> StageEvent:
    """The cheaply-serializable projection of one stage event.

    Already-compact events come back unchanged (same object), so calling
    this unconditionally in a relay loop costs nothing for the common
    per-view events.
    """
    payload = event.payload
    if event.kind == PREPARED and payload is not None \
            and not isinstance(payload, PreparedSummary):
        selection = getattr(payload, "selection", None)
        return StageEvent(PREPARED, PreparedSummary(
            active_columns=tuple(getattr(payload, "active_columns", ()) or ()),
            n_inside=int(getattr(selection, "n_inside", 0) or 0),
            n_outside=int(getattr(selection, "n_outside", 0) or 0),
            notes=tuple(getattr(payload, "notes", ()) or ()),
        ))
    if event.kind == COMPONENT_SCORED and payload is not None \
            and not isinstance(payload, CatalogSummary):
        unary = getattr(payload, "unary", {}) or {}
        pairwise = getattr(payload, "pairwise", {}) or {}
        return StageEvent(COMPONENT_SCORED, CatalogSummary(
            n_unary=sum(len(v) for v in unary.values()),
            n_pairwise=sum(len(v) for v in pairwise.values()),
        ))
    if event.kind == SEARCH_COMPLETE and payload is not None \
            and not isinstance(payload, SearchSummary):
        return StageEvent(SEARCH_COMPLETE, SearchSummary(
            n_candidates=int(getattr(payload, "n_candidates", 0) or 0),
            n_views=len(getattr(payload, "views", ()) or ()),
            notes=tuple(getattr(payload, "notes", ()) or ()),
        ))
    if event.kind == BATCH_ITEM and isinstance(payload, tuple) \
            and len(payload) == 2 \
            and not isinstance(payload[1], BatchItemSummary):
        index, result = payload
        return StageEvent(BATCH_ITEM, (int(index), BatchItemSummary(
            n_views=len(getattr(result, "views", ()) or ()))))
    return event
