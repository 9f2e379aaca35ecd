"""The characterization core — Ziggy's primary contribution.

Subpackages implement the three pipeline stages of Figure 4:

* **Preparation**: :mod:`repro.core.components` (Zig-Components — effect
  sizes per column and column pair), :mod:`repro.core.dependency` (the
  tightness measure ``S``) and :mod:`repro.core.stats_cache` (cross-query
  computation sharing).
* **View search**: :mod:`repro.core.search` (dependency graph,
  complete-linkage clustering with dendrogram, clique enumeration,
  constraint handling and ranking) scored by
  :mod:`repro.core.dissimilarity` (the Zig-Dissimilarity).
* **Post-processing**: :mod:`repro.core.significance` (asymptotic tests
  and p-value aggregation) and :mod:`repro.core.explain` (rule-based
  natural-language explanations).

:class:`repro.core.pipeline.Ziggy` ties the stages together.
"""

from repro.core.config import ZiggyConfig
from repro.core.events import STAGE_KINDS, StageEvent
from repro.core.views import View, ComponentScore, ViewResult, CharacterizationResult
from repro.core.pipeline import CharacterizationPlan, PlanExecutor, Ziggy

__all__ = [
    "ZiggyConfig",
    "View",
    "ComponentScore",
    "ViewResult",
    "CharacterizationResult",
    "Ziggy",
    "CharacterizationPlan",
    "PlanExecutor",
    "StageEvent",
    "STAGE_KINDS",
]
