"""Component framework: data slices, outcomes, the ABC and the registry."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ComponentError, UnknownComponentError
from repro.stats.descriptive import SummaryStats, summarize
from repro.stats.histogram import FrequencyProfile
from repro.stats.tests_ import TestResult


@dataclass
class ColumnSlice:
    """One column split into the selection and its complement.

    For numeric/boolean columns ``inside``/``outside`` are float64 arrays
    (NaN = missing) and the summaries are populated; for categorical
    columns they are code arrays and the frequency profiles are
    populated.  Raw arrays may be ``None`` when the slice was
    reconstructed from cached sufficient statistics — components must
    degrade gracefully (e.g. the spread component falls back from Levene
    to the F-test).
    """

    name: str
    is_categorical: bool
    inside: np.ndarray | None = None
    outside: np.ndarray | None = None
    inside_stats: SummaryStats | None = None
    outside_stats: SummaryStats | None = None
    inside_profile: FrequencyProfile | None = None
    outside_profile: FrequencyProfile | None = None

    def ensure_stats(self) -> None:
        """Fill the numeric summaries from raw arrays when absent."""
        if self.is_categorical:
            return
        if self.inside_stats is None and self.inside is not None:
            self.inside_stats = summarize(self.inside)
        if self.outside_stats is None and self.outside is not None:
            self.outside_stats = summarize(self.outside)


@dataclass
class PairSlice:
    """A column pair with per-group correlation coefficients.

    ``n_inside``/``n_outside`` are the complete-pair counts the Fisher
    test needs (rows where both values are present).
    """

    x: ColumnSlice
    y: ColumnSlice
    r_inside: float
    r_outside: float
    n_inside: int
    n_outside: int

    @property
    def names(self) -> tuple[str, str]:
        """The pair's column names, sorted."""
        return tuple(sorted((self.x.name, self.y.name)))  # type: ignore[return-value]


@dataclass(frozen=True)
class ComponentOutcome:
    """Raw result of one component evaluation (before normalization).

    Attributes:
        raw: the signed effect size, inside minus outside.
        direction: "higher" / "lower" / "different" (for explanations).
        test: significance test, or None when it could not run.
        detail: extras for rendering (means, proportions, coefficients).
    """

    raw: float
    direction: str
    test: TestResult | None = None
    detail: dict = field(default_factory=dict)


class ZigComponent:
    """Base class for Zig-Components.

    Subclasses set :attr:`name`, :attr:`arity` (1 for per-column, 2 for
    per-pair) and the applicability flags, and implement
    :meth:`compute`, returning ``None`` when the component does not apply
    to this slice (wrong type, degenerate data, nothing to report).
    Returning ``None`` — rather than raising — is the contract because
    sliced exploration data is full of constant and near-empty columns
    and a single bad column must never abort characterization.

    The preparation stage calls :meth:`compute_batch` once per query
    with every applicable slice.  Overriding it is optional: the default
    loops over :meth:`compute`.  The built-in numeric components
    override it with array code (one numpy pass over all columns or
    pairs instead of Python work per slice) and define :meth:`compute`
    as the batch of one.
    """

    name: str = ""
    arity: int = 1
    applies_to_numeric: bool = True
    applies_to_categorical: bool = False

    def compute(self, data: ColumnSlice | PairSlice) -> ComponentOutcome | None:
        """Evaluate the component on one slice; None when inapplicable."""
        raise NotImplementedError

    def compute_batch(self, slices: Sequence[ColumnSlice | PairSlice]
                      ) -> list[ComponentOutcome | None]:
        """Evaluate the component on many slices: one outcome (or None)
        per slice, in order."""
        return [self.compute(data) for data in slices]

    def applicable(self, data: ColumnSlice | PairSlice) -> bool:
        """Type-level applicability check (data-level checks in compute)."""
        if self.arity == 1:
            if not isinstance(data, ColumnSlice):
                return False
            if data.is_categorical:
                return self.applies_to_categorical
            return self.applies_to_numeric
        if not isinstance(data, PairSlice):
            return False
        return not data.x.is_categorical and not data.y.is_categorical

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ZigComponent {self.name} arity={self.arity}>"


class ComponentRegistry:
    """Name-indexed collection of component instances.

    The default registry carries the paper's component set; users build
    their own (or extend a copy) to add custom effect sizes::

        registry = default_registry().copy()
        registry.register(MyTailWeightComponent())
    """

    def __init__(self):
        self._components: dict[str, ZigComponent] = {}

    def register(self, component: ZigComponent, replace: bool = False) -> None:
        """Add a component; refuses silent overwrites unless ``replace``."""
        if not component.name:
            raise ComponentError("component must declare a non-empty name")
        if component.arity not in (1, 2):
            raise ComponentError(
                f"component {component.name!r} has invalid arity "
                f"{component.arity} (must be 1 or 2)")
        if component.name in self._components and not replace:
            raise ComponentError(
                f"component {component.name!r} already registered "
                "(pass replace=True to overwrite)")
        self._components[component.name] = component

    def get(self, name: str) -> ZigComponent:
        """Look up a component by name."""
        comp = self._components.get(name)
        if comp is None:
            raise UnknownComponentError(name, tuple(self._components))
        return comp

    def names(self) -> tuple[str, ...]:
        """All registered names, sorted."""
        return tuple(sorted(self._components))

    def unary(self) -> tuple[ZigComponent, ...]:
        """All arity-1 components."""
        return tuple(c for c in self._components.values() if c.arity == 1)

    def pairwise(self) -> tuple[ZigComponent, ...]:
        """All arity-2 components."""
        return tuple(c for c in self._components.values() if c.arity == 2)

    def copy(self) -> "ComponentRegistry":
        """Shallow copy (component instances are stateless and shared)."""
        out = ComponentRegistry()
        out._components = dict(self._components)
        return out

    def __contains__(self, name: str) -> bool:
        return name in self._components

    def __len__(self) -> int:
        return len(self._components)


#: Names of the components active by default — the set the paper
#: describes: mean difference, SD difference, correlation difference
#: (Fig. 3) plus the categorical and missingness analogues mentioned for
#: the full paper.
DEFAULT_COMPONENTS = (
    "mean_shift",
    "spread_shift",
    "correlation_shift",
    "frequency_shift",
    "missing_shift",
)


def default_registry() -> ComponentRegistry:
    """Build a registry with the paper's default component set plus the
    optional extension components (dominance, skew shift) — registered
    but inactive until the user weights them."""
    from repro.core.components.categorical import FrequencyShiftComponent
    from repro.core.components.correlation import CorrelationShiftComponent
    from repro.core.components.dominance import DominanceComponent
    from repro.core.components.missing import MissingShiftComponent
    from repro.core.components.numeric import (
        MeanShiftComponent,
        SpreadShiftComponent,
    )
    from repro.core.components.shape import SkewShiftComponent

    registry = ComponentRegistry()
    registry.register(MeanShiftComponent())
    registry.register(SpreadShiftComponent())
    registry.register(CorrelationShiftComponent())
    registry.register(FrequencyShiftComponent())
    registry.register(MissingShiftComponent())
    registry.register(DominanceComponent())
    registry.register(SkewShiftComponent())
    return registry
