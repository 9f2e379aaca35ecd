"""Extending Ziggy: a custom Zig-Component with its own phrase rule.

The paper's architecture makes the dissimilarity *composite*: users add
indicators and weight them.  This example adds a tail-weight component
(does the selection have heavier tails than the rest?) and registers a
phrase rule so explanations speak about it natively.

A component implements ``compute`` for one slice.  The preparation stage
calls ``compute_batch`` once per query with every slice the component
applies to; overriding it is optional, and the default loops over
``compute`` (the built-in numeric components override it with array
code).

Run:  python examples/custom_components.py
"""

import numpy as np

from repro import Ziggy, ZiggyConfig, load_dataset
from repro.core.components import (
    ColumnSlice,
    ComponentOutcome,
    ZigComponent,
    default_registry,
)
from repro.core.explain import register_phrase_rule
from repro.stats.tests_ import mann_whitney_u_test


class TailWeightComponent(ZigComponent):
    """Difference in excess kurtosis between selection and complement.

    Positive raw value = the selection is more heavy-tailed / outlier-
    prone than the rest of the data.
    """

    name = "tail_weight"
    arity = 1
    applies_to_numeric = True
    applies_to_categorical = False

    def compute(self, data: ColumnSlice) -> ComponentOutcome | None:
        data.ensure_stats()
        a, b = data.inside_stats, data.outside_stats
        if a is None or b is None or a.n < 8 or b.n < 8:
            return None
        gap = a.kurtosis_excess - b.kurtosis_excess
        if gap != gap:
            return None
        # Significance proxy: Mann-Whitney on absolute deviations.
        test = None
        if data.inside is not None and data.outside is not None:
            dev_in = np.abs(data.inside - a.mean)
            dev_out = np.abs(data.outside - b.mean)
            test = mann_whitney_u_test(dev_in, dev_out)
        return ComponentOutcome(
            raw=gap,
            direction="higher" if gap >= 0 else "lower",
            test=test,
            detail={"kurtosis_inside": a.kurtosis_excess,
                    "kurtosis_outside": b.kurtosis_excess},
        )


def tail_phrase(score):
    if score.direction == "higher":
        return "markedly heavier tails (outlier-prone values)"
    return "lighter tails (fewer outliers)"


# 1. Register the component and its phrase rule.
registry = default_registry().copy()
registry.register(TailWeightComponent())
register_phrase_rule("tail_weight", tail_phrase, replace=True)

# 2. Activate it with a weight (custom components are opt-in).
config = ZiggyConfig(weights={"tail_weight": 1.5})

# 3. Use it.
table = load_dataset("boxoffice")
ziggy = Ziggy(table, config=config, registry=registry)
result = ziggy.characterize("critic_score > 80")

print(result.describe())
print()
for view in result.views:
    print(f"* {view.explanation}")

print("\ncomponents evaluated on the top view:")
best = result.best()
if best is not None:
    for comp in best.components:
        print(f"  {comp.component:<18} raw={comp.raw:+.3f} "
              f"normalized={comp.normalized:.3f} p={comp.p_value:.3g}")
