"""Tests for the plan/execute pipeline split and the typed event stream."""

import numpy as np
import pytest

from repro.core import events as ev
from repro.core.config import ZiggyConfig
from repro.core.events import StageEvent
from repro.core.pipeline import CharacterizationPlan, PlanExecutor, Ziggy
from repro.core.preparation import PreparationEngine
from repro.engine.table import Table


@pytest.fixture
def planted_table(rng):
    n = 500
    driver = rng.normal(size=n)
    factor = rng.normal(size=n)
    shift = np.where(driver > 1.0, 2.5, 0.0)
    return Table.from_dict({
        "driver": driver,
        "signal_a": factor + rng.normal(scale=0.3, size=n) + shift,
        "signal_b": factor + rng.normal(scale=0.3, size=n) + shift,
        "noise_1": rng.normal(size=n),
        "noise_2": rng.normal(size=n),
    }, name="planted")


class TestPlanning:
    def test_plan_is_side_effect_free(self, planted_table):
        z = Ziggy(planted_table)
        plan = z.plan("driver > 1")
        assert isinstance(plan, CharacterizationPlan)
        assert "driver" in plan.predicate_text
        assert z.last_prepared is None    # nothing executed yet

    def test_plan_carries_engine_cache(self, planted_table):
        z = Ziggy(planted_table)
        assert z.plan("driver > 1").cache is z.cache

    def test_per_call_config_lands_in_plan(self, planted_table):
        z = Ziggy(planted_table)
        plan = z.plan("driver > 1", config=ZiggyConfig(max_views=1))
        assert plan.config.max_views == 1

    def test_same_plan_reexecutes_identically(self, planted_table):
        z = Ziggy(planted_table)
        plan = z.plan("driver > 1")
        r1 = z.execute(plan)
        r2 = z.execute(plan)
        assert [v.columns for v in r1.views] == [v.columns for v in r2.views]
        assert [v.score for v in r1.views] == \
            pytest.approx([v.score for v in r2.views])

    def test_executor_standalone(self, planted_table):
        """The executor works without the Ziggy facade."""
        z = Ziggy(planted_table)
        plan = z.plan("driver > 1")
        executor = PlanExecutor(PreparationEngine())
        result = executor.execute(plan)
        assert result.views
        assert executor.last_prepared is not None
        assert executor.last_search is not None


class TestEventStream:
    def run_with_events(self, planted_table, **kwargs):
        z = Ziggy(planted_table)
        seen: list[StageEvent] = []
        result = z.characterize("driver > 1", emit=seen.append, **kwargs)
        return result, seen

    def test_kinds_and_order(self, planted_table):
        result, seen = self.run_with_events(planted_table)
        kinds = [e.kind for e in seen]
        assert kinds[0] == ev.PREPARED
        assert kinds[1] == ev.COMPONENT_SCORED
        assert kinds[-1] == ev.RESULT
        assert ev.SEARCH_COMPLETE in kinds
        assert kinds.count(ev.VIEW_READY) == len(result.views)
        # every ranked view streams before the search completes
        assert kinds.index(ev.VIEW_RANKED) < kinds.index(ev.SEARCH_COMPLETE)

    def test_view_ready_payloads_are_ranked(self, planted_table):
        result, seen = self.run_with_events(planted_table)
        ready = [e.payload for e in seen if e.kind == ev.VIEW_READY]
        assert [rank for rank, _ in ready] == list(range(1, len(ready) + 1))
        assert [v for _, v in ready] == list(result.views)

    def test_result_event_carries_final_result(self, planted_table):
        result, seen = self.run_with_events(planted_table)
        assert seen[-1].payload is result

    def test_emit_exception_aborts_run(self, planted_table):
        z = Ziggy(planted_table)

        class Stop(Exception):
            pass

        def emit(event):
            if event.kind == ev.VIEW_RANKED:
                raise Stop()

        with pytest.raises(Stop):
            z.characterize("driver > 1", emit=emit)

    def test_batch_emits_batch_items(self, planted_table):
        z = Ziggy(planted_table)
        seen: list[StageEvent] = []
        results = z.characterize_many(["driver > 1", "driver > 0.5"],
                                      emit=seen.append)
        items = [e.payload for e in seen if e.kind == ev.BATCH_ITEM]
        assert [i for i, _ in items] == [0, 1]
        assert [r for _, r in items] == results
