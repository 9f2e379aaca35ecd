"""Backend-level tests of the pluggable executor layer: the factory,
the three implementations, fingerprint sharding, cross-process event
relay and cancellation, and the serializability contract that makes
process shards possible."""

import pickle
import threading
import time

import pytest

from repro.core.events import (
    COMPONENT_SCORED,
    PREPARED,
    SEARCH_COMPLETE,
    CatalogSummary,
    PreparedSummary,
    SearchSummary,
    StageEvent,
    compact_event,
)
from repro.core.pipeline import Ziggy
from repro.core.stats_cache import StatsCache
from repro.data.boxoffice import make_boxoffice
from repro.errors import JobCancelled, UnknownTableError
from repro.runtime.executors import (
    EXECUTOR_KINDS,
    CharacterizationTask,
    ExecutorError,
    InlineExecutor,
    ProcessShardExecutor,
    ThreadExecutor,
    create_executor,
    shard_index,
)

PREDICATE = "gross > 200000000"


@pytest.fixture(scope="module")
def table():
    return make_boxoffice(n_rows=200)


@pytest.fixture(scope="module")
def task(table):
    return CharacterizationTask(table=table.name, where=PREDICATE,
                                fingerprint=table.fingerprint())


class Collector:
    """Callback harness: records events and the terminal outcome."""

    def __init__(self):
        self.began = False
        self.events = []
        self.outcome = None
        self.done = threading.Event()

    def begin(self):
        self.began = True

    def progress(self, stage, payload):
        self.events.append((stage, payload))

    def finish(self, status, result, error):
        self.outcome = (status, result, error)
        self.done.set()

    def wait(self, timeout=60):
        assert self.done.wait(timeout), "no terminal outcome arrived"
        return self.outcome


# ---------------------------------------------------------------------------
# Factory / routing
# ---------------------------------------------------------------------------


class TestFactory:
    def test_known_kinds(self):
        assert EXECUTOR_KINDS == ("inline", "thread", "process")

    def test_unknown_kind_raises(self):
        with pytest.raises(ExecutorError, match="unknown executor"):
            create_executor("gpu")

    @pytest.mark.parametrize("kind,cls", [
        ("inline", InlineExecutor),
        ("thread", ThreadExecutor),
    ])
    def test_builds_local_backends(self, kind, cls):
        executor = create_executor(kind, workers=1)
        try:
            assert isinstance(executor, cls)
            assert executor.kind == kind
            assert executor.supports_callables
        finally:
            executor.close()


class TestSharding:
    def test_shard_index_is_stable_and_bounded(self):
        keys = [f"fp-{i}" for i in range(64)]
        first = [shard_index(k, 4) for k in keys]
        assert first == [shard_index(k, 4) for k in keys]
        assert all(0 <= s < 4 for s in first)
        assert len(set(first)) > 1  # spreads, not constant

    def test_single_shard_takes_everything(self):
        assert all(shard_index(f"k{i}", 1) == 0 for i in range(10))

    def test_routing_key_prefers_fingerprint(self):
        with_fp = CharacterizationTask(table="t", where="x > 1",
                                       fingerprint="abc123")
        without = CharacterizationTask(table="t", where="x > 1")
        assert with_fp.routing_key == "abc123"
        assert without.routing_key == "t"


# ---------------------------------------------------------------------------
# Local backends
# ---------------------------------------------------------------------------


class TestInlineExecutor:
    def test_callable_runs_synchronously(self):
        executor = InlineExecutor()
        calls = Collector()
        executor.submit(lambda progress: "ok", begin=calls.begin,
                        progress=calls.progress, finish=calls.finish)
        # no wait: inline submission is terminal on return
        assert calls.outcome == ("done", "ok", None)
        assert calls.began

    def test_task_execution(self, table, task):
        executor = InlineExecutor()
        executor.register_table(table)
        calls = Collector()
        executor.submit(task, begin=calls.begin, progress=calls.progress,
                        finish=calls.finish)
        status, result, error = calls.outcome
        assert status == "done" and error is None
        assert len(result.views) > 0
        stages = [s for s, _ in calls.events]
        assert stages[0] == "preparation"
        assert stages[-1] == "result"

    def test_failure_is_an_outcome_not_a_raise(self):
        executor = InlineExecutor()
        calls = Collector()
        executor.submit(lambda progress: 1 / 0, begin=calls.begin,
                        progress=calls.progress, finish=calls.finish)
        status, result, error = calls.outcome
        assert status == "failed"
        assert isinstance(error, ZeroDivisionError)

    def test_begin_veto_reports_cancelled(self):
        executor = InlineExecutor()
        calls = Collector()

        def begin():
            raise JobCancelled("job-x")

        ran = []
        executor.submit(lambda progress: ran.append(1), begin=begin,
                        progress=calls.progress, finish=calls.finish)
        assert calls.outcome[0] == "cancelled"
        assert not ran

    def test_handle_cancel_is_false(self):
        executor = InlineExecutor()
        calls = Collector()
        handle = executor.submit(lambda progress: "x", begin=calls.begin,
                                 progress=calls.progress,
                                 finish=calls.finish)
        assert handle.cancel() is False
        assert handle.wait(0.1)


class TestThreadExecutor:
    def test_progress_raise_aborts(self):
        executor = ThreadExecutor(max_workers=1)
        try:
            calls = Collector()

            def work(progress):
                progress("step", 1)
                progress("step", 2)
                return "finished"

            def progress(stage, payload):
                calls.events.append((stage, payload))
                raise JobCancelled("job-y")

            executor.submit(work, begin=calls.begin, progress=progress,
                            finish=calls.finish)
            assert calls.wait()[0] == "cancelled"
            assert calls.events == [("step", 1)]
        finally:
            executor.close()

    def test_queued_work_can_be_cancelled_before_start(self):
        executor = ThreadExecutor(max_workers=1)
        try:
            gate = threading.Event()
            first = Collector()
            executor.submit(lambda progress: gate.wait(10),
                            begin=first.begin, progress=first.progress,
                            finish=first.finish)
            second = Collector()
            handle = executor.submit(lambda progress: "never",
                                     begin=second.begin,
                                     progress=second.progress,
                                     finish=second.finish)
            assert handle.cancel() is True  # still queued behind the gate
            gate.set()
            assert first.wait()[0] == "done"
            assert second.outcome is None  # never ran, never finished
        finally:
            executor.close()

    def test_task_execution_matches_inline(self, table, task):
        executor = ThreadExecutor(max_workers=2)
        try:
            executor.register_table(table)
            calls = Collector()
            executor.submit(task, begin=calls.begin,
                            progress=calls.progress, finish=calls.finish)
            status, result, _ = calls.wait()
            assert status == "done"
            assert len(result.views) > 0
        finally:
            executor.close()


# ---------------------------------------------------------------------------
# The process-shard backend
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def process_executor(table):
    executor = ProcessShardExecutor(workers=2)
    executor.register_table(table)
    yield executor
    executor.close()


class TestProcessShardExecutor:
    def test_rejects_callables(self, process_executor):
        assert process_executor.supports_callables is False
        calls = Collector()
        with pytest.raises(ExecutorError, match="serializable"):
            process_executor.submit(lambda progress: 1, begin=calls.begin,
                                    progress=calls.progress,
                                    finish=calls.finish)

    def test_task_runs_with_relayed_events(self, process_executor, task):
        calls = Collector()
        process_executor.submit(task, begin=calls.begin,
                                progress=calls.progress,
                                finish=calls.finish)
        status, result, error = calls.wait()
        assert status == "done" and error is None
        assert len(result.views) > 0
        stages = [s for s, _ in calls.events]
        # identical legacy projection to a local run, in order
        assert stages[0] == "preparation"
        assert "component-scored" in stages
        assert "view" in stages
        assert "search" in stages
        assert stages[-1] == "result"
        assert calls.began
        # heavy payloads crossed as compact summaries
        prepared_payload = calls.events[0][1]
        assert isinstance(prepared_payload, PreparedSummary)
        assert prepared_payload.n_inside > 0

    def test_unknown_table_fails_with_typed_error(self, process_executor):
        calls = Collector()
        process_executor.submit(
            CharacterizationTask(table="nope", where="x > 1"),
            begin=calls.begin, progress=calls.progress, finish=calls.finish)
        status, _, error = calls.wait()
        assert status == "failed"
        assert isinstance(error, UnknownTableError)

    def test_fingerprint_routes_to_one_shard(self, process_executor, table):
        index = process_executor.shard_for(table.fingerprint())
        shards = process_executor.describe()["shards"]
        assert table.name in shards[str(index)]
        others = [names for shard, names in shards.items()
                  if shard != str(index)]
        assert all(table.name not in names for names in others)

    def test_concurrent_tasks_on_distinct_tables(self):
        executor = ProcessShardExecutor(workers=2)
        try:
            tables = [make_boxoffice(n_rows=150, seed=seed)
                      for seed in (1, 2, 3)]
            for i, t in enumerate(tables):
                t.name = f"box{i}"
                executor.register_table(t)
            collectors = []
            for t in tables:
                calls = Collector()
                collectors.append(calls)
                executor.submit(
                    CharacterizationTask(table=t.name, where=PREDICATE,
                                         fingerprint=t.fingerprint()),
                    begin=calls.begin, progress=calls.progress,
                    finish=calls.finish)
            for calls in collectors:
                status, result, error = calls.wait(120)
                assert status == "done", error
                assert result.n_inside > 0
        finally:
            executor.close()

    def test_cancel_mid_run_stops_at_stage_boundary(self):
        # A wide table (128 columns): many stage boundaries to stop at.
        from repro.data.crime import make_crime
        wide = make_crime(n_rows=1994)
        executor = ProcessShardExecutor(workers=1)
        try:
            executor.register_table(wide)
            calls = Collector()
            first_event = threading.Event()
            cancel_issued = threading.Event()

            def progress(stage, payload):
                calls.events.append((stage, payload))
                first_event.set()
                # Gate: the first event holds the pump until the cancel
                # is issued, so the run cannot finish before it lands.
                if cancel_issued.wait(60):
                    raise JobCancelled("task")

            handle = executor.submit(
                CharacterizationTask(table=wide.name,
                                     where="violent_crime_rate > 0.14",
                                     fingerprint=wide.fingerprint()),
                begin=calls.begin, progress=progress, finish=calls.finish)
            try:
                assert first_event.wait(60)
                handle.cancel()
            finally:
                cancel_issued.set()
            status = calls.wait(60)[0]
            assert status == "cancelled"
        finally:
            executor.close()

    @pytest.mark.parametrize("outcome", ["done", "failed"])
    def test_sent_cancel_wins_over_crossing_outcome(self, table, task,
                                                    outcome):
        # The worker's outcome can cross the cancel on the wire.  Hold
        # the pump in ``begin``, send the cancel, then hand the pump the
        # worker's outcome before anything else: the job still reports
        # cancelled.
        executor = ProcessShardExecutor(workers=1)
        try:
            executor.register_table(table)
            calls = Collector()
            began = threading.Event()
            release = threading.Event()

            def begin():
                began.set()
                release.wait(60)

            handle = executor.submit(task, begin=begin,
                                     progress=calls.progress,
                                     finish=calls.finish)
            try:
                assert began.wait(60)
                handle.cancel()
                executor._dispatch((outcome, handle.task_id, None))
            finally:
                release.set()
            assert calls.wait(60) == ("cancelled", None, None)
        finally:
            executor.close()

    def test_cancel_while_queued_never_runs(self, table):
        executor = ProcessShardExecutor(workers=1)
        try:
            executor.register_table(table)
            # Occupy the single shard, then cancel a queued task.
            blocker = Collector()
            executor.submit(
                CharacterizationTask(table=table.name, where=PREDICATE,
                                     fingerprint=table.fingerprint()),
                begin=blocker.begin, progress=blocker.progress,
                finish=blocker.finish)
            queued = Collector()
            handle = executor.submit(
                CharacterizationTask(table=table.name,
                                     where="gross > 150000000",
                                     fingerprint=table.fingerprint()),
                begin=queued.begin, progress=queued.progress,
                finish=queued.finish)
            # The process handle never claims "provably unstarted" (the
            # task is already on the shard's queue) — the cancel flag
            # overtakes the queue instead, and the worker skips the
            # task and reports it cancelled without running it.
            assert handle.cancel() is False
            assert blocker.wait(120)[0] == "done"
            assert queued.wait(60)[0] == "cancelled"
            assert queued.events == []
        finally:
            executor.close()

    def test_register_table_ships_warm_cache(self, table):
        executor = ProcessShardExecutor(workers=1)
        try:
            warm = Ziggy(table)
            warm.characterize(PREDICATE)
            executor.register_table(table, cache=warm.cache)
            calls = Collector()
            executor.submit(
                CharacterizationTask(table=table.name, where=PREDICATE,
                                     fingerprint=table.fingerprint()),
                begin=calls.begin, progress=calls.progress,
                finish=calls.finish)
            status, result, _ = calls.wait(60)
            assert status == "done"
            assert len(result.views) == len(warm.characterize(PREDICATE).views)
        finally:
            executor.close()

    def test_close_wait_lets_inflight_work_finish(self, table, task):
        """A graceful close must deliver in-flight results as done, not
        sweep them into cancelled while the worker is mid-computation."""
        executor = ProcessShardExecutor(workers=1)
        executor.register_table(table)
        calls = Collector()
        executor.submit(task, begin=calls.begin, progress=calls.progress,
                        finish=calls.finish)
        executor.close(wait=True)  # immediately, while the job runs
        status, result, error = calls.wait(5)
        assert status == "done", error
        assert len(result.views) > 0

    def test_close_is_idempotent_and_rejects_new_work(self, table, task):
        executor = ProcessShardExecutor(workers=1)
        executor.register_table(table)
        executor.close()
        executor.close()
        calls = Collector()
        with pytest.raises(ExecutorError, match="closed"):
            executor.submit(task, begin=calls.begin,
                            progress=calls.progress, finish=calls.finish)
        with pytest.raises(ExecutorError, match="closed"):
            executor.register_table(make_boxoffice(n_rows=60, seed=9))

    def test_submit_on_closed_backend_leaves_no_ghost_job(self, table,
                                                          task):
        from repro.service.jobs import JobManager
        executor = ProcessShardExecutor(workers=1)
        executor.register_table(table)
        manager = JobManager(backend=executor)
        manager.shutdown(wait=False)
        with pytest.raises(ExecutorError, match="closed"):
            manager.submit(task=task)
        assert manager.job_ids() == ()  # no forever-pending record

    def test_worker_runtime_inherits_coordinator_limits(self):
        from repro.runtime import ZiggyRuntime
        bounded = ZiggyRuntime(max_tables=3, max_bytes=12345)
        executor = create_executor("process", workers=1, runtime=bounded)
        try:
            # the operator's limits were captured at construction and are
            # what every worker's private runtime is built with
            assert executor.max_tables == 3
            assert executor.max_bytes == 12345
        finally:
            executor.close()


# ---------------------------------------------------------------------------
# The serializability contract
# ---------------------------------------------------------------------------


class TestSerializability:
    def test_plan_pickles_without_its_cache(self, table):
        ziggy = Ziggy(table)
        plan = ziggy.plan(PREDICATE)
        assert plan.cache is ziggy.cache
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.cache is None
        assert clone.predicate_text == plan.predicate_text
        rebound = clone.with_cache(ziggy.cache)
        result = ziggy.execute(rebound)
        assert result.views == ziggy.execute(plan).views

    def test_stats_cache_roundtrip_preserves_entries(self, table):
        ziggy = Ziggy(table)
        ziggy.characterize(PREDICATE)
        cache = ziggy.cache
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.size == cache.size
        # the clone is live: a repeated lookup hits instead of recomputes
        # ("gross" itself is the predicate column, hence never cached)
        before = clone.counters.hits
        clone.global_column_stats(table, "budget")
        assert clone.counters.hits == before + 1

    def test_merge_from_existing_keys_win(self, table):
        warm = Ziggy(table)
        warm.characterize(PREDICATE)
        fresh = StatsCache()
        copied = fresh.merge_from(warm.cache)
        assert copied == warm.cache.size == fresh.size
        assert fresh.merge_from(warm.cache) == 0  # idempotent

    def test_compact_event_summaries(self, table):
        ziggy = Ziggy(table)
        events = []
        ziggy.characterize(PREDICATE, emit=events.append)
        by_kind = {e.kind: e for e in events}
        prepared = compact_event(by_kind[PREPARED])
        assert isinstance(prepared.payload, PreparedSummary)
        assert prepared.payload.active_columns
        scored = compact_event(by_kind[COMPONENT_SCORED])
        assert isinstance(scored.payload, CatalogSummary)
        assert scored.payload.n_unary > 0
        search = compact_event(by_kind[SEARCH_COMPLETE])
        assert isinstance(search.payload, SearchSummary)
        assert search.payload.n_views > 0
        # compaction is idempotent and pass-through for lean events
        assert compact_event(prepared) is prepared
        result_event = by_kind["result"]
        assert compact_event(result_event) is result_event
        # every compacted payload pickles small
        for event in (prepared, scored, search):
            assert len(pickle.dumps(event)) < 4096

    def test_summary_stats_wire_roundtrip(self, table):
        cache = StatsCache()
        stats = cache.global_column_stats(table, "gross")
        wire = stats.to_wire()
        assert isinstance(wire, tuple) and len(wire) == 8
        restored = type(stats).from_wire(wire)
        assert restored == stats
