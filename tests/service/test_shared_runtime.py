"""Acceptance tests for cross-client computation sharing via the runtime.

The paper's computation-sharing claim, extended across clients: two
distinct ``ZiggyService`` clients characterizing predicates on the same
table must share one global-statistics computation, observable as
cross-client hits in the shared runtime; and concurrent clients must
get results identical to serial execution.
"""

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.runtime import ZiggyRuntime
from repro.service import BatchRequest, CharacterizeRequest, ZiggyService

PREDICATES = ("gross > 150000000", "gross > 200000000", "gross > 250000000")


@pytest.fixture
def runtime():
    return ZiggyRuntime()


@pytest.fixture
def service(boxoffice_small, runtime):
    s = ZiggyService(max_workers=4, runtime=runtime)
    s.register_table(boxoffice_small)
    yield s
    s.shutdown(wait=False)


class TestCrossClientSharing:
    def test_two_clients_share_one_global_stats_computation(self, service,
                                                            runtime):
        """Acceptance: the second client's table-level statistics are all
        hits — one preparation per table across all clients."""
        service.characterize(CharacterizeRequest(
            where=PREDICATES[0], client_id="alice"))
        cache = (service.session("alice").engine_for("boxoffice").cache)
        misses_after_alice = cache.counters.misses
        deps_after_alice = cache.counters.dependency_misses

        service.characterize(CharacterizeRequest(
            where=PREDICATES[0], client_id="bob"))
        # bob borrowed the same cache object...
        assert service.session("bob").engine_for("boxoffice").cache is cache
        # ...and the runtime observed the cross-client borrow.
        assert runtime.cross_client_hits >= 1
        # Identical predicate: bob recomputed *nothing* table-level.
        assert cache.counters.dependency_misses == deps_after_alice
        assert cache.counters.misses == misses_after_alice

    def test_distinct_predicates_share_table_level_work(self, service):
        service.characterize(CharacterizeRequest(
            where=PREDICATES[0], client_id="alice"))
        cache = service.session("alice").engine_for("boxoffice").cache
        deps_before = cache.counters.dependency_misses
        moments_before = cache.counters.moments_misses

        service.characterize(CharacterizeRequest(
            where=PREDICATES[1], client_id="bob"))
        # New predicate: only the inside-group statistics miss; the
        # dependency matrix and global moments are shared.
        assert cache.counters.dependency_misses == deps_before
        assert cache.counters.moments_misses == moments_before + 1

    def test_two_services_one_runtime_share(self, boxoffice_small, runtime):
        s1 = ZiggyService(runtime=runtime)
        s2 = ZiggyService(runtime=runtime)
        s1.register_table(boxoffice_small)
        s2.register_table(boxoffice_small)
        try:
            s1.characterize(CharacterizeRequest(where=PREDICATES[0]))
            hits_before = runtime.cross_client_hits
            s2.characterize(CharacterizeRequest(where=PREDICATES[0]))
            assert runtime.cross_client_hits > hits_before
        finally:
            s1.shutdown(wait=False)
            s2.shutdown(wait=False)


class TestConcurrentClients:
    N_THREADS = 4

    def test_concurrent_characterize_many_identical_to_serial(self, service,
                                                              runtime):
        """Acceptance: N threads running characterize_many on the same
        table produce results identical to a serial run, with >= 1
        runtime hit."""
        serial = service.characterize_many(BatchRequest(
            predicates=PREDICATES, client_id="serial"))
        expected = [[tuple(v["columns"]) for v in r.views.items]
                    for r in serial.results]
        expected_scores = [[v["score"] for v in r.views.items]
                           for r in serial.results]

        outcomes: dict[str, object] = {}
        barrier = threading.Barrier(self.N_THREADS)

        def run(client_id: str) -> None:
            barrier.wait()
            try:
                outcomes[client_id] = service.characterize_many(
                    BatchRequest(predicates=PREDICATES, client_id=client_id))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                outcomes[client_id] = exc

        threads = [threading.Thread(target=run, args=(f"client-{i}",))
                   for i in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)

        assert len(outcomes) == self.N_THREADS
        for client_id, batch in outcomes.items():
            assert not isinstance(batch, BaseException), \
                f"{client_id} raised: {batch!r}"
            got = [[tuple(v["columns"]) for v in r.views.items]
                   for r in batch.results]
            got_scores = [[v["score"] for v in r.views.items]
                          for r in batch.results]
            assert got == expected, client_id
            for gs, es in zip(got_scores, expected_scores):
                assert gs == pytest.approx(es, rel=1e-12), client_id

        assert runtime.hits >= 1
        assert runtime.cross_client_hits >= 1


class TestLeakFix:
    def test_stats_cache_does_not_pin_tables(self, rng):
        """Satellite: dropping a table frees it even while its derived
        statistics stay cached (the strong-reference leak is gone)."""
        from repro.core.stats_cache import StatsCache
        from repro.engine.database import Database
        from repro.engine.table import Table

        table = Table.from_dict({"x": rng.normal(size=300),
                                 "y": rng.normal(size=300)}, name="leaky")
        db = Database()
        db.register(table)
        cache = StatsCache()
        cache.global_column_stats(table, "x")
        cache.group_correlations(db.select("leaky", "x > 0"), ("x", "y"))
        assert cache.size > 0

        ref = weakref.ref(table)
        del db, table
        gc.collect()
        assert ref() is None          # the cache held no strong reference
        assert cache.size > 0         # while the moments remain cached

    def test_sessions_converge_after_eviction(self, rng):
        """After the runtime evicts a table's cache, the next run
        re-borrows the runtime's current cache instead of keeping the
        stale one — borrowers never diverge onto private copies."""
        from repro.app.session import ZiggySession
        from repro.engine.table import Table

        runtime = ZiggyRuntime(max_tables=1, max_bytes=None)
        t1 = Table.from_dict({"x": rng.normal(size=150),
                              "y": rng.normal(size=150)}, name="t1")
        t2 = Table.from_dict({"x": rng.normal(size=150),
                              "y": rng.normal(size=150)}, name="t2")
        a = ZiggySession(runtime=runtime)
        b = ZiggySession(runtime=runtime)
        for s in (a, b):
            s.add_table(t1)
            s.add_table(t2)
        a.run("x > 0", table="t1")
        a.run("x > 0", table="t2")     # max_tables=1: evicts t1's cache
        b.run("x > 0", table="t1")     # the runtime recreates t1's cache
        a.run("x > 0", table="t1")     # a must converge onto it
        assert a.engine_for("t1").cache is b.engine_for("t1").cache
        assert a.engine_for("t1").cache is \
            dict(runtime.caches())[t1.fingerprint()]

    def test_session_tables_bounded_by_runtime_limits(self, rng):
        """End to end: a runtime with a 2-table limit never keeps more
        than 2 tables' statistics resident."""
        from repro.app.session import ZiggySession
        from repro.engine.table import Table

        runtime = ZiggyRuntime(max_tables=2, max_bytes=None)
        session = ZiggySession(runtime=runtime)
        for i in range(5):
            t = Table.from_dict(
                {"x": rng.normal(size=120), "y": rng.normal(size=120)},
                name=f"t{i}")
            session.add_table(t)
            session.run("x > 0", table=f"t{i}")
        snapshot = runtime.stats_snapshot()
        assert snapshot["tables"]["resident"] <= 2
        assert snapshot["registry"]["caches"] <= 2
        assert runtime.evictions >= 3


class TestSketchTierAfterEviction:
    def test_process_shard_answers_big_table_on_sketch_tier(self, rng):
        """Both tables route to the one shard, whose runtime inherits
        ``max_tables=1``: registering the second evicts the first's
        warmed cache, and the first query on it must still reach the
        sketch tier."""
        from repro.engine.table import Table

        x = rng.normal(size=6000)
        big = Table.from_dict({"x": x, "y": 0.5 * x + rng.normal(size=6000),
                               "z": rng.normal(size=6000)}, name="big")
        small = Table.from_dict({"x": rng.normal(size=200),
                                 "y": rng.normal(size=200)}, name="small")
        service = ZiggyService(executor="process", max_workers=1,
                               runtime=ZiggyRuntime(max_tables=1))
        try:
            service.register_table(big)
            service.register_table(small)
            response = service.characterize(
                CharacterizeRequest(where="x > 0", table="big"))
        finally:
            service.shutdown(wait=False)
        assert any("sketch tier answered" in note
                   for note in response.notes)
