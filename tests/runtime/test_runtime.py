"""Tests for ZiggyRuntime: one entry per table fingerprint, with pins,
LRU eviction under table and byte limits, borrow counters, and the
sketch tier on every way into an entry."""

import gc
import json
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.app.session import ZiggySession
from repro.core.stats_cache import StatsCache
from repro.engine.database import Database
from repro.engine.table import Table
from repro.errors import ReproError
from repro.runtime import ZiggyRuntime


def make_table(name: str, seed: int = 0, n: int = 50) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_dict({"a": rng.normal(size=n),
                            "b": rng.normal(size=n)}, name=name)


def resident(runtime: ZiggyRuntime) -> set[str]:
    return {fingerprint for fingerprint, _ in runtime.caches()}


def cache_of(runtime: ZiggyRuntime, table: Table) -> StatsCache | None:
    return dict(runtime.caches()).get(table.fingerprint())


def counters(runtime: ZiggyRuntime) -> tuple[int, int, int]:
    return runtime.hits, runtime.misses, runtime.cross_client_hits


class TestKeying:
    def test_same_table_same_cache(self):
        runtime = ZiggyRuntime()
        t = make_table("t")
        assert runtime.stats_for(t) is runtime.stats_for(t)

    def test_identical_content_shares_cache(self):
        runtime = ZiggyRuntime()
        a, b = make_table("t", seed=1), make_table("t", seed=1)
        assert a is not b
        assert runtime.stats_for(a) is runtime.stats_for(b)
        assert len(runtime.caches()) == 1

    def test_different_content_distinct_caches(self):
        runtime = ZiggyRuntime()
        a, b = make_table("t", seed=1), make_table("t", seed=2)
        assert runtime.stats_for(a) is not runtime.stats_for(b)

    def test_catalog_alias_does_not_duplicate_entry(self):
        """One table under two catalog names is one entry: its bytes
        count once and its statistics are shared."""
        runtime = ZiggyRuntime()
        t = make_table("orig")
        db = Database()
        db.register(t, name="alias_a")
        db.register(t, name="alias_b")
        caches = {id(runtime.register_table(db.table(name)))
                  for name in db.table_names()}
        assert len(caches) == 1
        tables = runtime.stats_snapshot()["tables"]
        assert tables["resident"] == 1
        assert tables["resident_bytes"] == t.nbytes()

    def test_explicit_second_alias_keeps_shared_cache_alive(self):
        """Dropping one of two catalog names leaves the statistics the
        other name still reads, and the second name takes no slot of
        its own under the table limit."""
        runtime = ZiggyRuntime(max_tables=2, max_bytes=None)
        t = make_table("orig")
        db = Database()
        db.register(t, name="a")
        db.register(t, name="b")
        cache = runtime.register_table(db.table("a"))
        stats = cache.global_column_stats(t, "a")
        runtime.register_table(db.table("b"))
        runtime.register_table(make_table("other", seed=1))
        db.drop("a")
        assert runtime.stats_for(db.table("b")) is cache
        assert cache.global_column_stats(t, "a") is stats
        assert runtime.evictions == 0

    def test_new_content_gets_new_entry(self):
        """New content under an old name is a new entry; the old one
        ages out under the limits instead of being dropped at once."""
        runtime = ZiggyRuntime(max_tables=1, max_bytes=None)
        old, new = make_table("t", seed=1), make_table("t", seed=2)
        runtime.register_table(old)
        assert runtime.evictions == 0
        runtime.register_table(new)
        assert resident(runtime) == {new.fingerprint()}
        assert runtime.evictions == 1


class TestRegistration:
    def test_reregister_same_content_bumps_not_replaces(self):
        runtime = ZiggyRuntime()
        t = make_table("t")
        first = runtime.register_table(t)
        assert runtime.register_table(t) is first
        assert len(runtime.caches()) == 1
        assert runtime.evictions == 0

    def test_register_table_builds_sketch(self):
        runtime = ZiggyRuntime()
        t = make_table("t")
        cache = runtime.register_table(t)
        assert cache.sketch_for(t.fingerprint()) is not None

    def test_snapshot_sketch_is_adopted_not_rebuilt(self):
        t = make_table("t")
        warm = StatsCache()
        sketch = warm.ensure_sketch(t)
        warm.global_column_stats(t, "a")
        cache = ZiggyRuntime().register_table(t, snapshot=warm.snapshot())
        assert cache.sketch_for(t.fingerprint()) is sketch
        assert cache.size == warm.size

    @pytest.mark.parametrize("limits", ({"max_tables": 0},
                                        {"max_tables": -1},
                                        {"max_bytes": -1}),
                             ids=("max_tables=0", "max_tables=-1",
                                  "max_bytes=-1"))
    def test_invalid_limits_raise(self, limits):
        with pytest.raises(ReproError):
            ZiggyRuntime(**limits)


class TestEviction:
    def test_lru_order(self):
        runtime = ZiggyRuntime(max_tables=2, max_bytes=None)
        a, b, c = (make_table(n, seed=i) for i, n in enumerate("abc"))
        runtime.register_table(a)
        runtime.register_table(b)
        runtime.stats_for(a)          # bump a: b becomes the LRU victim
        runtime.register_table(c)
        assert resident(runtime) == {a.fingerprint(), c.fingerprint()}
        assert runtime.evictions == 1

    def test_byte_budget_evicts(self):
        a, b, c = (make_table(n, seed=i) for i, n in enumerate("abc"))
        budget = a.nbytes() + b.nbytes()
        runtime = ZiggyRuntime(max_tables=None, max_bytes=budget)
        for t in (a, b, c):
            runtime.register_table(t)
        assert resident(runtime) == {b.fingerprint(), c.fingerprint()}
        tables = runtime.stats_snapshot()["tables"]
        assert tables["resident_bytes"] <= budget
        assert tables["evictions"] == 1

    def test_eviction_drops_cache(self):
        runtime = ZiggyRuntime(max_tables=1, max_bytes=None)
        a, b = make_table("a", seed=1), make_table("b", seed=2)
        cache_a = runtime.stats_for(a, borrower="x")
        assert cache_of(runtime, a) is cache_a
        runtime.stats_for(b, borrower="x")
        assert cache_of(runtime, a) is None
        assert runtime.evictions == 1
        assert runtime.stats_snapshot()["registry"]["evictions"] == 1

    def test_borrowed_cache_survives_eviction(self):
        runtime = ZiggyRuntime(max_tables=1, max_bytes=None)
        a = make_table("a", seed=1)
        cache = runtime.stats_for(a)
        stats = cache.global_column_stats(a, "a")
        size = cache.size
        runtime.register_table(make_table("b", seed=2))   # evicts a
        # The borrower's reference still works; the runtime just hands
        # out a fresh cache next time.
        assert cache.size == size
        assert cache.global_column_stats(a, "a") is stats
        assert runtime.stats_for(a) is not cache

    def test_runtime_holds_no_table_reference(self):
        """Catalogs own tables: a registered, still-resident table is
        freed once nothing else holds it."""
        runtime = ZiggyRuntime()
        t = make_table("dropme")
        ref = weakref.ref(t)
        runtime.register_table(t)
        del t
        gc.collect()
        assert ref() is None
        assert len(runtime.caches()) == 1


class TestPins:
    def test_pinned_entries_survive_limits(self):
        runtime = ZiggyRuntime(max_tables=1, max_bytes=None)
        a = make_table("a", seed=1)
        with runtime.lease(a) as cache:
            runtime.register_table(make_table("b", seed=2))
            assert cache_of(runtime, a) is cache      # pinned: kept
        runtime.register_table(make_table("c", seed=3))
        assert cache_of(runtime, a) is None           # limits apply again

    def test_lease_never_evicts_its_own_entry(self):
        """A lease taken under limit pressure pins before enforcement,
        so the leased entry is never its own eviction victim."""
        runtime = ZiggyRuntime(max_tables=1, max_bytes=None)
        busy, incoming = make_table("busy", seed=1), make_table("in", seed=2)
        with runtime.lease(busy):
            with runtime.lease(incoming) as cache:
                assert cache_of(runtime, incoming) is cache
                assert runtime.stats_snapshot()["tables"]["pinned"] == 2
        # Released: the limit applies again.
        assert len(resident(runtime)) == 1

    def test_new_content_never_evicts_a_leased_entry(self):
        """New content under a leased table's name is a new entry; the
        leased one stays until its lease ends, then ages out."""
        runtime = ZiggyRuntime(max_tables=1, max_bytes=None)
        old, new = make_table("t", seed=1), make_table("t", seed=2)
        with runtime.lease(old) as cache:
            runtime.register_table(new)
            assert cache_of(runtime, old) is cache
        runtime.register_table(new)
        assert resident(runtime) == {new.fingerprint()}

    def test_lease_releases_its_pin_when_the_run_fails(self):
        runtime = ZiggyRuntime(max_tables=1, max_bytes=None)
        a = make_table("a", seed=1)
        with pytest.raises(RuntimeError):
            with runtime.lease(a):
                raise RuntimeError("query failed")
        assert runtime.stats_snapshot()["tables"]["pinned"] == 0
        runtime.register_table(make_table("b", seed=2))
        assert cache_of(runtime, a) is None

    def test_failed_sketch_build_leaves_no_pin(self, monkeypatch):
        runtime = ZiggyRuntime(max_tables=1, max_bytes=None)
        a = make_table("a", seed=1)

        def fail(self, table):
            raise MemoryError("sketch build")

        monkeypatch.setattr(StatsCache, "ensure_sketch", fail)
        with pytest.raises(MemoryError):
            with runtime.lease(a):
                pass
        assert runtime.stats_snapshot()["tables"]["pinned"] == 0

    def test_lease_blocks_eviction_until_released(self):
        runtime = ZiggyRuntime(max_tables=1, max_bytes=None)
        a, b = make_table("a", seed=1), make_table("b", seed=2)
        with runtime.lease(a, borrower="x") as cache:
            assert cache is cache_of(runtime, a)
            runtime.register_table(b)
            assert cache_of(runtime, a) is cache
        runtime.register_table(make_table("c", seed=3))
        assert runtime.stats_snapshot()["tables"]["resident"] <= 1


class TestCounters:
    def test_first_borrow_is_miss(self):
        runtime = ZiggyRuntime()
        runtime.stats_for(make_table("t"), borrower="alice")
        assert counters(runtime) == (0, 1, 0)

    def test_same_borrower_rehit_not_cross_client(self):
        runtime = ZiggyRuntime()
        t = make_table("t")
        runtime.stats_for(t, borrower="alice")
        with runtime.lease(t, borrower="alice"):
            pass
        assert counters(runtime) == (1, 1, 0)

    def test_second_client_counts_cross_client_hit(self):
        runtime = ZiggyRuntime()
        t = make_table("t")
        runtime.stats_for(t, borrower="alice")
        runtime.stats_for(t, borrower="bob")
        assert counters(runtime) == (1, 1, 1)
        assert runtime.stats_snapshot()["registry"]["hit_rate"] == 0.5

    def test_register_table_is_not_a_borrow(self):
        runtime = ZiggyRuntime()
        t = make_table("t")
        runtime.register_table(t)
        runtime.register_table(t)
        assert counters(runtime) == (0, 0, 0)
        # The first borrow finds the registered entry: a hit, and not a
        # cross-client one (nobody borrowed it before).
        runtime.stats_for(t, borrower="alice")
        assert counters(runtime) == (1, 0, 0)

    def test_entries_reflect_cache_content(self):
        runtime = ZiggyRuntime()
        t = make_table("t")
        cache = runtime.stats_for(t)
        cache.global_column_stats(t, "a")
        assert runtime.stats_snapshot()["registry"]["entries"] == cache.size


class TestConcurrency:
    def test_concurrent_borrows_agree_on_one_cache(self):
        runtime = ZiggyRuntime()
        t = make_table("t", n=200)
        results, barrier = [], threading.Barrier(8)

        def borrow(i):
            barrier.wait()
            results.append(runtime.stats_for(t, borrower=f"c{i}"))

        threads = [threading.Thread(target=borrow, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(c) for c in results}) == 1
        assert (runtime.misses, runtime.hits) == (1, 7)

    def test_concurrent_leases_keep_pins_and_counters_balanced(self):
        """More threads than cores lease two tables under a one-table
        limit with a tiny switch interval: no borrow or pin is lost."""
        runtime = ZiggyRuntime(max_tables=1, max_bytes=None)
        tables = (make_table("a", seed=1), make_table("b", seed=2))
        rounds, workers = 50, 8
        barrier = threading.Barrier(workers)

        def churn(i):
            barrier.wait()
            for r in range(rounds):
                with runtime.lease(tables[(i + r) % 2], borrower=f"c{i}"):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(i,))
                       for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert runtime.hits + runtime.misses == rounds * workers
        tables_section = runtime.stats_snapshot()["tables"]
        assert tables_section["pinned"] == 0
        assert tables_section["resident"] == 1

    def test_concurrent_cache_fills_compute_once(self):
        """The shared cache computes a table-level statistic exactly once
        no matter how many threads race for it."""
        runtime = ZiggyRuntime()
        t = make_table("t", n=200)
        cache = runtime.stats_for(t)
        barrier = threading.Barrier(6)
        outputs = []

        def fill():
            barrier.wait()
            outputs.append(cache.global_moments(t, ("a", "b")))

        threads = [threading.Thread(target=fill) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(m is outputs[0] for m in outputs)
        assert cache.counters.moments_misses == 1
        assert cache.counters.moments_hits == 5


class TestSnapshot:
    def test_stats_shape(self):
        runtime = ZiggyRuntime(max_tables=4)
        runtime.register_table(make_table("a"))
        snapshot = runtime.stats_snapshot()
        assert set(snapshot) == {"tables", "registry"}
        tables, registry = snapshot["tables"], snapshot["registry"]
        assert set(tables) == {"tables", "resident", "pinned",
                               "resident_bytes", "evictions", "max_tables",
                               "max_bytes"}
        assert set(registry) == {"caches", "entries", "hits", "misses",
                                 "cross_client_hits", "evictions",
                                 "hit_rate"}
        assert tables["tables"] == tables["resident"] == 1
        assert tables["resident_bytes"] > 0
        assert tables["max_tables"] == 4
        assert registry["caches"] == 1

    def test_snapshot_is_jsonable(self):
        runtime = ZiggyRuntime()
        runtime.register_table(make_table("a"))
        json.dumps(runtime.stats_snapshot())


class TestSketchTierAfterEviction:
    """A table whose entry was evicted answers on the same tier when it
    comes back, whichever way into the runtime recreated the entry."""

    @pytest.fixture(scope="class")
    def big(self):
        # Over the 4,096-row sketch capacity, so the sketch tier answers.
        rng = np.random.default_rng(3)
        x = rng.normal(size=6000)
        return Table.from_dict({"x": x,
                                "y": 0.5 * x + rng.normal(size=6000),
                                "z": rng.normal(size=6000)}, name="big")

    def test_lease_recreates_entry_with_sketch(self, big):
        runtime = ZiggyRuntime(max_tables=1, max_bytes=None)
        runtime.register_table(big)
        runtime.register_table(make_table("small"))       # evicts big
        assert cache_of(runtime, big) is None
        with runtime.lease(big) as cache:
            assert cache.sketch_for(big.fingerprint()) is not None

    def test_session_stays_on_sketch_tier_after_eviction(self, big):
        session = ZiggySession(runtime=ZiggyRuntime(max_tables=1,
                                                    max_bytes=None))
        session.add_table(big)
        session.add_table(make_table("small", n=200))
        first = session.run("x > 0", table="big")
        session.run("a > 0", table="small")               # evicts big
        again = session.run("x > 0", table="big")
        assert any("sketch tier answered" in n for n in first.notes)
        assert any("sketch tier answered" in n for n in again.notes)
