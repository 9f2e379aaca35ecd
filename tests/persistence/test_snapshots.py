"""Tests for the warm-cache snapshot store: atomic blobs, fingerprint
verification, corruption tolerance, change detection."""

import os

from repro.core.stats_cache import StatsCache
from repro.persistence import snapshots
from repro.persistence.snapshots import SnapshotStore
from repro.runtime import ZiggyRuntime
from repro.service import CharacterizeRequest, ZiggyService
from repro.stats import sketches


def warmed_cache(table) -> StatsCache:
    cache = StatsCache()
    for column in table.numeric_column_names()[:3]:
        cache.global_column_stats(table, column)
    return cache


def make_store(tmp_path) -> SnapshotStore:
    return SnapshotStore(str(tmp_path / "snapshots"))


def save_blob_naming_a_missing_class(store, table) -> str:
    """Save a framed, CRC-valid blob whose pickle names a class that no
    longer exists — what a blob looks like after an upgrade deleted a
    class it pickled.  The class lives in ``repro.stats.sketches`` only
    while the blob is written."""
    retired = type("RetiredSketchPart", (), {"__module__": sketches.__name__})
    cache = warmed_cache(table)
    cache.ensure_sketch(table).columns["retired"] = retired()
    sketches.RetiredSketchPart = retired
    try:
        assert store.save(table.fingerprint(), cache)
    finally:
        del sketches.RetiredSketchPart
    return table.fingerprint()


class TestSaveLoad:
    def test_round_trip_restores_entries(self, tmp_path, boxoffice_small):
        store = make_store(tmp_path)
        cache = warmed_cache(boxoffice_small)
        fingerprint = boxoffice_small.fingerprint()
        assert store.save(fingerprint, cache, table_name="boxoffice")
        loaded = store.load(fingerprint)
        assert loaded is not None
        assert loaded.size == cache.size
        # Restored entries serve without recomputation: all hits.
        column = boxoffice_small.numeric_column_names()[0]
        loaded.global_column_stats(boxoffice_small, column)
        assert loaded.counters.misses == 0
        assert loaded.counters.hits == 1

    def test_empty_cache_is_not_saved(self, tmp_path, boxoffice_small):
        store = make_store(tmp_path)
        assert not store.save(boxoffice_small.fingerprint(), StatsCache())
        assert store.fingerprints() == ()

    def test_unchanged_cache_is_skipped(self, tmp_path, boxoffice_small):
        store = make_store(tmp_path)
        cache = warmed_cache(boxoffice_small)
        fingerprint = boxoffice_small.fingerprint()
        assert store.save(fingerprint, cache)
        assert not store.save(fingerprint, cache)  # same entries
        assert store.counters.skipped_unchanged == 1
        # Growth re-triggers the save.
        cache.global_column_stats(boxoffice_small,
                                  boxoffice_small.numeric_column_names()[4])
        assert store.save(fingerprint, cache)

    def test_replaced_entries_at_constant_size_resave(self, tmp_path,
                                                      boxoffice_small):
        store = make_store(tmp_path)
        cache = warmed_cache(boxoffice_small)
        fingerprint = boxoffice_small.fingerprint()
        assert store.save(fingerprint, cache)
        # Drop every entry and warm different columns: the count lands
        # back where it was, but the content is new — a size-based
        # detector would skip this save and warm restores would serve
        # the stale statistics forever.
        cache.clear()
        for column in boxoffice_small.numeric_column_names()[3:6]:
            cache.global_column_stats(boxoffice_small, column)
        assert cache.size == 3
        assert store.save(fingerprint, cache)
        loaded = store.load(fingerprint)
        loaded.global_column_stats(boxoffice_small,
                                   boxoffice_small.numeric_column_names()[3])
        assert loaded.counters.misses == 0

    def test_load_for_table_verifies_fingerprint(self, tmp_path,
                                                 boxoffice_small,
                                                 crime_small):
        store = make_store(tmp_path)
        store.save(boxoffice_small.fingerprint(),
                   warmed_cache(boxoffice_small))
        assert store.load_for_table(boxoffice_small) is not None
        assert store.load_for_table(crime_small) is None
        assert store.counters.misses == 1


class TestTrust:
    def test_corrupt_blob_is_dropped(self, tmp_path, boxoffice_small):
        store = make_store(tmp_path)
        fingerprint = boxoffice_small.fingerprint()
        store.save(fingerprint, warmed_cache(boxoffice_small))
        path = store._path(fingerprint)
        with open(path, "r+b") as fh:
            fh.seek(-20, os.SEEK_END)
            fh.write(b"\x00" * 8)
        assert store.load(fingerprint) is None
        assert store.counters.corrupt == 1

    def test_renamed_blob_fails_embedded_fingerprint_check(
            self, tmp_path, boxoffice_small, crime_small):
        store = make_store(tmp_path)
        source = boxoffice_small.fingerprint()
        target = crime_small.fingerprint()
        store.save(source, warmed_cache(boxoffice_small))
        # An operator (or attacker) renames one table's blob onto
        # another fingerprint: the embedded fingerprint disagrees.
        os.rename(store._path(source), store._path(target))
        assert store.load(target) is None
        assert store.counters.corrupt == 1

    def test_truncated_blob_is_dropped(self, tmp_path, boxoffice_small):
        store = make_store(tmp_path)
        fingerprint = boxoffice_small.fingerprint()
        store.save(fingerprint, warmed_cache(boxoffice_small))
        path = store._path(fingerprint)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
        assert store.load(fingerprint) is None


class TestUpgrade:
    """Blobs written before an upgrade that deleted a class they pickle
    cost one cold start, never a failed boot."""

    def test_blob_naming_a_missing_class_is_dropped(self, tmp_path,
                                                    boxoffice_small):
        store = make_store(tmp_path)
        fingerprint = save_blob_naming_a_missing_class(store,
                                                       boxoffice_small)
        assert store.load(fingerprint) is None
        assert store.counters.corrupt == 1

    def test_service_answers_and_rewrites_the_blob(self, tmp_path,
                                                   boxoffice_small):
        state_dir = str(tmp_path / "state")
        store = SnapshotStore(os.path.join(state_dir, "snapshots"))
        fingerprint = save_blob_naming_a_missing_class(store,
                                                       boxoffice_small)
        service = ZiggyService(executor="inline", state_dir=state_dir,
                               snapshot_interval=0, runtime=ZiggyRuntime())
        try:
            service.register_table(boxoffice_small)
            assert service.state.snapshots.counters.corrupt == 1
            response = service.characterize(CharacterizeRequest(
                where="gross > 200000000", table=boxoffice_small.name))
            assert response.n_views > 0
        finally:
            service.shutdown()  # the drain-time pass rewrites the blob
        assert SnapshotStore(store.root).load(fingerprint) is not None

    def test_blob_of_per_query_entries_is_dropped_and_rewritten(
            self, tmp_path, boxoffice_small, monkeypatch):
        # A ZIGSNAP1 blob: table-level entries over one query's active
        # columns (its predicate column, gross, left out).
        state_dir = str(tmp_path / "state")
        store = SnapshotStore(os.path.join(state_dir, "snapshots"))
        fingerprint = boxoffice_small.fingerprint()
        table = boxoffice_small
        active = tuple(c for c in table.column_names if c != "gross")
        numeric = tuple(c for c in table.numeric_column_names()
                        if c != "gross")
        cache = warmed_cache(table)
        cache.dependency_matrix(table, active, "pearson", 8)
        cache.global_moments(table, numeric)
        with monkeypatch.context() as patched:
            patched.setattr(snapshots, "MAGIC", b"ZIGSNAP1\n")
            assert store.save(fingerprint, cache)
        service = ZiggyService(executor="inline", state_dir=state_dir,
                               snapshot_interval=0, runtime=ZiggyRuntime())
        try:
            service.register_table(table)
            assert service.state.snapshots.counters.corrupt == 1
            response = service.characterize(CharacterizeRequest(
                where="gross > 200000000", table=table.name))
            assert response.n_views > 0
        finally:
            service.shutdown()  # the drain-time pass rewrites the blob
        with open(store._path(fingerprint), "rb") as fh:
            assert fh.read().startswith(snapshots.MAGIC)
        rewritten = SnapshotStore(store.root).load(fingerprint)
        # Only the entries the query asked for: over every column the
        # default configuration can make active, gross included.
        assert [key[-1] for key in rewritten._dependency] == \
            [table.column_names]
        assert [key[-1] for key in rewritten._global_moments] == \
            [table.numeric_column_names()]


    def test_blob_of_per_column_samples_is_dropped_and_rewritten(
            self, tmp_path, boxoffice_small, monkeypatch):
        # A ZIGSNAP2 blob: its sketch pickled one sample array per
        # column, which the current sketch class cannot read back.
        state_dir = str(tmp_path / "state")
        store = SnapshotStore(os.path.join(state_dir, "snapshots"))
        table = boxoffice_small
        fingerprint = table.fingerprint()
        cache = warmed_cache(table)
        cache.ensure_sketch(table)
        with monkeypatch.context() as patched:
            patched.setattr(snapshots, "MAGIC", b"ZIGSNAP2\n")
            assert store.save(fingerprint, cache)
        service = ZiggyService(executor="inline", state_dir=state_dir,
                               snapshot_interval=0, runtime=ZiggyRuntime())
        try:
            service.register_table(table)
            assert service.state.snapshots.counters.corrupt == 1
            response = service.characterize(CharacterizeRequest(
                where="gross > 200000000", table=table.name))
            assert response.n_views > 0
        finally:
            service.shutdown()  # the drain-time pass rewrites the blob
        with open(store._path(fingerprint), "rb") as fh:
            assert fh.read().startswith(b"ZIGSNAP3\n")
        sketch = SnapshotStore(store.root).load(fingerprint).sketch_for(
            fingerprint)
        assert sketch.samples.shape == (sketch.sample_size,
                                        len(sketch.columns))


class TestStartupHygiene:
    def test_stale_tmp_files_are_swept(self, tmp_path, boxoffice_small):
        store = make_store(tmp_path)
        fingerprint = boxoffice_small.fingerprint()
        store.save(fingerprint, warmed_cache(boxoffice_small))
        # A writer that died between its temp write and the os.replace.
        stale = store._path(fingerprint) + ".tmp-99999-88888"
        with open(stale, "wb") as fh:
            fh.write(b"half a blob")
        successor = SnapshotStore(store.root)
        assert not os.path.exists(stale)
        assert successor.load(fingerprint) is not None


class TestIntrospection:
    def test_describe_and_stats(self, tmp_path, boxoffice_small):
        store = make_store(tmp_path)
        fingerprint = boxoffice_small.fingerprint()
        store.save(fingerprint, warmed_cache(boxoffice_small),
                   table_name="boxoffice")
        described = store.describe()
        assert len(described) == 1
        assert described[0]["fingerprint"] == fingerprint
        assert described[0]["table"] == "boxoffice"
        assert described[0]["entries"] == 3
        stats = store.stats()
        assert stats["count"] == 1
        assert stats["saved"] == 1
        assert stats["bytes"] > 0
