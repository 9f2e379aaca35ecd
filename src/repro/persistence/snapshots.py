"""The warm-cache snapshot store — prepared statistics that survive.

The paper's "few seconds on large tables" promise rests on preparation
being paid once per table; the shared
:class:`~repro.runtime.ZiggyRuntime` already stretches that guarantee
across clients, and this store stretches it across *process lifetimes*:
:meth:`~repro.core.stats_cache.StatsCache.snapshot` blobs are written
per table **fingerprint** on a background cadence (and on clean drain),
and a restarting coordinator merges them back into the runtime — and
ships them to worker shards — through the same ``merge_from``
warm-handoff path the self-healing executor uses for respawns.  A snapshot on disk is therefore also the respawn path's
disk-backed fallback: registrations replayed into a replacement worker
start from the restored entries instead of an empty cache.

Trust is earned by content addressing: blobs are keyed by the table's
content fingerprint, and a load verifies (a) the frame CRC and (b) that
the fingerprint *inside* the blob matches the one asked for.  A table
whose content changed gets a different fingerprint and simply misses —
stale statistics can never be attributed to new data.

File format (one blob per fingerprint, ``snap-<fingerprint>.bin``)::

    b"ZIGSNAP4\\n"    magic
    uint32 BE        payload length
    uint32 BE        CRC-32 of the payload
    payload          pickle of {"fingerprint", "table", "entries",
                                "saved_at", "cache": StatsCache}

The cache holds the table's table-level entries (its sketch, column
summaries, and the mean-shifted pair moments and dependency matrices
over each configuration's candidate columns) plus the per-predicate
entries its byte budget kept, so a blob stops growing once the budget
is full.  A per-predicate pair entry holds the moments of the query's
tight column pairs only, as vectors.  The sketch pickles its reservoir
once, as one sample matrix, with the whole sample's pair moments.  The
magic names the format: older blobs fail the check and take the
corrupt-blob path (dropped, rewritten by the next pass).  ``ZIGSNAP1``
blobs hold table-level statistics over each query's own active
columns; ``ZIGSNAP2`` blobs hold a sketch with one sample array per
column; ``ZIGSNAP3`` blobs hold unshifted pair moments, with every
pair's inside moments per predicate.

Pickle is acceptable here — unlike the journal, snapshots are pure
derived state: a corrupt or untrusted blob is *dropped* (the cache
rebuilds from the table), never required for correctness.  Writes are
atomic (temp file + ``os.replace``), so readers see old-or-new, never
torn.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import time
import zlib
from dataclasses import dataclass

from repro.core.stats_cache import StatsCache

#: Snapshot blob header.
MAGIC = b"ZIGSNAP4\n"

_FRAME = struct.Struct(">II")

_PREFIX, _SUFFIX = "snap-", ".bin"


@dataclass
class SnapshotCounters:
    """Lifetime store counters (for ``/v2/state``)."""

    saved: int = 0
    skipped_unchanged: int = 0
    loaded: int = 0
    misses: int = 0
    corrupt: int = 0


class SnapshotStore:
    """Atomic per-fingerprint :class:`StatsCache` blobs on disk.

    Args:
        root: directory for the blobs (created if missing).
    """

    def __init__(self, root: str):
        self.root = root
        self.counters = SnapshotCounters()
        self._lock = threading.Lock()
        #: :meth:`StatsCache.entry_signature` at the last save per
        #: fingerprint — the cheap change detector that keeps the
        #: background cadence from rewriting identical blobs every tick
        #: while still catching entries replaced without the count
        #: moving.
        self._saved_signatures: dict[str, int] = {}
        os.makedirs(root, exist_ok=True)
        # Writers that crashed between their temp write and os.replace
        # leave .tmp-<pid>-<tid> files behind; nothing will ever rename
        # them, so drop them here (one store per directory at a time).
        for name in os.listdir(root):
            if f"{_SUFFIX}.tmp-" in name:
                try:
                    os.remove(os.path.join(root, name))
                except OSError:
                    pass
        #: On-disk bytes per blob, scanned once here and maintained on
        #: every save — ``stats()`` sits on the health-probe path and
        #: must not walk the directory per request.
        self._blob_bytes: dict[str, int] = {}
        for fingerprint in self.fingerprints():
            try:
                self._blob_bytes[fingerprint] = os.path.getsize(
                    self._path(fingerprint))
            except OSError:
                pass

    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.root, f"{_PREFIX}{fingerprint}{_SUFFIX}")

    # -- writing -----------------------------------------------------------------

    def save(self, fingerprint: str, cache: StatsCache,
             table_name: str = "", force: bool = False) -> bool:
        """Snapshot one cache to disk; returns whether a blob was written.

        Empty caches and caches unchanged since the last save are
        skipped (``force=True`` overrides the change detector, not the
        empty check — there is nothing to warm from an empty cache).
        """
        # Signature first, on the live cache: the unchanged check must
        # not cost a full deep copy per daemon tick.  Entries landing
        # between this read and the snapshot below are simply picked up
        # by the next pass (the stored baseline is this signature).
        signature = cache.entry_signature()
        with self._lock:
            if not force \
                    and self._saved_signatures.get(fingerprint) == signature:
                self.counters.skipped_unchanged += 1
                return False
        snapshot = cache.snapshot()
        entries = snapshot.size
        if entries == 0:
            return False
        payload = pickle.dumps({
            "fingerprint": fingerprint,
            "table": table_name,
            "entries": entries,
            "saved_at": time.time(),
            "cache": snapshot,
        }, protocol=pickle.HIGHEST_PROTOCOL)
        blob = MAGIC + _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        path = self._path(fingerprint)
        # Pid *and* thread id: the snapshot daemon and a drain-time pass
        # can save the same fingerprint concurrently, and two writers
        # sharing one temp path would interleave into a corrupt blob.
        tmp_path = f"{path}.tmp-{os.getpid()}-{threading.get_ident()}"
        with open(tmp_path, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
        with self._lock:
            self._saved_signatures[fingerprint] = signature
            self._blob_bytes[fingerprint] = len(blob)
            self.counters.saved += 1
        return True

    # -- reading -----------------------------------------------------------------

    def _read(self, fingerprint: str) -> dict | None:
        try:
            with open(self._path(fingerprint), "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        if not blob.startswith(MAGIC):
            return None
        framed = blob[len(MAGIC):]
        if len(framed) < _FRAME.size:
            return None
        length, crc = _FRAME.unpack(framed[:_FRAME.size])
        payload = framed[_FRAME.size:_FRAME.size + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            return None
        try:
            meta = pickle.loads(payload)
        except Exception:  # noqa: BLE001 - any unpickling fault means "no blob"
            return None
        if not isinstance(meta, dict) \
                or not isinstance(meta.get("cache"), StatsCache):
            return None
        return meta

    def load(self, fingerprint: str) -> StatsCache | None:
        """The stored cache for one fingerprint, or None.

        None means "cold start" — missing blob, corrupt frame, or a blob
        whose embedded fingerprint disagrees with the file name (both
        are counted separately so ``/v2/state`` can tell rot from cold).
        """
        meta = self._read(fingerprint)
        if meta is None:
            with self._lock:
                if os.path.exists(self._path(fingerprint)):
                    self.counters.corrupt += 1
                else:
                    self.counters.misses += 1
            return None
        if meta.get("fingerprint") != fingerprint:
            with self._lock:
                self.counters.corrupt += 1
            return None
        restored = meta["cache"]
        baseline = restored.entry_signature()
        with self._lock:
            self.counters.loaded += 1
            # A later save must see the restored entries as the baseline
            # (a cache that only re-absorbed this blob needs no rewrite).
            self._saved_signatures.setdefault(fingerprint, baseline)
        return restored

    def load_for_table(self, table) -> StatsCache | None:
        """Fingerprint-verified load for a live table object."""
        return self.load(table.fingerprint())

    # -- introspection -----------------------------------------------------------

    def fingerprints(self) -> tuple[str, ...]:
        """Fingerprints with a blob on disk."""
        names = []
        try:
            for name in os.listdir(self.root):
                if name.startswith(_PREFIX) and name.endswith(_SUFFIX):
                    names.append(name[len(_PREFIX):-len(_SUFFIX)])
        except OSError:
            pass
        return tuple(sorted(names))

    def describe(self) -> list[dict]:
        """Per-blob metadata (without unpickling caches into memory twice
        this would be free; it is still cheap — blobs are moments, not
        rows)."""
        entries = []
        for fingerprint in self.fingerprints():
            meta = self._read(fingerprint)
            if meta is None:
                entries.append({"fingerprint": fingerprint, "corrupt": True})
                continue
            entries.append({
                "fingerprint": fingerprint,
                "table": meta.get("table", ""),
                "entries": int(meta.get("entries", 0)),
                "saved_at": float(meta.get("saved_at", 0.0)),
            })
        return entries

    def stats(self) -> dict:
        """JSON-able store state for ``/v2/state`` / ``/healthz``.

        Served from the maintained size map — no directory walk on the
        probe path.
        """
        with self._lock:
            return {
                "count": len(self._blob_bytes),
                "bytes": sum(self._blob_bytes.values()),
                "saved": self.counters.saved,
                "skipped_unchanged": self.counters.skipped_unchanged,
                "loaded": self.counters.loaded,
                "misses": self.counters.misses,
                "corrupt": self.counters.corrupt,
            }
