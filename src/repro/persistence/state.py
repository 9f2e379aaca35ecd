"""`DurableState` — one object owning everything the service keeps on disk.

Layout under one ``--state-dir``::

    <state_dir>/
    ├── journal/    append-only job journal (repro.persistence.journal)
    └── snapshots/  warm-cache blobs        (repro.persistence.snapshots)

The service holds exactly one :class:`DurableState` (or none — the
default stays fully in-memory); the job manager borrows its journal,
table registration consults its snapshot store, and a background
**snapshot daemon** walks the runtime's statistics caches on a cadence,
writing blobs for caches that grew since their last save and compacting
the journal when it outgrows its threshold.  A clean drain does one
final pass of both before closing the journal, so a graceful stop leaves
a compact, fully warm state directory behind.

One state directory belongs to one coordinator at a time; running two
services against the same directory is undefined (the journal would
interleave two id sequences).
"""

from __future__ import annotations

import os
import threading
import time

from repro.persistence.journal import DEFAULT_SEGMENT_BYTES, JobJournal
from repro.persistence.snapshots import SnapshotStore

#: Default seconds between snapshot-daemon passes.
DEFAULT_SNAPSHOT_INTERVAL = 30.0

#: Journal size past which the daemon compacts (the unit is "journal
#: bytes on disk", so rotation and compaction compose predictably).
DEFAULT_COMPACT_BYTES = 32 << 20  # 32 MiB


class DurableState:
    """The on-disk half of a service: journal + snapshots + the daemon.

    Args:
        state_dir: root directory (created if missing).
        snapshot_interval: seconds between background snapshot passes
            (0 disables the daemon; drain-time snapshots still happen).
        fsync: journal fsync policy (see :mod:`repro.persistence.journal`).
        max_segment_bytes: journal segment rotation threshold.
        compact_bytes: journal size that triggers a background compaction.
    """

    def __init__(self, state_dir: str,
                 snapshot_interval: float = DEFAULT_SNAPSHOT_INTERVAL,
                 fsync: str = "rotate",
                 max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 compact_bytes: int = DEFAULT_COMPACT_BYTES):
        self.state_dir = os.path.abspath(state_dir)
        # Owner-only: snapshot blobs are pickled, so a state dir
        # writable by another user would be arbitrary code execution at
        # table registration (trust boundary in docs/persistence.md).
        # The mode argument is the guarantee — the umask can only strip
        # bits from 0o700, never widen it, so the directory is never
        # observable with foreign write access.  The chmod only corrects
        # an over-restrictive umask; an existing directory keeps the
        # operator's chosen mode.
        created = not os.path.isdir(self.state_dir)
        os.makedirs(self.state_dir, mode=0o700, exist_ok=True)
        if created:
            try:
                os.chmod(self.state_dir, 0o700)
            except OSError:
                pass
        self.journal = JobJournal(os.path.join(self.state_dir, "journal"),
                                  max_segment_bytes=max_segment_bytes,
                                  fsync=fsync)
        self.snapshots = SnapshotStore(os.path.join(self.state_dir,
                                                    "snapshots"))
        self.snapshot_interval = float(snapshot_interval)
        self.compact_bytes = int(compact_bytes)
        #: Set by :func:`repro.persistence.recovery.recover_jobs` at boot.
        self.recovery_report = None
        self.started_at = time.time()
        #: fingerprint -> table name, fed by the service's registrations
        #: (blob metadata and ``/v2/state`` listings want names).
        self._table_names: dict[str, str] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._daemon: threading.Thread | None = None
        self._runtime = None
        self._jobs = None
        self._closed = False

    # -- registration hooks ------------------------------------------------------

    def note_table(self, name: str, fingerprint: str) -> None:
        """Remember a fingerprint's catalog name (idempotent)."""
        with self._lock:
            self._table_names.setdefault(fingerprint, name)

    def table_name(self, fingerprint: str) -> str:
        with self._lock:
            return self._table_names.get(fingerprint, "")

    # -- the snapshot daemon -----------------------------------------------------

    def attach(self, runtime, jobs) -> None:
        """Bind the live runtime and job manager and start the daemon.

        The daemon is optional plumbing: with ``snapshot_interval <= 0``
        the bind still happens (drain-time passes need it) but no thread
        starts.
        """
        self._runtime = runtime
        self._jobs = jobs
        if self.snapshot_interval > 0 and self._daemon is None:
            self._daemon = threading.Thread(target=self._daemon_loop,
                                            name="ziggy-snapshotd",
                                            daemon=True)
            self._daemon.start()

    def _daemon_loop(self) -> None:
        while not self._stop.wait(self.snapshot_interval):
            try:
                self.snapshot_pass()
            except Exception:  # noqa: BLE001 - the daemon must not die
                pass
            try:
                self.maybe_compact()
            except Exception:  # noqa: BLE001
                pass

    def snapshot_pass(self) -> int:
        """Write blobs for every runtime cache that changed; returns the
        number of blobs written."""
        runtime = self._runtime
        if runtime is None or self._closed:
            return 0
        written = 0
        for fingerprint, cache in runtime.caches():
            if self.snapshots.save(fingerprint, cache,
                                   table_name=self.table_name(fingerprint)):
                written += 1
        return written

    def compaction_safe(self) -> bool:
        """Whether compacting against the live job table is lossless.

        Compaction rewrites the journal to exactly what the job manager
        currently holds — safe only once any pre-existing journaled
        history has been replayed into it.  Until
        :func:`~repro.persistence.recovery.recover_jobs` sets
        :attr:`recovery_report`, a journal that arrived with segments
        from a previous run must not be compacted: the daemon would be
        rewriting it to a still-empty job table, silently deleting every
        journaled job before recovery could replay them (and racing the
        replay itself).  A journal born empty this run has no such
        history, so it never needs the gate.
        """
        return (self.recovery_report is not None
                or self.journal.preexisting_segments == 0)

    def maybe_compact(self) -> bool:
        """Compact the journal when it outgrew ``compact_bytes``.

        Delegates to the job manager, whose append lock makes the
        snapshot-and-swap atomic with respect to in-flight journal
        writes (a record landing mid-compaction must not be dropped
        with the deleted history).  A no-op until
        :meth:`compaction_safe` — never before boot recovery replayed a
        pre-existing journal.
        """
        jobs = self._jobs
        if jobs is None or self._closed or not self.compaction_safe():
            return False
        if self.journal.total_bytes() <= self.compact_bytes:
            return False
        jobs.compact_journal()
        return True

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Final snapshot pass, journal compaction, journal close
        (idempotent).  Called by the service *after* the job backend has
        drained, so every terminal record is already appended."""
        if self._closed:
            return
        self._stop.set()
        daemon = self._daemon
        if daemon is not None:
            daemon.join(timeout=10.0)
        try:
            self.snapshot_pass()
        except Exception:  # noqa: BLE001 - drain must complete
            pass
        jobs = self._jobs
        if jobs is not None and self.compaction_safe():
            try:
                jobs.compact_journal()
            except Exception:  # noqa: BLE001
                pass
        self._closed = True
        self.journal.close()

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict:
        """The ``/v2/state`` payload core."""
        report = self.recovery_report
        return {
            "state_dir": self.state_dir,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "snapshot_interval": self.snapshot_interval,
            "journal": self.journal.stats(),
            "snapshots": self.snapshots.stats(),
            "recovery": report.to_dict() if report is not None else None,
        }
