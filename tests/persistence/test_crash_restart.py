"""Live-server crash-restart recovery: SIGKILL mid-job, resume, verify.

The real thing, end to end: a ``repro serve`` subprocess with a state
directory is SIGKILLed while a characterization job is running, a
successor process starts on the same directory with ``--recover
resume``, and the test asserts the acceptance bar of the durable-state
subsystem:

* the killed job completes under its **original id** with results
  identical to an uninterrupted run;
* its event stream carries the ``coordinator-restart`` seam and stays
  monotonically numbered across the restart;
* the successor's warm state answers a repeat batch with **zero** cache
  misses, and ``/v2/state`` / ``/healthz`` report the recovery.

The crime table at 10k rows with the NMI dependency estimator keeps a
cold characterization running for seconds (the exact dependency matrix
is 128² column pairs over every row; only per-query statistics ride the
sketch tier), so the kill lands mid-job deterministically.
"""

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.service.client import ZiggyClient

SLOW_PREDICATE = "violent_crime_rate > 0.2"

#: The NMI dependency estimator turns this characterization into
#: seconds of work (128² column pairs binned over 10k rows), so the
#: SIGKILL lands mid-job deterministically; the option travels in the
#: journaled request, so the resumed run and the control run match.
SLOW_OPTIONS = {"dependency_method": "nmi"}

REPO_ROOT = Path(__file__).resolve().parents[2]


class ServeProcess:
    """A ``repro serve`` subprocess with line-buffered stdout capture."""

    def __init__(self, *extra_args: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(REPO_ROOT / "src")
                             + os.pathsep + env.get("PYTHONPATH", ""))
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--dataset", "us_crime", "--seed-rows", "10000",
             "--port", "0", "--quiet", *extra_args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            text=True)
        self.lines: list[str] = []
        self._cond = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self):
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            with self._cond:
                self.lines.append(line.rstrip("\n"))
                self._cond.notify_all()

    def wait_for_line(self, pattern: str, timeout: float = 120.0) -> str:
        """The first stdout line matching ``pattern`` (regex search)."""
        deadline = time.monotonic() + timeout
        seen = 0
        with self._cond:
            while True:
                for line in self.lines[seen:]:
                    if re.search(pattern, line):
                        return line
                seen = len(self.lines)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise AssertionError(
                        f"no line matching {pattern!r} within {timeout}s; "
                        f"got: {self.lines!r}")
                self._cond.wait(min(remaining, 0.5))

    def base_url(self, timeout: float = 120.0) -> str:
        line = self.wait_for_line(r"serving .* on http://", timeout)
        match = re.search(r"on (http://[0-9.]+:\d+)", line)
        assert match, line
        return match.group(1)

    def sigkill(self):
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)


# One value, kept so test ids stay stable (``test_x[async]``).
@pytest.fixture(params=("async",))
def frontend(request) -> str:
    """The ``--frontend`` value both server processes are started with."""
    return request.param


def test_sigkill_mid_job_then_resume_matches_uninterrupted_run(tmp_path,
                                                               frontend):
    state_dir = str(tmp_path / "state")

    first = ServeProcess("--state-dir", state_dir, "--frontend", frontend)
    job_id = None
    try:
        client = ZiggyClient(first.base_url(), timeout=30)
        job_id = client.submit(SLOW_PREDICATE,
                               options=SLOW_OPTIONS).job_id

        # Wait until the job demonstrably started, give it a beat of
        # real work (the NMI matrix is seconds of it), then kill while
        # it is still running.
        deadline = time.monotonic() + 120
        while client.job(job_id).status != "running":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.05)
        time.sleep(0.8)
        status = client.job(job_id).status
        assert status == "running", \
            f"job finished before the kill could land ({status})"
        first.sigkill()
    except BaseException:
        first.stop()
        raise

    second = ServeProcess("--state-dir", state_dir, "--recover", "resume",
                          "--frontend", frontend)
    try:
        recovery_line = second.wait_for_line(r"recovery \(resume\)")
        assert "1 resumed" in recovery_line, recovery_line
        client = ZiggyClient(second.base_url(), timeout=30)

        # The killed job completes under its original id...
        resumed = client.wait(job_id, timeout=300, poll=0.25)
        assert resumed.status == "done"
        assert resumed.result is not None

        # ...with results identical to an uninterrupted run of the same
        # request (deterministic pipeline, same table, same config).
        control = client.characterize(SLOW_PREDICATE, options=SLOW_OPTIONS)
        assert resumed.result.n_views == control.n_views
        assert resumed.result.views.items == control.views.items

        # The event stream shows the seam and replays monotonically.
        kinds, seqs = [], []
        for event in client.stream_events(job_id, timeout=60):
            kinds.append(event.kind)
            seqs.append(event.seq)
        assert "coordinator-restart" in kinds
        assert kinds[-1] == "done"
        body = seqs[:-1]  # the synthetic done marker reuses last+1
        assert body == sorted(body)

        # Warm state: a repeat batch re-prepares nothing.
        batch = client.characterize_many([SLOW_PREDICATE],
                                         options=SLOW_OPTIONS)
        assert batch.cache_misses == 0
        assert batch.cache_hits > 0

        # And the observability surfaces agree.
        report = client.state()
        assert report.enabled
        assert report.recovery["resumed"] == 1
        assert report.jobs["by_status"].get("done", 0) >= 1
        health = client.health()
        assert health["persistence"]["enabled"]
        assert health["persistence"]["journal"]["appends"] > 0
    finally:
        second.stop()


def test_sigkill_with_recover_fail_marks_job_interrupted(tmp_path,
                                                        frontend):
    state_dir = str(tmp_path / "state")
    first = ServeProcess("--state-dir", state_dir, "--frontend", frontend)
    try:
        client = ZiggyClient(first.base_url(), timeout=30)
        job_id = client.submit(SLOW_PREDICATE,
                               options=SLOW_OPTIONS).job_id
        deadline = time.monotonic() + 120
        while client.job(job_id).status != "running":
            assert time.monotonic() < deadline
            time.sleep(0.05)
        time.sleep(0.5)
        first.sigkill()
    except BaseException:
        first.stop()
        raise

    second = ServeProcess("--state-dir", state_dir, "--recover", "fail",
                          "--frontend", frontend)
    try:
        second.wait_for_line(r"1 interrupted")
        client = ZiggyClient(second.base_url(), timeout=30)
        job = client.job(job_id)
        assert job.status == "interrupted"
        assert job.finished
        assert job.error is not None
        assert job.error.code == "interrupted"
    finally:
        second.stop()
