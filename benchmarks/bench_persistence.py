"""BENCH persistence — journal write overhead and snapshot-warmed starts.

Durability must be close to free, or nobody turns it on.  Two sections:

* **journal** — the same job workload through a ``ZiggyService`` with and
  without a ``--state-dir``; the journal's framed-append-per-event cost
  must stay under the gate (default <5% wall-clock overhead, the
  acceptance bar of the durable-state subsystem).  A raw append
  microbenchmark reports the per-record cost for context.
* **warm_start** — first-query latency of a cold boot versus a boot that
  restored the previous run's warm-cache snapshots; the warmed start
  must re-prepare **nothing** (cache misses == 0).

Writes ``BENCH_persistence.json`` and prints a short table.  Usage::

    PYTHONPATH=src python benchmarks/bench_persistence.py [--smoke]
        [--out BENCH_persistence.json] [--rows N] [--repeats K]
        [--gate-pct 5.0]

Exit code 1 when a gate fails, so CI trips loudly.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import sys
import tempfile
import time

from repro.data.boxoffice import make_boxoffice
from repro.data.crime import make_crime
from repro.persistence import JobJournal, event_record
from repro.runtime import ZiggyRuntime
from repro.service import BatchRequest, CharacterizeRequest, ZiggyService

#: Crime-table predicates: realistic job sizes (the journal's cost is
#: per event, independent of table size, so toy tables would report an
#: inflated overhead ratio no deployment ever sees).
PREDICATES = (
    "violent_crime_rate > 0.2",
    "violent_crime_rate > 0.35",
    "pct_unemployed > 0.1",
    "avg_salary < 32000",
)

#: Boxoffice predicate for the warm-start section (small table: the
#: cold/warm delta is preparation, which needs no size to show).
WARM_PREDICATE = "gross > 200000000"


def run_job_workload(table, state_dir: str | None,
                     jobs_per_predicate: int) -> float:
    """Submit-and-wait the job workload; returns wall-clock seconds."""
    service = ZiggyService(executor="inline", runtime=ZiggyRuntime(),
                           state_dir=state_dir, snapshot_interval=0)
    service.register_table(table)
    # Collect, then freeze every object alive now, so no full collection
    # over the process's older objects lands inside the timed block:
    # where one lands would decide the in-memory/durable ratio, not the
    # journal.
    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        for _ in range(jobs_per_predicate):
            for where in PREDICATES:
                snapshot = service.submit(CharacterizeRequest(
                    where=where, table=table.name))
                done = service.wait(snapshot.job_id, timeout=300)
                if done.status != "done":  # a failed job would fake speed
                    raise RuntimeError(
                        f"bench job {where!r} ended {done.status}: "
                        f"{done.error}")
        elapsed = time.perf_counter() - start
    finally:
        gc.unfreeze()
    service.shutdown()
    return elapsed


def bench_journal(table, repeats: int, jobs_per_predicate: int) -> dict:
    memory_runs, durable_runs = [], []
    for _ in range(repeats):
        memory_runs.append(run_job_workload(table, None, jobs_per_predicate))
        state_dir = tempfile.mkdtemp(prefix="bench-persist-")
        try:
            durable_runs.append(
                run_job_workload(table, state_dir, jobs_per_predicate))
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)
    memory_s = statistics.median(memory_runs)
    durable_s = statistics.median(durable_runs)
    n_jobs = jobs_per_predicate * len(PREDICATES)

    # Raw append cost, for context (framed JSON + flush, no fsync).
    append_dir = tempfile.mkdtemp(prefix="bench-journal-")
    try:
        journal = JobJournal(append_dir, fsync="never")
        record = event_record("job-000001", 1, "view-ranked",
                              {"rank": 1, "columns": ["a", "b"],
                               "score": 1.5, "explanation": "x" * 120})
        n_appends = 5000
        start = time.perf_counter()
        for _ in range(n_appends):
            journal.append(record)
        append_s = time.perf_counter() - start
        journal.close()
    finally:
        shutil.rmtree(append_dir, ignore_errors=True)

    return {
        "n_jobs": n_jobs,
        "repeats": repeats,
        "in_memory_s": round(memory_s, 4),
        "durable_s": round(durable_s, 4),
        "overhead_pct": round((durable_s - memory_s) / memory_s * 100.0, 2),
        "append_us": round(append_s / n_appends * 1e6, 2),
        "appends_per_s": round(n_appends / append_s),
    }


def first_query_ms(table, state_dir: str | None) -> "tuple[float, dict]":
    """One fresh service's first batch latency plus its cache counters."""
    service = ZiggyService(executor="inline", runtime=ZiggyRuntime(),
                           state_dir=state_dir, snapshot_interval=0)
    service.register_table(table)
    if state_dir is not None:
        service.recover()
    start = time.perf_counter()
    response = service.characterize_many(BatchRequest(
        predicates=(WARM_PREDICATE,), table=table.name))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    counters = {"hits": response.cache_hits, "misses": response.cache_misses}
    service.shutdown()
    return elapsed_ms, counters


def bench_warm_start(table, repeats: int) -> dict:
    cold_ms, warm_ms = [], []
    warm_counters: dict = {}
    for _ in range(repeats):
        state_dir = tempfile.mkdtemp(prefix="bench-warmstart-")
        try:
            # Cold boot: empty state directory, preparation paid in full.
            cold, _ = first_query_ms(table, state_dir)
            cold_ms.append(cold)
            # The clean shutdown above wrote snapshots; the next boot
            # on the same directory answers from them.
            warm, warm_counters = first_query_ms(table, state_dir)
            warm_ms.append(warm)
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)
    cold = statistics.median(cold_ms)
    warm = statistics.median(warm_ms)
    return {
        "repeats": repeats,
        "cold_first_query_ms": round(cold, 3),
        "warm_first_query_ms": round(warm, 3),
        "speedup": round(cold / max(warm, 1e-9), 3),
        "warm_cache": warm_counters,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="journal overhead + snapshot-warmed start latency")
    parser.add_argument("--smoke", action="store_true",
                        help="small table / fewer jobs (CI gate)")
    parser.add_argument("--rows", type=int, default=None,
                        help="crime rows for the journal section "
                             "(default 1994, the paper's size; 600 in "
                             "smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="measurement repeats (default 3; 2 in smoke)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="jobs per predicate per run (default 3; 2 in "
                             "smoke)")
    parser.add_argument("--gate-pct", type=float, default=5.0,
                        help="max tolerated journal overhead percent")
    parser.add_argument("--out", default="BENCH_persistence.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    n_rows = args.rows if args.rows else (600 if args.smoke else 1994)
    repeats = args.repeats if args.repeats else (2 if args.smoke else 3)
    jobs = args.jobs if args.jobs else (2 if args.smoke else 3)

    table = make_crime(n_rows=n_rows, seed=13)
    warm_table = make_boxoffice(n_rows=200, seed=13)
    report = {
        "benchmark": "persistence",
        "mode": "smoke" if args.smoke else "full",
        "table": {"name": table.name, "rows": table.n_rows,
                  "columns": table.n_columns},
        "journal": bench_journal(table, repeats, jobs),
        "warm_start": bench_warm_start(warm_table, repeats),
    }

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    journal = report["journal"]
    warm = report["warm_start"]
    print(f"BENCH persistence ({report['mode']}): "
          f"{n_rows}x{table.n_columns} crime, "
          f"{journal['n_jobs']} jobs/run, {repeats} repeat(s)")
    print(f"journal: in-memory {journal['in_memory_s']}s vs durable "
          f"{journal['durable_s']}s -> overhead {journal['overhead_pct']}% "
          f"(raw append {journal['append_us']}us)")
    print(f"warm start: cold {warm['cold_first_query_ms']}ms vs warmed "
          f"{warm['warm_first_query_ms']}ms "
          f"(x{warm['speedup']}, warm cache {warm['warm_cache']})")
    print(f"wrote {args.out}")

    failed = False
    if journal["overhead_pct"] >= args.gate_pct:
        print(f"ERROR: journal overhead {journal['overhead_pct']}% "
              f"breaches the {args.gate_pct}% gate", file=sys.stderr)
        failed = True
    if warm["warm_cache"].get("misses") != 0:
        print("ERROR: snapshot-warmed first query re-prepared statistics "
              f"(counters {warm['warm_cache']})", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
