"""BENCH executors — thread pool vs process shards under concurrency.

The executor refactor exists for one number: characterization throughput
on a multi-core host.  A thread backend is GIL-bound — N concurrent
characterizations of N *distinct* tables still serialize onto roughly
one core — while the process-shard backend routes each table's work to
its own worker process and runs them genuinely in parallel.

This benchmark measures that, service-level, per backend:

* build K distinct tables (different content, different fingerprints —
  so the shard router spreads them across workers);
* submit one characterization **job** per table simultaneously;
* measure the wall-clock time until every job is ``done``.

It writes machine-readable ``BENCH_executors.json`` and prints a short
table.  The
recorded ``cpu_count`` qualifies the speedup: on a single-core host the
process backend cannot win (there is nothing to parallelize onto, and it
pays the relay overhead), so the regression gate only arms when at
least ``--gate-cores`` cores are present.

Usage::

    PYTHONPATH=src python benchmarks/bench_executors.py [--smoke]
        [--tables K] [--workers N] [--rows R] [--repeats M]
        [--out BENCH_executors.json]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

from repro.data.crime import make_crime
from repro.runtime import ZiggyRuntime
from repro.service import CharacterizeRequest, ZiggyService
from repro.service.protocol import BatchRequest

#: Fraction of rows each benchmark predicate selects (top tail).
QUANTILE = 0.8

#: Row-fraction cuts for the batch comparison's predicates per table.
BATCH_QUANTILES = (0.5, 0.7, 0.9)


def build_tables(n_tables: int, n_rows: int, n_shards: int) -> list:
    """K tables with distinct content (and therefore fingerprints).

    Seeds are searched (deterministically) so the tables spread across
    the executor's shards: the benchmark measures parallel execution,
    not the luck of a hash distribution.
    """
    from repro.runtime import shard_index

    tables = []
    taken: set[int] = set()
    seed = 101
    for index in range(n_tables):
        for _attempt in range(32):
            table = make_crime(n_rows=n_rows, seed=seed)
            table.name = f"crime_{index}"
            seed += 1
            shard = shard_index(table.fingerprint(), n_shards)
            if shard not in taken or len(taken) == n_shards:
                taken.add(shard)
                break
        tables.append(table)
    return tables


def predicate_for(table) -> str:
    values = table.column("violent_crime_rate").numeric_values()
    cut = float(np.nanquantile(values, QUANTILE))
    return f"violent_crime_rate > {cut:.6f}"


def run_round(backend: str, tables: list, workers: int) -> dict:
    """One cold round: fresh service, K simultaneous jobs, wall time."""
    service = ZiggyService(max_workers=workers, runtime=ZiggyRuntime(),
                           executor=backend)
    try:
        for table in tables:
            service.register_table(table)
        requests = [CharacterizeRequest(where=predicate_for(table),
                                        table=table.name,
                                        client_id=f"bench-{table.name}")
                    for table in tables]
        start = time.perf_counter()
        job_ids = [service.submit(request).job_id for request in requests]
        snapshots = [service.wait(job_id, timeout=600)
                     for job_id in job_ids]
        wall_ms = (time.perf_counter() - start) * 1000.0
        statuses = [snapshot.status for snapshot in snapshots]
        n_views = [snapshot.result.n_views if snapshot.result else 0
                   for snapshot in snapshots]
        # every job must stream events end to end, whatever the backend
        events_ok = all(
            service.job_events(job_id, timeout=5)[1]
            and service.job_events(job_id, timeout=5)[0][-1].kind == "result"
            for job_id in job_ids)
        return {"wall_ms": wall_ms, "statuses": statuses,
                "n_views": n_views, "events_ok": events_ok,
                "executor": service.executor.describe()}
    finally:
        service.shutdown(wait=False)


def batch_predicates_for(table) -> list:
    values = table.column("violent_crime_rate").numeric_values()
    return [f"violent_crime_rate > {float(np.nanquantile(values, q)):.6f}"
            for q in BATCH_QUANTILES]


def run_batch_round(backend: str, tables: list, workers: int) -> dict:
    """Shard-grouped vs interleaved submission of one warm batch.

    The same entries — every batch predicate of every table — go
    through the service twice after a warm-up pass:

    * **interleaved**: one job per predicate, submitted round-robin
      across the tables (the access pattern a naive client produces);
    * **grouped**: one ``characterize_many`` call, whose shard-aware
      scheduler turns the entries into one batch task per table.

    Both passes run on warm statistics caches, so the numbers isolate
    scheduling overhead (submission count, event relay, interleaving)
    rather than cache effects; the acceptance bar is grouped being no
    slower than interleaved.
    """
    service = ZiggyService(max_workers=workers, runtime=ZiggyRuntime(),
                           executor=backend)
    try:
        for table in tables:
            service.register_table(table)
        per_table = {table.name: batch_predicates_for(table)
                     for table in tables}
        # Warm every table's statistics cache (whichever process owns it).
        for table in tables:
            service.characterize(CharacterizeRequest(
                where=predicate_for(table), table=table.name))
        entries = [(table.name, where)
                   for index in range(len(BATCH_QUANTILES))
                   for table in tables
                   for where in [per_table[table.name][index]]]
        start = time.perf_counter()
        job_ids = [service.submit(CharacterizeRequest(
            where=where, table=table_name)).job_id
            for table_name, where in entries]
        snapshots = [service.wait(job_id, timeout=600)
                     for job_id in job_ids]
        interleaved_ms = (time.perf_counter() - start) * 1000.0
        if any(s.status != "done" for s in snapshots):
            raise RuntimeError(f"{backend}: interleaved jobs failed: "
                               f"{[s.status for s in snapshots]}")
        start = time.perf_counter()
        response = service.characterize_many(BatchRequest(items=entries))
        grouped_ms = (time.perf_counter() - start) * 1000.0
        if len(response.results) != len(entries):
            raise RuntimeError(f"{backend}: batch returned "
                               f"{len(response.results)} results for "
                               f"{len(entries)} entries")
        return {
            "entries": len(entries),
            "interleaved_ms": round(interleaved_ms, 1),
            "grouped_ms": round(grouped_ms, 1),
            "grouped_vs_interleaved": round(
                grouped_ms / max(interleaved_ms, 1e-9), 3),
        }
    finally:
        service.shutdown(wait=False)


def run_benchmark(n_tables: int, n_rows: int, workers: int,
                  repeats: int) -> dict:
    tables = build_tables(n_tables, n_rows, n_shards=workers)
    report: dict = {
        "benchmark": "executors",
        "cpu_count": os.cpu_count(),
        "n_tables": n_tables,
        "rows_per_table": n_rows,
        "columns_per_table": tables[0].n_columns,
        "workers": workers,
        "repeats": repeats,
        "backends": {},
    }
    for backend in ("thread", "process"):
        walls: list[float] = []
        last: dict = {}
        for _ in range(repeats):
            last = run_round(backend, tables, workers)
            if any(status != "done" for status in last["statuses"]):
                raise RuntimeError(
                    f"{backend}: jobs did not finish: {last['statuses']}")
            if not last["events_ok"]:
                raise RuntimeError(f"{backend}: event streams incomplete")
            walls.append(last["wall_ms"])
        report["backends"][backend] = {
            "wall_ms": [round(w, 1) for w in walls],
            "median_wall_ms": round(statistics.median(walls), 1),
            "per_job_ms": round(statistics.median(walls) / n_tables, 1),
            "n_views": last["n_views"],
            "executor": last["executor"],
        }
    thread_ms = report["backends"]["thread"]["median_wall_ms"]
    process_ms = report["backends"]["process"]["median_wall_ms"]
    report["speedup_process_vs_thread"] = round(
        thread_ms / max(process_ms, 1e-9), 3)
    shards = report["backends"]["process"]["executor"]["shards"]
    report["shards_used"] = sum(1 for names in shards.values() if names)
    report["batch"] = {backend: run_batch_round(backend, tables, workers)
                       for backend in ("thread", "process")}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="concurrent characterization throughput per "
                    "executor backend")
    parser.add_argument("--smoke", action="store_true",
                        help="small tables / single repeat (CI gate)")
    parser.add_argument("--tables", type=int, default=4,
                        help="distinct tables = concurrent jobs "
                             "(default 4)")
    parser.add_argument("--workers", type=int, default=None,
                        help="backend workers (default: --tables)")
    parser.add_argument("--rows", type=int, default=None,
                        help="rows per table (default 1994; 400 in smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="measurement repeats (default 3; 1 in smoke)")
    parser.add_argument("--gate-cores", type=int, default=4,
                        help="arm the speedup regression gate only when "
                             "at least this many cores exist (default 4)")
    parser.add_argument("--out", default="BENCH_executors.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    n_rows = args.rows if args.rows else (400 if args.smoke else 1994)
    repeats = args.repeats if args.repeats else (1 if args.smoke else 3)
    workers = args.workers if args.workers else args.tables

    report = run_benchmark(n_tables=args.tables, n_rows=n_rows,
                           workers=workers, repeats=repeats)
    report["mode"] = "smoke" if args.smoke else "full"

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    print(f"BENCH executors ({report['mode']}): {args.tables} concurrent "
          f"jobs on distinct {n_rows}x{report['columns_per_table']} tables, "
          f"{workers} workers, {report['cpu_count']} cpu(s)")
    print(f"{'backend':<9} {'wall(ms)':>10} {'per-job(ms)':>12}")
    for backend, row in report["backends"].items():
        print(f"{backend:<9} {row['median_wall_ms']:>10.1f} "
              f"{row['per_job_ms']:>12.1f}")
    print(f"speedup (process vs thread): x{report['speedup_process_vs_thread']}"
          f"   shards used: {report['shards_used']}")
    print(f"{'batch':<9} {'grouped(ms)':>12} {'interleaved(ms)':>16} "
          f"{'ratio':>7}")
    for backend, row in report["batch"].items():
        print(f"{backend:<9} {row['grouped_ms']:>12.1f} "
              f"{row['interleaved_ms']:>16.1f} "
              f"{row['grouped_vs_interleaved']:>7.3f}")
    print(f"wrote {args.out}")

    # Sanity gates.  Correctness gates always arm; the multi-core
    # speedup gate arms only where the hardware can show one.
    if report["shards_used"] < min(args.tables, workers, 2):
        print("ERROR: fingerprint sharding left all tables on one shard",
              file=sys.stderr)
        return 1
    cpus = report["cpu_count"] or 1
    if cpus >= args.gate_cores and report["speedup_process_vs_thread"] < 1.05:
        print(f"ERROR: process backend not faster than threads on a "
              f"{cpus}-core host "
              f"(x{report['speedup_process_vs_thread']})", file=sys.stderr)
        return 1
    if cpus < args.gate_cores:
        print(f"note: {cpus} core(s) — speedup gate not armed "
              f"(needs {args.gate_cores})")
    # Shard-grouped batch submission must not lose to interleaved
    # submission on warm tables (15% tolerance absorbs timer noise on
    # busy CI runners; the gate needs real cores to be meaningful).
    if cpus >= args.gate_cores:
        for backend, row in report["batch"].items():
            if row["grouped_ms"] > row["interleaved_ms"] * 1.15:
                print(f"ERROR: {backend}: shard-grouped batch submission "
                      f"slower than interleaved on warm tables "
                      f"({row['grouped_ms']}ms vs "
                      f"{row['interleaved_ms']}ms)", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
