"""EXT-ROWS — runtime scaling with table length n.

Two experiments share this module:

* the original pytest-benchmark series (cold cache, 1k -> 32k rows):
  preparation scans the data, so the expected shape is ~linear growth in
  n with a fixed search/post overhead;
* the **warm series** (``__main__``): repeated queries against a
  :class:`StatsCache` warmed with ``ensure_sketch``, where per-query
  scoring is answered from the table's reservoir sample.  Since the
  sample size is fixed, warm per-query time must grow **sub-linearly**
  in n — the gate asserts < 1.6x per row-count doubling (a linear path
  would be ~2x).
  A rank-fidelity section re-runs the same characterization through the
  exact tier (a cache without a sketch) and checks the top views agree.

Usage::

    PYTHONPATH=src python benchmarks/bench_runtime_rows.py [--smoke]
        [--out BENCH_runtime_rows.json]

``--smoke`` shrinks the series so CI finishes in seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from repro.core.pipeline import Ziggy
from repro.core.stats_cache import StatsCache
from repro.data.planted import make_planted
from repro.engine.database import Database

ROW_COUNTS = (1000, 2000, 4000, 8000, 16000, 32000)

#: Warm-series row counts; every step doubles, so consecutive ratios are
#: directly comparable against the sub-linear gate.
WARM_ROW_COUNTS = (8000, 16000, 32000)
WARM_ROW_COUNTS_SMOKE = (8000, 16000)

#: Growth gate per doubling of rows for the warm (sketch-tier) series.
MAX_WARM_GROWTH_PER_DOUBLING = 1.6

#: Moderate-selectivity thresholds: both groups keep enough sampled rows
#: for the default error bound to decide, so every query stays sketched.
WARM_QUANTILES = (0.3, 0.4, 0.5, 0.6, 0.7)


def _dataset(n_rows: int, n_columns: int = 64):
    return make_planted(n_rows=n_rows, n_columns=n_columns, n_views=2,
                        view_dim=2, kinds=("mean",), effect=1.0,
                        seed=7)


def test_runtime_vs_rows(benchmark):
    from repro.experiments.harness import repeat_time
    from repro.experiments.reporting import Reporter

    datasets = {n: _dataset(n) for n in ROW_COUNTS}

    benchmark.pedantic(
        lambda: Ziggy(datasets[4000].table, share_statistics=False)
        .characterize_selection(datasets[4000].selection),
        rounds=3, iterations=1, warmup_rounds=1)

    reporter = Reporter("EXT-ROWS", "runtime vs row count "
                        "(M=64 columns, cold cache)")
    rows = []
    times = {}
    for n in ROW_COUNTS:
        ds = datasets[n]

        def run(ds=ds):
            return Ziggy(ds.table, share_statistics=False) \
                .characterize_selection(ds.selection)

        median = repeat_time(run, repeats=3 if n <= 8000 else 2, warmup=1)
        times[n] = median
        rows.append([n, f"{median * 1000:.0f}",
                     f"{median / n * 1e6:.1f}"])
    reporter.add_table(["rows n", "median (ms)", "us per row"], rows,
                       title="scaling series")
    reporter.add_text("expected shape: ~linear in n once the fixed "
                      "search/post overhead is amortized "
                      "(us-per-row flattens).")
    reporter.flush()

    # Shape: 32x the rows costs far less than 32x the time of the 1k run
    # (fixed overhead dominates small inputs) and stays sub-quadratic.
    assert times[32000] < 32 * times[1000] * 1.5
    assert times[32000] > times[1000]


# ---------------------------------------------------------------------------
# Warm (sketch-tier) series — the __main__ benchmark
# ---------------------------------------------------------------------------


def _warm_predicates(table) -> list[str]:
    """Distinct moderate-selectivity predicates on one background column."""
    column = table.numeric_column_names()[0]
    values = table.column(column).numeric_values()
    return [f"{column} > {float(np.nanquantile(values, q)):.6f}"
            for q in WARM_QUANTILES]


def _warm_series_point(n_rows: int, repeats: int) -> dict:
    """Median warm per-query latency at one table size, tiered vs exact."""
    ds = _dataset(n_rows)
    db = Database()
    db.register(ds.table)
    predicates = _warm_predicates(ds.table)

    laps: dict[str, list[float]] = {"tiered": [], "exact": []}
    counters = {}
    for tier in ("tiered", "exact"):
        cache = StatsCache()
        if tier == "tiered":
            cache.ensure_sketch(ds.table)
        engine = Ziggy(db, cache=cache)
        # Warm the table-level state: the selection-based cold run pays
        # global stats + dependency matrix; the first predicate pays the
        # dependency matrix of the predicate-excluded column set.
        engine.characterize_selection(ds.selection)
        engine.characterize(predicates[0])
        for _ in range(repeats):
            for predicate in predicates[1:]:
                start = time.perf_counter()
                engine.characterize(predicate)
                laps[tier].append((time.perf_counter() - start) * 1000.0)
        if tier == "tiered":
            counters = {
                "sketch_hits": cache.counters.sketch_hits,
                "sketch_fallbacks": cache.counters.sketch_fallbacks,
            }
    return {
        "rows": n_rows,
        "warm_query_ms": round(statistics.median(laps["tiered"]), 3),
        "warm_query_exact_ms": round(statistics.median(laps["exact"]), 3),
        **counters,
    }


def _rank_fidelity(n_rows: int) -> dict:
    """Top-view agreement between the sketch tier and the exact tier."""
    ds = _dataset(n_rows)
    db = Database()
    db.register(ds.table)

    tiered_cache = StatsCache()
    tiered_cache.ensure_sketch(ds.table)
    tiered = Ziggy(db, cache=tiered_cache) \
        .characterize_selection(ds.selection)
    exact = Ziggy(db, cache=StatsCache()) \
        .characterize_selection(ds.selection)

    tiered_views = [sorted(v.columns) for v in tiered.views]
    exact_views = [sorted(v.columns) for v in exact.views]
    truth = {frozenset(view.columns) for view in ds.truth}
    k = len(truth)
    top_tiered = {frozenset(v) for v in tiered_views[:k]}
    top_exact = {frozenset(v) for v in exact_views[:k]}
    return {
        "rows": n_rows,
        "sketch_served": tiered_cache.counters.sketch_hits > 0,
        "tiered_top_views": [list(v) for v in tiered_views[:k + 1]],
        "exact_top_views": [list(v) for v in exact_views[:k + 1]],
        # Set-valued on purpose: the planted views are near-ties by
        # construction (same effect kind and strength), so the order
        # *within* the top-k may legitimately differ between tiers —
        # what must agree is which views occupy the top-k at all.
        "topk_sets_match": top_tiered == top_exact,
        "tiered_topk_is_truth": top_tiered == truth,
        "exact_topk_is_truth": top_exact == truth,
        "tiered_truth_recall": round(
            len({frozenset(v) for v in tiered_views} & truth)
            / max(1, len(truth)), 3),
        "exact_truth_recall": round(
            len({frozenset(v) for v in exact_views} & truth)
            / max(1, len(truth)), 3),
    }


def run_benchmark(row_counts: tuple[int, ...], repeats: int) -> dict:
    series = [_warm_series_point(n, repeats) for n in row_counts]
    growth = []
    for prev, cur in zip(series, series[1:]):
        growth.append({
            "rows": f"{prev['rows']}->{cur['rows']}",
            "tiered": round(cur["warm_query_ms"]
                            / max(prev["warm_query_ms"], 1e-9), 3),
            "exact": round(cur["warm_query_exact_ms"]
                           / max(prev["warm_query_exact_ms"], 1e-9), 3),
        })
    return {
        "benchmark": "runtime_rows_warm",
        "columns": 64,
        "repeats": repeats,
        "max_growth_per_doubling": MAX_WARM_GROWTH_PER_DOUBLING,
        "warm_series": series,
        "growth_per_doubling": growth,
        "rank_fidelity": _rank_fidelity(row_counts[-1]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="warm-query scaling of the sketch tier vs row count")
    parser.add_argument("--smoke", action="store_true",
                        help="short series / single repeat (CI gate)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="measurement repeats (default 3; 1 in smoke)")
    parser.add_argument("--out", default="BENCH_runtime_rows.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    row_counts = WARM_ROW_COUNTS_SMOKE if args.smoke else WARM_ROW_COUNTS
    repeats = args.repeats if args.repeats else (1 if args.smoke else 3)
    report = run_benchmark(row_counts, repeats)
    report["mode"] = "smoke" if args.smoke else "full"

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    print(f"BENCH runtime_rows ({report['mode']}): warm series at "
          f"M=64, rows {list(row_counts)}, {repeats} repeat(s)")
    print(f"{'rows':>7} {'tiered(ms)':>11} {'exact(ms)':>10} "
          f"{'hits':>5} {'fallbacks':>9}")
    for point in report["warm_series"]:
        print(f"{point['rows']:>7} {point['warm_query_ms']:>11.1f} "
              f"{point['warm_query_exact_ms']:>10.1f} "
              f"{point['sketch_hits']:>5} {point['sketch_fallbacks']:>9}")
    for step in report["growth_per_doubling"]:
        print(f"growth {step['rows']}: tiered x{step['tiered']} "
              f"(exact x{step['exact']})")
    fidelity = report["rank_fidelity"]
    print(f"rank fidelity @ {fidelity['rows']} rows: "
          f"topk_sets_match={fidelity['topk_sets_match']} "
          f"tiered_topk_is_truth={fidelity['tiered_topk_is_truth']} "
          f"truth recall tiered={fidelity['tiered_truth_recall']} "
          f"exact={fidelity['exact_truth_recall']}")
    print(f"wrote {args.out}")

    # Gates: warm growth must stay sub-linear, every query must actually
    # ride the sketch, and the tiers must agree on the top view.
    failed = False
    for step in report["growth_per_doubling"]:
        if step["tiered"] >= MAX_WARM_GROWTH_PER_DOUBLING:
            print(f"ERROR: warm growth {step['rows']} is x{step['tiered']} "
                  f"(gate < x{MAX_WARM_GROWTH_PER_DOUBLING})",
                  file=sys.stderr)
            failed = True
    for point in report["warm_series"]:
        if point["sketch_hits"] <= 0:
            print(f"ERROR: no sketch hits at {point['rows']} rows",
                  file=sys.stderr)
            failed = True
    if not fidelity["sketch_served"]:
        print("ERROR: rank-fidelity run never touched the sketch tier",
              file=sys.stderr)
        failed = True
    if not fidelity["topk_sets_match"]:
        print("ERROR: tiered and exact tiers disagree on the top-k views",
              file=sys.stderr)
        failed = True
    if not fidelity["tiered_topk_is_truth"]:
        print("ERROR: sketch tier's top-k views are not the planted truth",
              file=sys.stderr)
        failed = True
    if fidelity["tiered_truth_recall"] < fidelity["exact_truth_recall"]:
        print("ERROR: sketch tier recalls fewer planted views than exact",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
