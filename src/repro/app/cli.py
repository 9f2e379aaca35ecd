"""Command-line interface: characterize a query from the shell.

Examples::

    python -m repro --dataset us_crime --where "violent_crime_rate > 0.25"
    python -m repro --csv mydata.csv --where "price > 100" --views 5 --plot
    python -m repro --dataset boxoffice --sql \
        "SELECT genre, count(*), avg(gross) FROM boxoffice GROUP BY genre"
    python -m repro --list-datasets
    python -m repro serve --dataset boxoffice --port 8765

With ``--sql`` and an aggregate/projection query the result table is
printed; with ``--where`` (or a SQL query whose WHERE clause selects a
strict subset) the selection is characterized and the ranked views with
explanations are printed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.app.render import view_card
from repro.core.config import ZiggyConfig
from repro.core.pipeline import Ziggy
from repro.data.registry import dataset_names, load_dataset
from repro.engine.csvio import read_csv
from repro.engine.database import Database
from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    """The argparse definition (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ziggy: characterize query results for data explorers "
                    "(VLDB 2016 reproduction)")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--dataset", choices=dataset_names(),
                        help="built-in demo dataset to load")
    source.add_argument("--csv", metavar="PATH",
                        help="CSV file to load as the table")
    parser.add_argument("--list-datasets", action="store_true",
                        help="list built-in datasets and exit")
    query = parser.add_mutually_exclusive_group()
    query.add_argument("--where", metavar="PREDICATE",
                       help="predicate defining the selection to "
                            "characterize")
    query.add_argument("--sql", metavar="QUERY",
                       help="full SELECT; aggregates/projections print the "
                            "result table, otherwise the WHERE clause is "
                            "characterized")
    parser.add_argument("--views", type=int, default=8,
                        help="maximum number of views (default 8)")
    parser.add_argument("--dim", type=int, default=2,
                        help="maximum view dimension D (default 2)")
    parser.add_argument("--tightness", type=float, default=0.35,
                        help="MIN_tight constraint (default 0.35)")
    parser.add_argument("--strategy", choices=("linkage", "clique"),
                        default="linkage", help="view-search strategy")
    parser.add_argument("--aggregation",
                        choices=("min", "bonferroni", "holm", "fisher"),
                        default="bonferroni",
                        help="p-value aggregation scheme")
    parser.add_argument("--weight", action="append", default=[],
                        metavar="COMPONENT=W",
                        help="component weight override (repeatable)")
    parser.add_argument("--plot", action="store_true",
                        help="print the ASCII plot panel for each view")
    parser.add_argument("--dendrogram", action="store_true",
                        help="print the dependency dendrogram (tuning aid)")
    parser.add_argument("--exclude", action="append", default=[],
                        metavar="COLUMN",
                        help="column to exclude from the search (repeatable)")
    parser.add_argument("--seed-rows", type=int, default=None,
                        metavar="N", help="shrink a built-in dataset to N rows")
    return parser


def _parse_weights(pairs: Sequence[str]) -> dict[str, float]:
    weights: dict[str, float] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ReproError(f"--weight expects COMPONENT=W, got {pair!r}")
        name, _, value = pair.partition("=")
        try:
            weights[name.strip()] = float(value)
        except ValueError:
            raise ReproError(f"--weight {pair!r}: {value!r} is not a number") \
                from None
    return weights


def _load_table(args) -> "Table":  # noqa: F821 - forward name for docs
    if args.csv:
        return read_csv(args.csv)
    name = args.dataset or "us_crime"
    kwargs = {}
    if args.seed_rows:
        kwargs["n_rows"] = args.seed_rows
    return load_dataset(name, **kwargs)


def build_serve_parser() -> argparse.ArgumentParser:
    """The argparse definition of the ``serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the Ziggy characterization service over HTTP "
                    "(protocol v2 + /v1 compatibility endpoint)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8765,
                        help="TCP port (default 8765; 0 picks a free port)")
    parser.add_argument("--dataset", action="append", default=[],
                        choices=dataset_names(), metavar="NAME",
                        help="built-in dataset to serve (repeatable; "
                             "default: all built-ins)")
    parser.add_argument("--csv", action="append", default=[], metavar="PATH",
                        help="CSV file to serve as a table (repeatable)")
    parser.add_argument("--seed-rows", type=int, default=None, metavar="N",
                        help="shrink built-in datasets to N rows")
    parser.add_argument("--executor", choices=("inline", "thread", "process"),
                        default="thread",
                        help="job execution backend: 'thread' (one pool in "
                             "this process, the default), 'process' (shard "
                             "jobs across worker processes by table "
                             "fingerprint for multi-core throughput), or "
                             "'inline' (synchronous; debugging)")
    parser.add_argument("--workers", type=int, default=2,
                        help="executor worker count: thread-pool size, or "
                             "worker-process shard count with "
                             "--executor process (default 2)")
    parser.add_argument("--max-restarts", type=int, default=None, metavar="N",
                        help="with --executor process: how often one dead "
                             "worker shard is respawned (registrations "
                             "replayed, in-flight jobs retried) before the "
                             "shard is declared dead (default 2; 0 disables "
                             "self-healing)")
    parser.add_argument("--state-dir", default=None, metavar="PATH",
                        help="directory for durable state: the job journal "
                             "and warm-cache snapshots survive restarts "
                             "(default: none — fully in-memory)")
    parser.add_argument("--recover", choices=("resume", "fail", "discard"),
                        default="resume",
                        help="with --state-dir: what happens to jobs that "
                             "were in flight when the previous coordinator "
                             "stopped — 'resume' re-runs them under their "
                             "original ids (default), 'fail' marks them "
                             "interrupted, 'discard' forgets them")
    parser.add_argument("--snapshot-interval", type=float, default=None,
                        metavar="SECONDS",
                        help="with --state-dir: cadence of background "
                             "warm-cache snapshot passes (default 30; 0 "
                             "disables the cadence, drain-time snapshots "
                             "still happen)")
    parser.add_argument("--fsync", choices=("never", "rotate", "always"),
                        default=None,
                        help="with --state-dir: journal fsync policy "
                             "(default 'rotate' — fsync at segment "
                             "boundaries and close; see "
                             "docs/persistence.md for the durability "
                             "matrix)")
    parser.add_argument("--max-tables", type=int, default=None, metavar="N",
                        help="most tables whose statistics the shared "
                             "runtime keeps cached; past it the least "
                             "recently used table's cache is evicted "
                             "(default 16; 0 = unbounded)")
    parser.add_argument("--cache-bytes", type=int, default=None, metavar="B",
                        help="budget over the column data of the tables "
                             "whose statistics the shared runtime keeps "
                             "cached; past it the least recently used "
                             "table's cache is evicted (default "
                             "1073741824 = 1 GiB; 0 = unbounded)")
    parser.add_argument("--frontend", choices=("async",), default="async",
                        help="HTTP front-end: 'async', one event loop "
                             "multiplexing every connection (the only "
                             "choice; accepted so existing command lines "
                             "keep working)")
    parser.add_argument("--max-pending-jobs", type=int, default=None,
                        metavar="N",
                        help="bound the job queue: submissions beyond N "
                             "open (pending+running) jobs are answered "
                             "429 + Retry-After instead of queueing "
                             "without limit (default: unbounded)")
    parser.add_argument("--client-rate", type=float, default=None,
                        metavar="R",
                        help="per-client admission control: sustained "
                             "compute requests/second per client_id "
                             "(token bucket; default: off)")
    parser.add_argument("--client-burst", type=float, default=None,
                        metavar="B",
                        help="per-client token-bucket burst capacity "
                             "(default: max(1, --client-rate))")
    parser.add_argument("--table-rate", type=float, default=None,
                        metavar="R",
                        help="per-table admission control: sustained "
                             "compute requests/second per table "
                             "(token bucket; default: off)")
    parser.add_argument("--table-burst", type=float, default=None,
                        metavar="B",
                        help="per-table token-bucket burst capacity "
                             "(default: max(1, --table-rate))")
    parser.add_argument("--sse-eviction-seconds", type=float, default=None,
                        metavar="S",
                        help="evict an SSE subscriber whose socket stays "
                             "unwritable this long — a slow consumer is "
                             "dropped with a ': client-evicted' comment "
                             "instead of pinning server resources "
                             "(default 10)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-request access logging")
    return parser


def serve_main(argv: Sequence[str] | None = None, stream=None) -> int:
    """Entry point of ``repro serve``; blocks until interrupted."""
    out = stream if stream is not None else sys.stdout
    args = build_serve_parser().parse_args(argv)

    # Imported here so plain CLI runs never pay for the service stack.
    from repro.gateway import GatewayPolicy, make_async_server
    from repro.runtime import DEFAULT_MAX_BYTES, DEFAULT_MAX_TABLES, ZiggyRuntime
    from repro.runtime.blas import pin_blas_to_one_thread
    from repro.service.service import ZiggyService

    pin_blas_to_one_thread()

    # 0 means unbounded; absent means the documented defaults.
    max_tables = (DEFAULT_MAX_TABLES if args.max_tables is None
                  else (args.max_tables or None))
    cache_bytes = (DEFAULT_MAX_BYTES if args.cache_bytes is None
                   else (args.cache_bytes or None))
    try:
        runtime = ZiggyRuntime(max_tables=max_tables, max_bytes=cache_bytes)
        service = ZiggyService(max_workers=args.workers, runtime=runtime,
                               executor=args.executor,
                               max_restarts=args.max_restarts,
                               state_dir=args.state_dir,
                               snapshot_interval=args.snapshot_interval,
                               fsync=args.fsync)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=out)
        return 1

    # The service now owns live resources (worker processes / thread
    # pool); every startup failure past this point must release them.
    try:
        names = args.dataset or list(dataset_names())
        kwargs = {"n_rows": args.seed_rows} if args.seed_rows else {}
        for name in names:
            service.register_table(load_dataset(name, **kwargs))
        for path in args.csv:
            service.register_table(read_csv(path))
        # Recovery runs after the catalog is registered (resume
        # re-executes against it) and before the first request lands.
        report = service.recover(policy=args.recover)
        policy_kwargs = {}
        if args.max_pending_jobs is not None:
            policy_kwargs["max_pending_jobs"] = args.max_pending_jobs
        if args.client_rate is not None:
            policy_kwargs["client_rate"] = args.client_rate
        if args.client_burst is not None:
            policy_kwargs["client_burst"] = args.client_burst
        if args.table_rate is not None:
            policy_kwargs["table_rate"] = args.table_rate
        if args.table_burst is not None:
            policy_kwargs["table_burst"] = args.table_burst
        if args.sse_eviction_seconds is not None:
            policy_kwargs["sse_write_timeout"] = args.sse_eviction_seconds
        policy = GatewayPolicy(**policy_kwargs) if policy_kwargs else None
        server = make_async_server(service, host=args.host, port=args.port,
                                   verbose=not args.quiet, policy=policy)
    except (ReproError, OSError) as exc:  # bad data, port in use, ...
        service.shutdown(wait=False)
        print(f"error: {exc}", file=out)
        return 1
    # `kill <pid>` (systemd stop, CI teardown) must be a *clean* stop —
    # drain handlers, snapshot warm caches, compact the journal — not a
    # silent process death that skips the finally below.  SIGKILL
    # remains the crash path the recovery subsystem exists for.
    import signal as _signal

    def _sigterm(_signum, _frame):
        raise KeyboardInterrupt

    try:
        _signal.signal(_signal.SIGTERM, _sigterm)
    except ValueError:
        pass  # not the main thread (embedded/test use); skip the hook

    if report is not None:
        print(report.summary(), file=out, flush=True)
    host, port = server.server_address[:2]
    state_note = (f", state-dir={service.state.state_dir}"
                  if service.state is not None else "")
    print(f"serving {', '.join(service.database.table_names())} "
          f"on http://{host}:{port} (protocol v2, "
          f"frontend={args.frontend}, "
          f"executor={args.executor} x{args.workers}{state_note}; "
          f"Ctrl-C to stop)",
          file=out, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=out)
    finally:
        server.close(wait=False)
    return 0


def main(argv: Sequence[str] | None = None, stream=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = stream if stream is not None else sys.stdout
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:], stream=stream)
    parser = build_parser()
    args = parser.parse_args(argv)

    def emit(text: str = "") -> None:
        print(text, file=out)

    try:
        if args.list_datasets:
            for name in dataset_names():
                table = load_dataset(name, **(
                    {"n_rows": 50} if name != "boxoffice" else {"n_rows": 50}))
                emit(f"{name:<12} {table.n_columns} columns "
                     f"(sampled 50 rows; defaults to paper size)")
            return 0
        table = _load_table(args)
        db = Database()
        db.register(table)

        if args.sql:
            from repro.engine.parser import parse_query
            parsed = parse_query(args.sql)
            if parsed.is_aggregation or parsed.columns is not None:
                result_table = db.run(parsed)
                emit(result_table.preview(n=50))
                return 0
            where_predicate = parsed.predicate
        elif args.where:
            where_predicate = args.where
        else:
            parser.error("one of --where, --sql or --list-datasets is required")
            return 2  # pragma: no cover - argparse exits first

        config = ZiggyConfig(
            max_views=args.views,
            max_view_dim=args.dim,
            min_tightness=args.tightness,
            search_strategy=args.strategy,
            aggregation=args.aggregation,
            weights=_parse_weights(args.weight),
            excluded_columns=tuple(args.exclude),
        )
        ziggy = Ziggy(db, config=config)
        selection = db.select(table.name, where_predicate)
        result = ziggy.characterize_selection(selection)
        emit(result.describe())
        emit()
        for i, view in enumerate(result.views, start=1):
            if args.plot:
                emit(view_card(view, selection, rank=i))
                emit()
            else:
                emit(f"{i}. {view.explanation}")
        if args.dendrogram:
            emit()
            emit(ziggy.dendrogram_text() or "(no dendrogram)")
        return 0
    except ReproError as exc:
        emit(f"error: {exc}")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
