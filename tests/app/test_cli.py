"""Tests for the command-line interface."""

import io

import pytest

from repro.app.cli import build_parser, main
from repro.engine.csvio import write_csv


def run_cli(*argv) -> tuple[int, str]:
    buffer = io.StringIO()
    code = main(list(argv), stream=buffer)
    return code, buffer.getvalue()


class TestCharacterize:
    def test_dataset_where(self):
        code, out = run_cli("--dataset", "boxoffice", "--seed-rows", "300",
                            "--where", "gross > 200000000")
        assert code == 0
        assert "characteristic view" in out
        assert "your selection" in out

    def test_views_cap(self):
        code, out = run_cli("--dataset", "boxoffice", "--seed-rows", "300",
                            "--where", "gross > 200000000", "--views", "2")
        assert code == 0
        # Skip the header line: it ends with the wall-clock time
        # ("... in 13.2 ms"), which may itself contain "3.".
        listing = out.split("characteristic")[1].split("\n", 1)[1]
        assert "3." not in listing

    def test_plot_flag(self):
        code, out = run_cli("--dataset", "boxoffice", "--seed-rows", "300",
                            "--where", "gross > 200000000", "--plot")
        assert code == 0
        assert "score=" in out

    def test_dendrogram_flag(self):
        code, out = run_cli("--dataset", "boxoffice", "--seed-rows", "300",
                            "--where", "gross > 200000000", "--dendrogram")
        assert code == 0
        assert "d=" in out

    def test_weight_override(self):
        code, out = run_cli("--dataset", "boxoffice", "--seed-rows", "300",
                            "--where", "gross > 200000000",
                            "--weight", "spread_shift=0")
        assert code == 0

    def test_clique_strategy(self):
        code, out = run_cli("--dataset", "boxoffice", "--seed-rows", "300",
                            "--where", "gross > 200000000",
                            "--strategy", "clique")
        assert code == 0

    def test_exclude(self):
        code, out = run_cli("--dataset", "boxoffice", "--seed-rows", "300",
                            "--where", "gross > 200000000",
                            "--exclude", "opening_weekend")
        assert code == 0
        assert "opening_weekend" not in out.split("\n\n")[0]


class TestSql:
    def test_aggregate_prints_table(self):
        code, out = run_cli("--dataset", "boxoffice", "--seed-rows", "300",
                            "--sql", "SELECT genre, count(*) FROM boxoffice "
                                     "GROUP BY genre")
        assert code == 0
        assert "count(*)" in out

    def test_star_where_characterizes(self):
        code, out = run_cli("--dataset", "boxoffice", "--seed-rows", "300",
                            "--sql", "SELECT * FROM boxoffice WHERE "
                                     "gross > 200000000")
        assert code == 0
        assert "characteristic view" in out

    def test_projection_prints_table(self):
        code, out = run_cli("--dataset", "boxoffice", "--seed-rows", "300",
                            "--sql", "SELECT budget FROM boxoffice LIMIT 3")
        assert code == 0
        assert "budget" in out


class TestCsvAndErrors:
    def test_csv_source(self, tmp_path, boxoffice_small):
        path = tmp_path / "movies.csv"
        write_csv(boxoffice_small, path)
        code, out = run_cli("--csv", str(path),
                            "--where", "gross > 200000000")
        assert code == 0
        assert "characteristic view" in out

    def test_list_datasets(self):
        code, out = run_cli("--list-datasets")
        assert code == 0
        for name in ("boxoffice", "us_crime", "innovation"):
            assert name in out

    def test_bad_predicate_exit_code(self):
        code, out = run_cli("--dataset", "boxoffice", "--seed-rows", "300",
                            "--where", "gross >")
        assert code == 1
        assert "error:" in out

    def test_unknown_column_friendly(self):
        code, out = run_cli("--dataset", "boxoffice", "--seed-rows", "300",
                            "--where", "grosss > 1")
        assert code == 1
        assert "did you mean" in out

    def test_bad_weight_format(self):
        code, out = run_cli("--dataset", "boxoffice", "--seed-rows", "300",
                            "--where", "gross > 1", "--weight", "oops")
        assert code == 1

    def test_missing_query_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["--dataset", "boxoffice"])

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["--where", "x > 1"])
        assert args.where == "x > 1"


class TestServe:
    def test_serve_parser_defaults(self):
        from repro.app.cli import build_serve_parser
        args = build_serve_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.dataset == []

    def test_serve_parser_options(self):
        from repro.app.cli import build_serve_parser
        args = build_serve_parser().parse_args(
            ["--port", "0", "--dataset", "boxoffice", "--seed-rows", "100",
             "--workers", "4", "--quiet"])
        assert args.port == 0
        assert args.dataset == ["boxoffice"]
        assert args.quiet

    def test_frontend_flag_accepts_only_async(self, capsys):
        from repro.app.cli import build_serve_parser
        parser = build_serve_parser()
        assert parser.parse_args([]).frontend == "async"
        assert parser.parse_args(["--frontend", "async"]).frontend == "async"
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["--frontend", "threaded"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_serve_bad_csv_exits_nonzero(self, tmp_path):
        from repro.app.cli import serve_main
        buffer = io.StringIO()
        code = serve_main(["--csv", str(tmp_path / "missing.csv"),
                           "--port", "0"], stream=buffer)
        assert code == 1
        assert "error:" in buffer.getvalue()

    def test_main_dispatches_serve(self, monkeypatch):
        import repro.app.cli as cli
        seen = {}
        monkeypatch.setattr(cli, "serve_main",
                            lambda argv, stream=None:
                            seen.setdefault("argv", argv) and 0 or 0)
        assert cli.main(["serve", "--port", "0"]) == 0
        assert seen["argv"] == ["--port", "0"]
