"""End-to-end integration scenarios across all layers."""

import io

import numpy as np
import pytest

from repro import (
    Database,
    Ziggy,
    ZiggyConfig,
    load_dataset,
    read_csv,
    selection_from_mask,
    write_csv,
)
from repro.app.session import ZiggySession


class TestCsvToViewsRoundtrip:
    """A user's own CSV flows through the identical pipeline."""

    def test_csv_file_characterization(self, tmp_path, rng):
        n = 800
        driver = rng.normal(size=n)
        factor = rng.normal(size=n)
        shift = np.where(driver > 1, 2.0, 0.0)
        from repro.engine.table import Table
        original = Table.from_dict({
            "driver": driver,
            "a": factor + shift + rng.normal(scale=0.3, size=n),
            "b": factor + shift + rng.normal(scale=0.3, size=n),
            "label": [("x", "y")[int(v > 0)] for v in rng.normal(size=n)],
            "noise": rng.normal(size=n),
        }, name="user_data")
        path = tmp_path / "user_data.csv"
        write_csv(original, path)

        table = read_csv(path)
        result = Ziggy(table).characterize("driver > 1")
        assert result.views
        assert set(result.views[0].columns) <= {"a", "b"}

    def test_csv_stream_with_messy_values(self):
        text = ("id,price,city,stock\n"
                "1,10.5,ams,true\n"
                "2,NA,utr,false\n"
                "3,30.0,ams,true\n"
                "4,12.0,?,\n") + "\n".join(
            f"{i},{10 + i % 7},{'ams' if i % 2 else 'utr'},true"
            for i in range(5, 60)) + "\n"
        table = read_csv(io.StringIO(text), name="shop")
        db = Database()
        db.register(table)
        sel = db.select("shop", "price > 12 AND city = 'ams'")
        assert sel.n_inside > 0
        assert sel.n_inside + sel.n_outside == table.n_rows


class TestMaskSelections:
    """Front-ends that brush rows interactively skip the query language."""

    def test_characterize_brushed_rows(self, crime_small):
        values = crime_small.column("violent_crime_rate").numeric_values()
        mask = values > np.nanquantile(values, 0.9)
        selection = selection_from_mask(crime_small, mask, label="brush")
        result = Ziggy(crime_small).characterize_selection(selection)
        assert result.views
        # Predicate columns cannot be excluded (there is no predicate),
        # so the crime columns themselves may appear — that is correct.
        assert result.predicate == "TRUE"


class TestStrategyAgreement:
    """Linkage and clique searches must agree on obvious structure."""

    def test_same_top_story(self, rng):
        from repro.engine.table import Table
        n = 1500
        driver = rng.normal(size=n)
        f = rng.normal(size=n)
        shift = np.where(driver > 1, 2.5, 0.0)
        table = Table.from_dict({
            "driver": driver,
            "planted_a": f + shift + rng.normal(scale=0.2, size=n),
            "planted_b": f + shift + rng.normal(scale=0.2, size=n),
            **{f"noise_{j}": rng.normal(size=n) for j in range(6)},
        }, name="agree")
        linkage = Ziggy(table, config=ZiggyConfig(
            search_strategy="linkage")).characterize("driver > 1")
        clique = Ziggy(table, config=ZiggyConfig(
            search_strategy="clique")).characterize("driver > 1")
        assert set(linkage.views[0].columns) == set(clique.views[0].columns)


class TestNmiDependencyPath:
    def test_nonlinear_pair_groups_only_under_nmi(self, rng):
        from repro.engine.table import Table
        n = 3000
        driver = rng.normal(size=n)
        x = rng.normal(size=n)
        parabola = x ** 2 + rng.normal(scale=0.1, size=n)
        table = Table.from_dict({
            "driver": driver,
            "x": x + np.where(driver > 1, 1.5, 0.0),
            "parabola": parabola + np.where(driver > 1, 1.5, 0.0),
            "noise": rng.normal(size=n),
        }, name="nonlinear")
        pearson_cfg = ZiggyConfig(dependency_method="pearson",
                                  min_tightness=0.3)
        nmi_cfg = ZiggyConfig(dependency_method="nmi", min_tightness=0.3)
        r_p = Ziggy(table, config=pearson_cfg).characterize("driver > 1")
        r_n = Ziggy(table, config=nmi_cfg).characterize("driver > 1")
        paired_under = {
            "pearson": any(set(v.columns) == {"parabola", "x"}
                           for v in r_p.views),
            "nmi": any(set(v.columns) == {"parabola", "x"}
                       for v in r_n.views),
        }
        assert not paired_under["pearson"]
        assert paired_under["nmi"]


class TestMultiDatasetSession:
    def test_session_switches_tables_with_isolated_engines(self):
        session = ZiggySession()
        session.add_table(load_dataset("boxoffice", n_rows=300))
        session.add_table(load_dataset("us_crime", n_rows=400))
        r1 = session.run("gross > 200000000", table="boxoffice")
        r2 = session.run("violent_crime_rate > 0.2", table="us_crime")
        assert r1.views and r2.views
        assert session.history[0].table_name == "boxoffice"
        assert session.history[1].table_name == "us_crime"
        # Each engine keeps its own cache; re-running boxoffice hits it.
        engine = session.engine_for("boxoffice")
        misses = engine.cache_counters().misses
        session.run("gross > 200000000", table="boxoffice")
        assert engine.cache_counters().misses == misses


class TestSqlFacadeParity:
    def test_sql_and_predicate_paths_agree(self, boxoffice_small):
        z = Ziggy(boxoffice_small)
        via_pred = z.characterize("gross > 200000000")
        via_sql = z.characterize_query(
            "SELECT budget, gross FROM boxoffice WHERE gross > 200000000 "
            "ORDER BY gross DESC LIMIT 3")
        assert [v.columns for v in via_pred.views] == \
               [v.columns for v in via_sql.views]

    def test_aggregate_exploration_then_characterize(self, boxoffice_small):
        """The full explorer loop: summarize first, then drill in."""
        db = Database()
        db.register(boxoffice_small)
        summary = db.query(
            "SELECT genre, count(*), avg(gross) FROM boxoffice "
            "GROUP BY genre ORDER BY genre")
        assert summary.n_rows >= 4
        # Pick a genre and ask why it is special.
        z = Ziggy(db)
        result = z.characterize("genre = 'documentary'", table="boxoffice")
        directions = {c.columns[0]: c.direction
                      for v in result.views for c in v.components
                      if c.component == "mean_shift"}
        if "budget" in directions:
            assert directions["budget"] == "lower"


class TestErrorSurface:
    def test_friendly_errors_end_to_end(self, boxoffice_small):
        z = Ziggy(boxoffice_small)
        from repro.errors import (
            EmptySelectionError,
            QuerySyntaxError,
            UnknownColumnError,
        )
        with pytest.raises(QuerySyntaxError):
            z.characterize("gross >")
        with pytest.raises(UnknownColumnError):
            z.characterize("gros > 1")
        with pytest.raises(EmptySelectionError):
            z.characterize("gross > 1e18")
