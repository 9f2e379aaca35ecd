"""Tests for the session and the JSON API layer."""

import json

import pytest

from repro.app.api import ZiggyApi, view_to_dict
from repro.app.session import HISTORY_LIMIT, ZiggySession
from repro.errors import ReproError


@pytest.fixture
def session(boxoffice_small):
    s = ZiggySession()
    s.add_table(boxoffice_small)
    return s


class TestSession:
    def test_run_and_panels(self, session):
        result = session.run("gross > 200000000")
        assert result.views
        listing = session.view_list()
        assert "gross > 200000000" in listing
        detail = session.view_detail(1)
        assert "View 1" in detail

    def test_single_table_resolution(self, session):
        session.run("budget > 50000000")
        assert session.current.table_name == "boxoffice"

    def test_multi_table_needs_name(self, session, crime_small):
        session.add_table(crime_small)
        with pytest.raises(ReproError):
            session.run("budget > 1")
        session.run("violent_crime_rate > 0.2", table="us_crime")
        assert session.current.table_name == "us_crime"

    def test_history_accumulates(self, session):
        session.run("gross > 100000000")
        session.run("gross > 300000000")
        assert len(session.history) == 2

    def test_history_keeps_the_last_limit_entries(self, session):
        wheres = [f"critic_score > {45 + i / 4}"
                  for i in range(HISTORY_LIMIT + 2)]
        for where in wheres:
            session.run(where)
        assert [e.query_text for e in session.history] == \
            wheres[-HISTORY_LIMIT:]
        assert session.current.query_text == wheres[-1]

    def test_no_query_yet_raises(self, session):
        with pytest.raises(ReproError):
            session.view_list()

    def test_view_rank_bounds(self, session):
        session.run("gross > 200000000")
        with pytest.raises(ReproError):
            session.view(0)
        with pytest.raises(ReproError):
            session.view(99)

    def test_run_sql(self, session):
        result = session.run_sql(
            "SELECT budget FROM boxoffice WHERE gross > 200000000")
        assert result.n_inside > 0

    def test_set_weights_changes_ranking_inputs(self, session):
        session.set_weights(spread_shift=0.0)
        session.run("gross > 200000000")
        comps = [c.component for v in session.current.result.views
                 for c in v.components if c.weight > 0]
        assert "spread_shift" not in comps

    def test_set_option_validated(self, session):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            session.set_option(alpha=5.0)
        session.set_option(max_views=2)
        session.run("gross > 200000000")
        assert len(session.current.result.views) <= 2

    def test_dendrogram_text(self, session):
        session.run("gross > 200000000")
        assert "d=" in session.dendrogram()

    def test_explanations_list(self, session):
        session.run("gross > 200000000")
        texts = session.explanations()
        assert texts
        assert all("your selection" in t for t in texts)


class TestApi:
    @pytest.fixture
    def api(self, session):
        return ZiggyApi(session)

    def test_list_tables(self, api):
        response = api.handle({"action": "list_tables"})
        assert response["ok"]
        assert response["tables"][0]["name"] == "boxoffice"
        assert response["tables"][0]["columns"] == 12

    def test_query_roundtrip_json(self, api):
        response = api.handle({"action": "query",
                               "where": "gross > 200000000"})
        assert response["ok"]
        assert response["n_views"] == len(response["views"])
        # Must be JSON-serializable end to end.
        encoded = json.dumps(response)
        assert "explanation" in encoded

    def test_view_detail(self, api):
        api.handle({"action": "query", "where": "gross > 200000000"})
        response = api.handle({"action": "view_detail", "rank": 1})
        assert response["ok"]
        assert "View 1" in response["panel"]

    def test_dendrogram(self, api):
        api.handle({"action": "query", "where": "gross > 200000000"})
        response = api.handle({"action": "dendrogram"})
        assert response["ok"]

    def test_set_weights(self, api):
        response = api.handle({"action": "set_weights",
                               "weights": {"mean_shift": 2.0}})
        assert response["ok"]
        assert response["weights"]["mean_shift"] == 2.0

    def test_unknown_action_lists_available(self, api):
        response = api.handle({"action": "explode"})
        assert not response["ok"]
        assert "query" in response["available"]

    def test_user_error_never_raises(self, api):
        response = api.handle({"action": "query", "where": "no_such > 1"})
        assert not response["ok"]
        assert "error" in response

    def test_syntax_error_reported(self, api):
        response = api.handle({"action": "query", "where": "gross >"})
        assert not response["ok"]

    def test_view_detail_before_query(self, api):
        response = api.handle({"action": "view_detail", "rank": 1})
        assert not response["ok"]

    def test_view_to_dict_sanitizes_nonfinite(self):
        from repro.core.views import View, ViewResult
        vr = ViewResult(view=View(columns=("a",)), score=float("inf"),
                        tightness=1.0, components=())
        assert view_to_dict(vr, 1)["score"] is None

    def test_nonfinite_nested_in_detail_sanitized(self):
        # Regression: inf/nan nested inside ComponentScore.detail lists
        # used to leak into the response and break json.dumps consumers.
        from repro.core.views import ComponentScore, View, ViewResult
        score = ComponentScore(
            component="corr_shift", columns=("a", "b"), raw=0.1,
            normalized=0.1, weight=1.0, test=None, direction="different",
            detail={"coeffs": (float("inf"), 0.5),
                    "nested": {"vals": [float("nan")]}})
        vr = ViewResult(view=View(columns=("a", "b")), score=1.0,
                        tightness=1.0, components=(score,))
        encoded = json.dumps(view_to_dict(vr, 1))
        assert "Infinity" not in encoded and "NaN" not in encoded
        detail = view_to_dict(vr, 1)["components"][0]["detail"]
        assert detail["coeffs"] == [None, 0.5]
        assert detail["nested"]["vals"] == [None]

    def test_views_before_query_structured_error(self, api):
        response = api.handle({"action": "views"})
        assert response["ok"] is False
        assert response["code"] == "no_active_query"

    def test_error_responses_carry_codes(self, api):
        assert api.handle({"action": "query",
                           "where": "gross >"})["code"] == "syntax_error"
        assert api.handle({"action": "query",
                           "where": "no_such > 1"})["code"] == \
            "unknown_column"
        assert api.handle({"action": "explode"})["code"] == "unknown_action"


class TestDemoScript:
    def test_transcript_covers_three_datasets(self):
        from repro.app.demo import run_demo_script
        transcript = run_demo_script(small=True, max_views_shown=2)
        for name in ("boxoffice", "us_crime", "innovation"):
            assert name in transcript
        assert "USE CASE" in transcript
        assert "query>" in transcript
