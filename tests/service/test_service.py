"""Tests for ZiggyService: sessions, batches, jobs, progressive results.

Includes the acceptance-criteria checks of the service redesign:
batch cache reuse, mid-search cancellation, and v1-adapter equivalence.
"""

import threading

import pytest

from repro.app.api import ZiggyApi
from repro.app.session import HISTORY_LIMIT
from repro.errors import JobNotFoundError, NoActiveQueryError, ReproError
from repro.service import (
    BatchRequest,
    CharacterizeRequest,
    CharacterizeResponse,
    ConfigureRequest,
    JobSubmitRequest,
    ViewPageRequest,
    ZiggyService,
)

PREDICATES_10 = [f"gross > {g}"
                 for g in range(100_000_000, 300_000_000, 20_000_000)]


@pytest.fixture
def service(boxoffice_small):
    # An isolated runtime per test: these tests assert per-service cache
    # deltas, which the process-wide shared runtime would (by design)
    # blur across tests.  Cross-client sharing through one runtime is
    # covered by tests/service/test_shared_runtime.py.
    from repro.runtime import ZiggyRuntime

    s = ZiggyService(max_workers=2, runtime=ZiggyRuntime())
    s.register_table(boxoffice_small)
    yield s
    s.shutdown(wait=False)


class TestCharacterize:
    def test_sync_roundtrip(self, service):
        response = service.characterize(
            CharacterizeRequest(where="gross > 200000000"))
        assert isinstance(response, CharacterizeResponse)
        assert response.table == "boxoffice"
        assert response.n_views == len(response.views.items)
        assert response.views.items[0]["explanation"]

    def test_pagination_applies(self, service):
        response = service.characterize(
            CharacterizeRequest(where="gross > 200000000", page_size=2))
        assert len(response.views.items) <= 2
        assert response.n_views >= len(response.views.items)

    def test_sessions_are_isolated_per_client(self, service):
        service.characterize(CharacterizeRequest(where="gross > 200000000",
                                                 client_id="alice"))
        page = service.view_page(ViewPageRequest(client_id="alice"))
        assert page.total > 0
        with pytest.raises(NoActiveQueryError):
            service.view_page(ViewPageRequest(client_id="bob"))

    def test_per_request_options(self, service):
        response = service.characterize(CharacterizeRequest(
            where="gross > 200000000", client_id="opt",
            options={"max_views": 2}))
        assert response.n_views <= 2

    def test_configure_weights(self, service):
        result = service.configure(ConfigureRequest(
            client_id="cfg", weights={"mean_shift": 2.0},
            options={"max_views": 3}))
        assert result.weights["mean_shift"] == 2.0
        assert result.applied == ("max_views",)

    def test_progressive_views_stream_before_result(self, service):
        events = []
        service.characterize(
            CharacterizeRequest(where="gross > 200000000", client_id="prog"),
            progress=lambda event: events.append(event.kind))
        assert "prepared" in events
        assert events.count("view-ranked") >= 1
        # every view event precedes the final result event
        assert events.index("view-ranked") < events.index("result")

    def test_dispatch_returns_error_dict_not_raise(self, service):
        response = service.dispatch({"type": "characterize",
                                     "where": "gross >"})
        assert response["ok"] is False
        assert response["error"]["code"] == "syntax_error"

    def test_dispatch_unknown_type(self, service):
        response = service.dispatch({"type": "teleport"})
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"

    def test_row_sampling_option_is_rejected(self, service):
        # A client-set row sample kept one sampled table per predicate;
        # a client-set seed was read by no estimator.
        for options in ({"sample_rows": 4000}, {"random_seed": 3}):
            response = service.dispatch({
                "type": "characterize", "where": "gross > 200000000",
                "options": options})
            assert response["ok"] is False, options
            assert response["error"]["code"] == "bad_request", options


class TestBatch:
    def test_batch_runs_every_predicate(self, service):
        batch = service.characterize_many(
            BatchRequest(predicates=tuple(PREDICATES_10)))
        assert len(batch.results) == 10
        assert all(r.predicate for r in batch.results)
        assert batch.total_time_ms > 0

    def test_batch_cache_reuse_beats_cold_queries(self, boxoffice_small):
        """Acceptance: a 10-predicate batch must hit the shared cache far
        more than 10 independent cold single queries would imply."""
        # Isolated runtimes: the measurement needs genuinely cold caches,
        # which the process-wide shared runtime would (correctly) defeat.
        from repro.runtime import ZiggyRuntime

        # one cold single query, as the baseline
        single = ZiggyService(runtime=ZiggyRuntime())
        single.register_table(boxoffice_small)
        single.characterize(CharacterizeRequest(where=PREDICATES_10[0]))
        counters = (single.session("default").engine_for("boxoffice")
                    .cache.counters)
        single_hits, single_misses = counters.hits, counters.misses
        single.shutdown(wait=False)

        batched = ZiggyService(runtime=ZiggyRuntime())
        batched.register_table(boxoffice_small)
        batch = batched.characterize_many(
            BatchRequest(predicates=tuple(PREDICATES_10)))
        batched.shutdown(wait=False)

        # Strictly more hits than ten cold runs would accumulate...
        assert batch.cache_hits > 10 * single_hits
        # ...because table-level work is shared instead of recomputed.
        assert batch.cache_misses < 10 * single_misses

    def test_batch_counters_are_per_batch_not_cumulative(self, service):
        # Regression: counters must be the batch's delta, not the
        # engine-lifetime totals.
        predicates = ("gross > 150000000", "gross > 250000000")
        first = service.characterize_many(
            BatchRequest(predicates=predicates, client_id="delta"))
        second = service.characterize_many(
            BatchRequest(predicates=predicates, client_id="delta"))
        counters = (service.session("delta").engine_for("boxoffice")
                    .cache.counters)
        assert first.cache_hits + second.cache_hits == counters.hits
        assert first.cache_misses + second.cache_misses == counters.misses
        assert second.cache_misses == 0  # identical predicates: all hits

    def test_batch_history_is_queryable(self, service):
        service.characterize_many(BatchRequest(
            predicates=("gross > 150000000", "gross > 250000000"),
            client_id="hist"))
        page = service.view_page(ViewPageRequest(client_id="hist"))
        assert page.total >= 0  # latest batch entry is current
        assert len(service.session("hist").history) == 2

    def test_batch_items_span_tables_in_submission_order(self, service,
                                                         crime_small):
        service.register_table(crime_small)
        batch = service.characterize_many(BatchRequest(items=(
            ("boxoffice", "gross > 150000000"),
            ("us_crime", "violent_crime_rate > 0.2"),
            ("boxoffice", "gross > 250000000"),
        ), client_id="multi"))
        assert [r.table for r in batch.results] == \
            ["boxoffice", "us_crime", "boxoffice"]
        history = service.session("multi").history
        assert [entry.table_name for entry in history] == \
            ["boxoffice", "us_crime", "boxoffice"]

    def test_same_content_under_two_names_keeps_history_honest(
            self, boxoffice_small):
        """Regression: two catalog names for identical content (equal
        fingerprints) must not merge into one batch group — responses
        and session history report the name the caller used."""
        from repro.runtime import ZiggyRuntime

        svc = ZiggyService(runtime=ZiggyRuntime())
        svc.register_table(boxoffice_small, name="alias_a")
        svc.register_table(boxoffice_small, name="alias_b")
        try:
            batch = svc.characterize_many(BatchRequest(items=(
                ("alias_a", "gross > 150000000"),
                ("alias_b", "gross > 250000000"),
            ), client_id="alias"))
            assert [r.table for r in batch.results] == \
                ["alias_a", "alias_b"]
            history = svc.session("alias").history
            assert [entry.table_name for entry in history] == \
                ["alias_a", "alias_b"]
        finally:
            svc.shutdown(wait=False)


class TestHistoryCap:
    @pytest.mark.parametrize("backend", ("inline", "thread", "process"))
    def test_over_cap_batch_keeps_last_items_in_submission_order(
            self, boxoffice_small, backend):
        """Two names for one table make two batch groups; an odd count
        of alternating items puts the last item in the first group, so
        execution order ends on a different item than submission."""
        from repro.runtime import ZiggyRuntime

        svc = ZiggyService(max_workers=1, runtime=ZiggyRuntime(),
                           executor=backend)
        svc.register_table(boxoffice_small, name="alias_a")
        svc.register_table(boxoffice_small, name="alias_b")
        items = tuple((("alias_a", "alias_b")[i % 2],
                       f"critic_score > {45 + i / 4}")
                      for i in range(HISTORY_LIMIT + 7))
        try:
            svc.characterize_many(BatchRequest(items=items,
                                               client_id="capped"))
            session = svc.session("capped")
            assert len(session.history) == HISTORY_LIMIT
            assert [(e.table_name, e.query_text)
                    for e in session.history] == \
                list(items[-HISTORY_LIMIT:])
            assert session.current.query_text == items[-1][1]
        finally:
            svc.shutdown(wait=False)


class TestJobs:
    def test_submit_poll_result(self, service):
        # The job's first event waits until the returned status has been
        # checked, so a fast job cannot be done by then.
        checked = threading.Event()
        snapshot = service.submit(JobSubmitRequest(
            request=CharacterizeRequest(where="gross > 200000000",
                                        client_id="jobs")),
            on_progress=lambda _event: checked.wait(30))
        try:
            assert snapshot.status in ("pending", "running")
        finally:
            checked.set()
        final = service.wait(snapshot.job_id, timeout=30)
        assert final.status == "done"
        assert final.result is not None
        assert final.result.n_views == len(final.result.views.items)
        assert final.timings_ms["run"] > 0

    def test_partial_views_streamed(self, service):
        snapshot = service.submit(CharacterizeRequest(
            where="gross > 200000000", client_id="partial"))
        final = service.wait(snapshot.job_id, timeout=30)
        assert final.status == "done"
        # the searcher keeps at least as many views as survive validation
        assert len(final.partial_views) >= final.result.n_views
        assert all("columns" in v for v in final.partial_views)

    def test_failed_job_reports_structured_error(self, service):
        snapshot = service.submit(CharacterizeRequest(
            where="no_such_column > 1", client_id="fail"))
        final = service.wait(snapshot.job_id, timeout=30)
        assert final.status == "failed"
        assert final.error is not None
        assert final.error.code == "unknown_column"

    def test_poll_and_cancel_mid_search(self, service):
        """Acceptance: a job can be polled and cancelled mid-search."""
        started = threading.Event()
        release = threading.Event()

        def on_progress(event):
            started.set()
            release.wait(timeout=10)

        snapshot = service.submit(
            CharacterizeRequest(where="gross > 200000000",
                                client_id="cancel"),
            on_progress=on_progress)
        assert started.wait(timeout=10)

        polled = service.job_status(snapshot.job_id)   # poll mid-search
        assert polled.status == "running"

        service.cancel(snapshot.job_id)                # cancel mid-search
        release.set()
        final = service.wait(snapshot.job_id, timeout=30)
        assert final.status == "cancelled"
        assert final.result is None

    def test_unknown_job(self, service):
        with pytest.raises(JobNotFoundError):
            service.job_status("job-424242")


class TestV1Adapter:
    """Every legacy action must keep its exact success-response shape."""

    @pytest.fixture
    def api(self, service):
        return ZiggyApi(service=service)

    def test_list_tables_shape(self, api):
        response = api.handle({"action": "list_tables"})
        assert response["ok"]
        assert set(response["tables"][0]) == {"name", "rows", "columns",
                                              "column_names"}

    def test_query_shape(self, api):
        response = api.handle({"action": "query",
                               "where": "gross > 200000000"})
        assert response["ok"]
        assert set(response) == {"ok", "predicate", "n_inside", "n_outside",
                                 "n_views", "timings_ms", "views", "notes"}
        assert response["n_views"] == len(response["views"])
        view = response["views"][0]
        assert set(view) == {"rank", "columns", "score", "tightness",
                             "p_value", "significant", "explanation",
                             "components"}
        component = view["components"][0]
        assert set(component) == {"component", "columns", "raw",
                                  "normalized", "weight", "direction",
                                  "p_value", "detail"}

    def test_views_shape(self, api):
        api.handle({"action": "query", "where": "gross > 200000000"})
        response = api.handle({"action": "views"})
        assert response["ok"]
        assert set(response) == {"ok", "views"}

    def test_view_detail_shape(self, api):
        api.handle({"action": "query", "where": "gross > 200000000"})
        response = api.handle({"action": "view_detail", "rank": 1})
        assert response["ok"]
        assert set(response) == {"ok", "rank", "panel"}
        assert "View 1" in response["panel"]

    def test_dendrogram_shape(self, api):
        api.handle({"action": "query", "where": "gross > 200000000"})
        response = api.handle({"action": "dendrogram"})
        assert response["ok"]
        assert set(response) == {"ok", "dendrogram"}

    def test_set_weights_shape(self, api):
        response = api.handle({"action": "set_weights",
                               "weights": {"mean_shift": 2.0}})
        assert response["ok"]
        assert set(response) == {"ok", "weights"}
        assert response["weights"]["mean_shift"] == 2.0

    def test_set_option_shape(self, api):
        response = api.handle({"action": "set_option",
                               "options": {"max_views": 2}})
        assert response["ok"]
        assert set(response) == {"ok", "applied"}

    def test_views_before_query_is_structured_error(self, api):
        response = api.handle({"action": "views"})
        assert response["ok"] is False
        assert response["code"] == "no_active_query"
        assert "no active query" in response["error"]

    def test_view_detail_before_query_is_structured_error(self, api):
        response = api.handle({"action": "view_detail", "rank": 1})
        assert response["ok"] is False
        assert response["code"] == "no_active_query"

    def test_v1_and_v2_see_the_same_catalog(self, api, service):
        v1_names = {t["name"] for t in
                    api.handle({"action": "list_tables"})["tables"]}
        v2_names = {t.name for t in service.list_tables().tables}
        assert v1_names == v2_names

    def test_v1_query_equivalent_to_v2(self, api, service):
        v1 = api.handle({"action": "query", "where": "gross > 200000000"})
        v2 = service.characterize(CharacterizeRequest(
            where="gross > 200000000", client_id="equiv")).to_dict()
        assert v1["predicate"] == v2["predicate"]
        assert v1["n_inside"] == v2["n_inside"]
        assert v1["n_views"] == v2["n_views"]
        # identical view payloads (modulo the protocol envelope)
        assert v1["views"] == v2["views"]["items"]

    def test_standalone_api_still_works(self, boxoffice_small):
        from repro.app.session import ZiggySession
        session = ZiggySession()
        session.add_table(boxoffice_small)
        api = ZiggyApi(session)
        response = api.handle({"action": "query",
                               "where": "gross > 200000000"})
        assert response["ok"]


class TestSessionProgress:
    def test_run_many_shares_one_engine(self, boxoffice_small):
        from repro.app.session import ZiggySession
        session = ZiggySession()
        session.add_table(boxoffice_small)
        events = []
        results = session.run_many(
            ("gross > 150000000", "gross > 250000000"),
            emit=lambda event: events.append(event.kind))
        assert len(results) == 2
        assert events.count("batch-item") == 2
        assert len(session._engines) == 1

    def test_ziggy_characterize_many(self, boxoffice_small):
        from repro import Ziggy
        ziggy = Ziggy(boxoffice_small)
        results = ziggy.characterize_many(
            ["gross > 150000000", "gross > 250000000"])
        assert len(results) == 2
        counters = ziggy.cache_counters()
        assert counters.hits > 0  # second query reused shared statistics
