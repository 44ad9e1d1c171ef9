"""Tests for the :class:`~repro.service.service.SearchService` façade.

Covers the tentpole behaviours of the service-layer redesign: per-request
semantics over one shared corpus, stable cursor pagination with
corpus-version invalidation, batch execution, the semantics table, and
the cache-statistics accessors.
"""

import base64
import json
import time

import pytest

from repro.errors import (
    ComparisonError,
    DFSConstructionError,
    InvalidCursorError,
    SearchError,
    ServiceError,
)
from repro.search.engine import SearchEngine
from repro.search.semantics import available_semantics, get_registration
from repro.service import service as service_module
from repro.service.cursor import Cursor, decode_cursor, encode_cursor
from repro.service.protocol import CompareRequest, SearchRequest
from repro.service.service import SearchService


@pytest.fixture
def service(small_product_corpus):
    return SearchService(small_product_corpus, default_page_size=3)


class TestPagination:
    def test_first_page(self, service):
        response = service.search(SearchRequest(query="gps", page_size=2))
        assert response.offset == 0
        assert len(response.items) == 2
        assert response.total > 2
        assert response.next_cursor is not None
        assert [item.result_id for item in response.items] == ["R1", "R2"]

    def test_cursor_walk_covers_all_results_without_re_evaluation(self, service):
        engine = service.engine_for("slca")
        seen = []
        response = service.search(SearchRequest(query="gps", page_size=2))
        while True:
            seen.extend(item.result_id for item in response.items)
            if response.next_cursor is None:
                break
            # Follow-up requests carry only the cursor, like a real client.
            response = service.search(SearchRequest(cursor=response.next_cursor))
        assert seen == [f"R{rank}" for rank in range(1, response.total + 1)]
        stats = engine.cache_stats()
        assert stats["misses"] == 1  # one evaluation for the whole walk
        assert stats["hits"] == len(seen) // 2 + (1 if len(seen) % 2 else 0) - 1

    def test_page_results_match_rich_api(self, service):
        response = service.search(SearchRequest(query="gps", page_size=2, cursor=None))
        rich = service.search_results("gps")
        assert [item.result_id for item in response.items] == [
            result.result_id for result in rich.top(2)
        ]
        assert [item.doc_id for item in response.items] == [
            result.doc_id for result in rich.top(2)
        ]
        assert response.items[0].title == rich[0].title
        assert response.items[0].score == pytest.approx(rich[0].score)

    def test_items_are_plain_data(self, service):
        response = service.search(SearchRequest(query="gps", page_size=1))
        item = response.items[0]
        assert isinstance(item.subtree_xml, str) and item.subtree_xml.startswith("<")
        assert isinstance(item.match_label, str)
        assert isinstance(item.return_label, str)

    def test_last_page_has_no_cursor(self, service):
        response = service.search(SearchRequest(query="gps", page_size=1000))
        assert response.next_cursor is None
        assert len(response.items) == response.total

    def test_cursor_pins_semantics(self, service):
        response = service.search(SearchRequest(query="gps", semantics="elca", page_size=1))
        follow_up = service.search(SearchRequest(cursor=response.next_cursor))
        assert follow_up.semantics == "elca"
        assert follow_up.offset == 1

    def test_cursor_with_conflicting_semantics_rejected(self, service):
        response = service.search(SearchRequest(query="gps", semantics="elca", page_size=1))
        with pytest.raises(InvalidCursorError, match="issued under semantics"):
            service.search(SearchRequest(semantics="slca", cursor=response.next_cursor))
        # Restating the cursor's own semantics is fine.
        follow_up = service.search(
            SearchRequest(semantics="elca", cursor=response.next_cursor)
        )
        assert follow_up.offset == 1

    def test_stale_cursor_rejected_after_mutation(self, small_product_corpus):
        service = SearchService(small_product_corpus, default_page_size=2)
        response = service.search(SearchRequest(query="gps"))
        assert response.next_cursor is not None
        doc_id = response.items[0].doc_id
        document = small_product_corpus.store.get(doc_id)
        small_product_corpus.remove_document(doc_id)
        try:
            with pytest.raises(InvalidCursorError, match="stale cursor"):
                service.search(SearchRequest(cursor=response.next_cursor))
        finally:
            small_product_corpus.add_document(doc_id, document.root)

    def test_mutation_during_cursor_fetch_rejected(
        self, small_product_corpus, monkeypatch
    ):
        # TOCTOU guard: a mutation that lands between the cursor staleness
        # check and evaluation must not let a pre-mutation offset slice a
        # post-mutation ranked list.
        service = SearchService(small_product_corpus, default_page_size=1)
        first = service.search(SearchRequest(query="gps", page_size=1))
        original = SearchEngine.search_page

        def mutating_search_page(engine, query, offset, count):
            result = original(engine, query, offset, count)
            small_product_corpus.version += 1  # simulated concurrent mutation
            return result

        monkeypatch.setattr(SearchEngine, "search_page", mutating_search_page)
        try:
            with pytest.raises(InvalidCursorError, match="mutated during pagination"):
                service.search(SearchRequest(cursor=first.next_cursor))
        finally:
            small_product_corpus.version -= 1  # restore the session fixture

    def test_undecodable_cursor_rejected(self, service):
        with pytest.raises(InvalidCursorError):
            service.search(SearchRequest(cursor="not-a-cursor"))

    def test_cursor_for_different_query_rejected(self, service):
        response = service.search(SearchRequest(query="gps", page_size=1))
        with pytest.raises(InvalidCursorError, match="does not belong"):
            service.search(SearchRequest(query="camera", cursor=response.next_cursor))

    def test_cursor_with_same_query_accepted(self, service):
        response = service.search(SearchRequest(query="gps", page_size=1))
        follow_up = service.search(
            SearchRequest(query="gps", cursor=response.next_cursor)
        )
        assert follow_up.offset == 1

    def test_cursor_pins_page_size(self, service):
        # A cursor-only continuation keeps the walk's page boundaries; it
        # must not silently revert to the service default (3 here).
        first = service.search(SearchRequest(query="gps", page_size=1))
        follow_up = service.search(SearchRequest(cursor=first.next_cursor))
        assert len(follow_up.items) == 1
        # An explicit page_size on the follow-up deliberately re-sizes.
        resized = service.search(
            SearchRequest(cursor=first.next_cursor, page_size=2)
        )
        assert len(resized.items) == 2

    def test_pagination_clones_only_the_page(self, small_product_corpus, monkeypatch):
        # A page request must pay subtree copies proportional to the page,
        # not to the full ranked list (the whole point of cursor pagination).
        service = SearchService(small_product_corpus, default_page_size=1)
        clones = []
        original = SearchEngine._clone_result

        def counting_clone(result):
            clones.append(result)
            return original(result)

        monkeypatch.setattr(SearchEngine, "_clone_result", staticmethod(counting_clone))
        first = service.search(SearchRequest(query="gps", page_size=1))
        assert first.total > 1
        assert len(clones) == 1
        service.search(SearchRequest(cursor=first.next_cursor))  # page 2, size 1
        assert len(clones) == 2

    def test_engine_search_page(self, small_product_corpus):
        engine = SearchEngine(small_product_corpus)
        full = engine.search("gps")
        total, page = engine.search_page("gps", offset=1, count=2)
        assert total == len(full)
        assert [result.result_id for result in page] == ["R2", "R3"]
        assert [result.doc_id for result in page] == [
            result.doc_id for result in full.results[1:3]
        ]
        with pytest.raises(SearchError):
            engine.search_page("gps", offset=-1, count=1)
        with pytest.raises(SearchError):
            engine.search_page("gps", offset=0, count=-1)

    def test_page_size_validation(self, service):
        with pytest.raises(ServiceError, match="page_size must be positive"):
            service.search(SearchRequest(query="gps", page_size=0))

    def test_page_size_clamped_to_max(self, small_product_corpus, monkeypatch):
        monkeypatch.setattr(service_module, "DEFAULT_MAX_PAGE_SIZE", 2)
        service = SearchService(small_product_corpus, default_page_size=1)
        response = service.search(SearchRequest(query="gps", page_size=50))
        assert len(response.items) == 2

    def test_bad_service_page_configuration_rejected(self, small_product_corpus):
        with pytest.raises(ServiceError):
            SearchService(small_product_corpus, default_page_size=0)


class TestCursorCodec:
    def test_round_trip(self):
        cursor = Cursor(
            keywords=("gps", "tomtom"),
            semantics="elca",
            offset=4,
            corpus_version=2,
            page_size=2,
        )
        assert decode_cursor(cursor.encode()) == cursor

    def test_token_with_generation_key_continues_the_walk(self, service):
        # Tokens from the earlier wire format also carried a semantics
        # generation under "sg"; a client holding one keeps paginating.
        first = service.search(SearchRequest(query="gps", page_size=2))
        payload = {
            "v": 1, "k": ["gps"], "s": "slca", "o": 2,
            "cv": service.corpus.version, "ps": 2, "sg": 0,
        }
        token = base64.urlsafe_b64encode(
            json.dumps(payload, separators=(",", ":")).encode("utf-8")
        ).decode("ascii")
        continued = service.search(SearchRequest(cursor=token))
        assert continued.offset == 2
        assert continued.to_dict() == service.search(
            SearchRequest(cursor=first.next_cursor)
        ).to_dict()

    def test_encode_helper(self):
        token = encode_cursor(("gps",), "slca", 2, 0, page_size=5)
        decoded = decode_cursor(token)
        assert decoded.keywords == ("gps",)
        assert decoded.offset == 2
        assert decoded.page_size == 5

    @pytest.mark.parametrize(
        "token",
        [
            "",
            "!!!",
            "bm90LWpzb24=",  # base64("not-json")
            "eyJ2IjoyfQ==",  # wrong cursor version
            "eyJ2IjoxfQ==",  # missing fields
        ],
    )
    def test_garbage_rejected(self, token):
        with pytest.raises(InvalidCursorError):
            decode_cursor(token)


class TestPerRequestSemantics:
    def test_one_engine_per_semantics(self, service):
        slca = service.engine_for("slca")
        elca = service.engine_for("elca")
        assert slca is service.engine_for("slca")
        assert slca is not elca
        assert slca.semantics == "slca" and elca.semantics == "elca"

    def test_unknown_semantics_rejected(self, service):
        with pytest.raises(SearchError, match="unknown result semantics"):
            service.search(SearchRequest(query="gps", semantics="bogus"))

    def test_elca_superset_of_slca(self, service):
        slca = service.search(SearchRequest(query="gps", page_size=100))
        elca = service.search(
            SearchRequest(query="gps", semantics="elca", page_size=100)
        )
        assert elca.total >= slca.total


class TestSemanticsRegistry:
    def test_builtins_always_available(self):
        assert {"slca", "elca"} <= set(available_semantics())
        assert callable(get_registration("slca").fn)

    def test_get_unknown_names_available(self):
        with pytest.raises(SearchError, match="available"):
            get_registration("nope")


class TestBatchExecution:
    def test_search_many_evaluates_distinct_queries_once(
        self, small_product_corpus, monkeypatch
    ):
        service = SearchService(small_product_corpus)
        evaluations = []
        original = SearchEngine._evaluate

        def counting_evaluate(self, query):
            evaluations.append(query.cache_key)
            return original(self, query)

        monkeypatch.setattr(SearchEngine, "_evaluate", counting_evaluate)
        responses = service.search_many(
            [
                SearchRequest(query="gps tomtom"),
                SearchRequest(query="tomtom gps"),  # same normalised query
                SearchRequest(query="gps"),
                SearchRequest(query="gps", semantics="elca"),
            ]
        )
        assert len(responses) == 4
        assert len(evaluations) == 3  # two distinct slca queries + one elca
        assert responses[0].items == responses[1].items
        assert responses[0].total == responses[1].total
        # Every batched request counts as a served search request.
        assert service.stats()["requests"]["search"] == 4

    def test_search_many_matches_individual_searches(self, service):
        batch = service.search_many(
            [SearchRequest(query="gps"), SearchRequest(query="camera")]
        )
        singles = [
            service.search(SearchRequest(query="gps")),
            service.search(SearchRequest(query="camera")),
        ]
        assert batch == singles


class TestCompareProtocol:
    def test_compare_top(self, service):
        response = service.compare(CompareRequest(query="gps", top=2, size_limit=4))
        assert response.dod > 0
        assert len(response.column_ids) == 2
        assert len(response.column_titles) == 2
        assert response.rows
        for row in response.rows:
            assert len(row.cells) == 2
        assert len(response.results) == 2
        assert response.results[0].result_id == response.column_ids[0]

    def test_compare_explicit_ids(self, service):
        search = service.search(SearchRequest(query="gps", page_size=3))
        ids = tuple(item.result_id for item in search.items[:2])
        response = service.compare(CompareRequest(query="gps", result_ids=ids))
        assert response.column_ids == ids

    def test_compare_unknown_id_is_client_error(self, service):
        with pytest.raises(ComparisonError, match="unknown result id"):
            service.compare(CompareRequest(query="gps", result_ids=("R1", "R999")))

    def test_compare_too_few_results(self, service):
        with pytest.raises(ComparisonError):
            service.compare(CompareRequest(query="gps", top=1))

    @pytest.mark.parametrize(
        "selection, error, message",
        [
            ({"top": -1}, SearchError, "top() count must be non-negative, got -1"),
            ({"top": 0}, ComparisonError, "select at least two results to compare"),
            ({"top": 1}, ComparisonError, "select at least two results to compare"),
            ({"result_ids": ()}, ComparisonError, "select at least two results to compare"),
            (
                {"result_ids": ("R1", "R1")},
                DFSConstructionError,
                "duplicate result ids: ['R1', 'R1']",
            ),
            (
                {"result_ids": ("R01", "R2")},
                ComparisonError,
                "unknown result id: \"no result with id 'R01'\"",
            ),
            (
                {"result_ids": ("R0", "R1")},
                ComparisonError,
                "unknown result id: \"no result with id 'R0'\"",
            ),
            (
                {"result_ids": ("R2", "R999")},
                ComparisonError,
                "unknown result id: \"no result with id 'R999'\"",
            ),
        ],
    )
    def test_compare_rejects_bad_selections(self, service, selection, error, message):
        with pytest.raises(error) as raised:
            service.compare(CompareRequest(query="gps", **selection))
        assert type(raised.value) is error
        assert str(raised.value) == message

    def test_compare_clones_only_its_top(self, small_product_corpus, monkeypatch):
        # "gps" ranks three results; comparing the top two clones two.
        service = SearchService(small_product_corpus)
        clones = []
        original = SearchEngine._clone_result

        def counting_clone(result):
            clones.append(result)
            return original(result)

        monkeypatch.setattr(SearchEngine, "_clone_result", staticmethod(counting_clone))
        response = service.compare(CompareRequest(query="gps", top=2))
        assert response.column_ids == ("R1", "R2")
        assert len(clones) == 2

    def test_size_limit_above_row_count_matches_row_count(self, service):
        # The multi-swap DP is sized by the rows the results have, not by the
        # client's size_limit: 10**6 used to take seconds and allocate
        # size_limit-long tables per entity.
        outcome = service.search_and_compare("gps", top=3)
        rows = max(len(features) for features in outcome.features)
        at_rows = service.compare(CompareRequest(query="gps", top=3, size_limit=rows))
        started = time.perf_counter()
        huge = service.compare(CompareRequest(query="gps", top=3, size_limit=10**6))
        assert time.perf_counter() - started < 2.0
        assert huge.to_dict() == at_rows.to_dict()


class TestIntrospection:
    def test_health(self, service, small_product_corpus):
        health = service.health()
        assert health["status"] == "ok"
        assert health["documents"] == len(small_product_corpus.store)

    def test_stats_shape_and_counters(self, small_product_corpus):
        service = SearchService(small_product_corpus)
        service.search(SearchRequest(query="gps"))
        service.search(SearchRequest(query="gps"))
        service.search(SearchRequest(query="gps", semantics="elca"))
        service.compare(CompareRequest(query="gps", top=2))
        stats = service.stats()
        # Counters mean requests served: compare's internal search stage and
        # batch memo fills do not inflate the search count.
        assert stats["requests"]["search"] == 3
        assert stats["requests"]["compare"] == 1
        assert set(stats["engines"]) == {"slca", "elca"}
        slca_stats = stats["engines"]["slca"]
        assert slca_stats["hits"] >= 1 and slca_stats["misses"] >= 1
        aggregate = stats["cache"]
        total_hits = sum(snapshot["hits"] for snapshot in stats["engines"].values())
        assert aggregate["hits"] == total_hits
        assert "slca" in stats["semantics"] and "elca" in stats["semantics"]


class TestEngineCacheStats:
    def test_cache_stats_accessor(self, small_product_corpus):
        engine = SearchEngine(small_product_corpus, cache_size=8)
        assert engine.cache_stats() == {
            "entries": 0,
            "cached_results": 0,
            "hits": 0,
            "misses": 0,
        }
        first = engine.search("gps")
        engine.search("gps")
        stats = engine.cache_stats()
        assert stats == {
            "entries": 1,
            "cached_results": len(first),
            "hits": 1,
            "misses": 1,
        }


class TestXsactDelegation:
    def test_xsact_routes_through_service(self, small_product_corpus):
        from repro.comparison.pipeline import Xsact

        xsact = Xsact(small_product_corpus)
        assert isinstance(xsact.service, SearchService)
        assert xsact.engine is xsact.service.engine_for("slca")
        xsact.search("gps")
        outcome = xsact.search_and_compare("gps", top=2)
        assert outcome.dod >= 0
        stats = xsact.service.stats()
        assert stats["requests"]["search"] == 1  # search_and_compare counts as compare
        assert stats["requests"]["compare"] == 1
