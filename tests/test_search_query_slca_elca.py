"""Unit tests for the keyword query model and the SLCA / ELCA algorithms."""

import pytest

from oracles import compute_slca_scan
from repro.errors import QueryError
from repro.search.elca import compute_elca
from repro.search.query import KeywordQuery
from repro.search.slca import compute_slca
from repro.storage.document_store import DocumentStore
from repro.storage.inverted_index import InvertedIndex, Posting
from repro.xmlmodel.dewey import DeweyLabel
from repro.xmlmodel.parser import parse_xml


def posting(doc: str, label: str) -> Posting:
    return Posting(doc_id=doc, label=DeweyLabel.parse(label))


class TestKeywordQuery:
    def test_parse_splits_on_commas_and_spaces(self):
        query = KeywordQuery.parse("TomTom, GPS")
        assert query.keywords == ("tomtom", "gps")
        assert query.raw == "TomTom, GPS"

    def test_parse_removes_duplicates_preserving_order(self):
        assert KeywordQuery.parse("gps tomtom gps").keywords == ("gps", "tomtom")

    def test_parse_rejects_empty(self):
        with pytest.raises(QueryError):
            KeywordQuery.parse("   ")
        with pytest.raises(QueryError):
            KeywordQuery.parse("the of a")

    def test_of_accepts_multi_word_items(self):
        query = KeywordQuery.of(["digital camera", "canon"])
        assert query.keywords == ("digital", "camera", "canon")

    def test_dunder_protocol(self):
        query = KeywordQuery.parse("men jackets")
        assert len(query) == 2
        assert list(query) == ["men", "jackets"]
        assert str(query) == "men jackets"

    def test_direct_construction_requires_keywords(self):
        with pytest.raises(QueryError):
            KeywordQuery(keywords=())


class TestSlcaOnHandBuiltPostings:
    def test_empty_when_any_keyword_missing(self):
        assert compute_slca([[posting("d", "0")], []]) == []
        assert compute_slca([]) == []

    def test_single_keyword_returns_deepest_nodes(self):
        # A node and its ancestor both match: only the deepest survives.
        result = compute_slca([[posting("d", "0"), posting("d", "0.1")]])
        assert result == [posting("d", "0.1")]

    def test_two_keywords_in_sibling_leaves(self):
        lists = [[posting("d", "0.0")], [posting("d", "0.1")]]
        assert compute_slca(lists) == [posting("d", "0")]

    def test_slca_prefers_smallest_subtree(self):
        # keyword1 at 0.0 and 1.0.0; keyword2 at 1.0.1 — the SLCA is 1.0, not root.
        lists = [
            [posting("d", "0.0"), posting("d", "1.0.0")],
            [posting("d", "1.0.1")],
        ]
        assert compute_slca(lists) == [posting("d", "1.0")]

    def test_multiple_documents_handled_independently(self):
        lists = [
            [posting("a", "0.0"), posting("b", "0.0")],
            [posting("a", "0.1")],
        ]
        assert compute_slca(lists) == [posting("a", "0")]

    def test_results_sorted_in_document_order(self):
        lists = [
            [posting("a", "2.0"), posting("a", "0.0"), posting("b", "0.0")],
            [posting("a", "2.1"), posting("a", "0.1"), posting("b", "0.1")],
        ]
        result = compute_slca(lists)
        assert result == [posting("a", "0"), posting("a", "2"), posting("b", "0")]

    def test_matches_scan_oracle(self):
        lists = [
            [posting("d", "0.0.0"), posting("d", "0.2"), posting("d", "1.1")],
            [posting("d", "0.0.1"), posting("d", "1.0")],
            [posting("d", "0.0.1.0"), posting("d", "1.2"), posting("d", "0.1")],
        ]
        assert compute_slca(lists) == compute_slca_scan(lists)


class TestElca:
    def test_elca_is_superset_of_slca(self):
        # keyword1 at 0.0 and 0.1.0; keyword2 at 0.1.1 and 0.2.
        # SLCA = {0.1}; ELCA additionally contains the root 0 because 0.0 and
        # 0.2 are witnesses outside the nested match.
        lists = [
            [posting("d", "0.0"), posting("d", "0.1.0")],
            [posting("d", "0.1.1"), posting("d", "0.2")],
        ]
        slca = set(compute_slca(lists))
        elca = set(compute_elca(lists))
        assert slca <= elca
        assert posting("d", "0") in elca
        assert posting("d", "0.1") in elca

    def test_elca_excludes_node_without_exclusive_witness(self):
        # Both keywords occur only inside the nested match 0.1: the root has no
        # exclusive witness and is not an ELCA.
        lists = [[posting("d", "0.1.0")], [posting("d", "0.1.1")]]
        assert compute_elca(lists) == [posting("d", "0.1")]

    def test_elca_empty_on_missing_keyword(self):
        assert compute_elca([[posting("d", "0")], []]) == []

    def test_elca_multiple_documents(self):
        lists = [
            [posting("a", "0.0"), posting("b", "0.0")],
            [posting("a", "0.1"), posting("b", "0.1")],
        ]
        assert compute_elca(lists) == [posting("a", "0"), posting("b", "0")]


class TestSlcaOnRealIndex:
    @pytest.fixture()
    def index(self):
        store = DocumentStore()
        store.add(
            "p1",
            parse_xml(
                "<product><name>TomTom Go GPS</name>"
                "<reviews><review><pros><compact>yes</compact></pros></review></reviews></product>"
            ),
        )
        store.add(
            "p2",
            parse_xml(
                "<product><name>Garmin Nuvi GPS</name>"
                "<reviews><review><pros><compact>yes</compact></pros></review></reviews></product>"
            ),
        )
        return InvertedIndex.build(store)

    def test_slca_for_brand_and_category(self, index):
        lists = index.keyword_node_lists(["tomtom", "gps"])
        result = compute_slca(lists)
        assert len(result) == 1
        assert result[0].doc_id == "p1"
        # Both keywords occur in the same <name> leaf, so the SLCA is the leaf.
        assert str(result[0].label) == "0"

    def test_slca_conjunctive_semantics(self, index):
        lists = index.keyword_node_lists(["tomtom", "garmin"])
        assert compute_slca(lists) == []

    def test_scan_oracle_agrees_on_real_index(self, index):
        for keywords in (["gps"], ["compact", "gps"], ["tomtom", "gps"], ["review", "pros"]):
            lists = index.keyword_node_lists(keywords)
            assert compute_slca(lists) == compute_slca_scan(lists), keywords
