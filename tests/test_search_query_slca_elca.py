"""Unit tests for the keyword query model and the SLCA / ELCA algorithms."""

import pytest

from oracles import compute_slca_scan, labelled_matches, labelled_postings, pre_order_labels
from repro.errors import QueryError
from repro.search.elca import compute_elca
from repro.search.query import KeywordQuery
from repro.search.slca import compute_slca
from repro.storage.corpus import Corpus
from repro.storage.document_store import DocumentStore
from repro.structure import StructuralTable
from repro.xmlmodel.dewey import DeweyLabel
from repro.xmlmodel.parser import parse_xml

# Every hand-built posting below names an element of this document by its
# Dewey label: it has elements at "0", "0.0", "0.0.0", "0.0.1", "0.0.1.0",
# "0.1", "0.1.0", "0.1.1", "0.2", "1", "1.0", "1.0.0", "1.0.1", "1.1", "1.2",
# "2", "2.0" and "2.1".
HAND_BUILT_XML = (
    "<r><e><e><e/><e><e/></e></e><e><e/><e/></e><e/></e>"
    "<e><e><e/><e/></e><e/><e/></e><e><e/><e/></e></r>"
)


def posting(doc: str, label: str):
    return (doc, label)


def run_on_documents(algorithm, lists):
    """Run ``algorithm`` on hand-built postings and label its matches.

    Every document named is a copy of :data:`HAND_BUILT_XML`; each posting's
    label becomes its element's pre number, through its index in
    :func:`~oracles.pre_order_labels`.
    """
    table = StructuralTable()
    for doc_id in sorted({doc for postings in lists for doc, _ in postings}):
        table.add(doc_id, parse_xml(HAND_BUILT_XML))
    keyword_runs = []
    for postings in lists:
        runs = {}
        for doc, label in postings:
            pre = pre_order_labels(table.get(doc)).index(DeweyLabel.parse(label))
            runs[doc] = tuple(sorted(runs.get(doc, ()) + (pre,)))
        keyword_runs.append(runs)
    matches = labelled_matches(algorithm(keyword_runs, table), table)
    return [(doc, str(label)) for doc, label in matches]


def slca(lists):
    return run_on_documents(compute_slca, lists)


def elca(lists):
    return run_on_documents(compute_elca, lists)


def slca_scan(lists):
    postings = [[(doc, DeweyLabel.parse(label)) for doc, label in keyword] for keyword in lists]
    return [(doc, str(label)) for doc, label in compute_slca_scan(postings)]


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
        assert slca([[posting("d", "0")], []]) == []
        assert slca([]) == []

    def test_single_keyword_returns_deepest_nodes(self):
        # A node and its ancestor both match: only the deepest survives.
        result = slca([[posting("d", "0"), posting("d", "0.1")]])
        assert result == [posting("d", "0.1")]

    def test_two_keywords_in_sibling_leaves(self):
        lists = [[posting("d", "0.0")], [posting("d", "0.1")]]
        assert slca(lists) == [posting("d", "0")]

    def test_slca_prefers_smallest_subtree(self):
        # keyword1 at 0.0 and 1.0.0; keyword2 at 1.0.1 — the SLCA is 1.0, not root.
        lists = [
            [posting("d", "0.0"), posting("d", "1.0.0")],
            [posting("d", "1.0.1")],
        ]
        assert slca(lists) == [posting("d", "1.0")]

    def test_multiple_documents_handled_independently(self):
        lists = [
            [posting("a", "0.0"), posting("b", "0.0")],
            [posting("a", "0.1")],
        ]
        assert slca(lists) == [posting("a", "0")]

    def test_results_sorted_in_document_order(self):
        lists = [
            [posting("a", "2.0"), posting("a", "0.0"), posting("b", "0.0")],
            [posting("a", "2.1"), posting("a", "0.1"), posting("b", "0.1")],
        ]
        result = slca(lists)
        assert result == [posting("a", "0"), posting("a", "2"), posting("b", "0")]

    def test_matches_scan_oracle(self):
        lists = [
            [posting("d", "0.0.0"), posting("d", "0.2"), posting("d", "1.1")],
            [posting("d", "0.0.1"), posting("d", "1.0")],
            [posting("d", "0.0.1.0"), posting("d", "1.2"), posting("d", "0.1")],
        ]
        assert slca(lists) == slca_scan(lists)


class TestElca:
    def test_elca_is_superset_of_slca(self):
        # keyword1 at 0.0 and 0.1.0; keyword2 at 0.1.1 and 0.2.
        # SLCA = {0.1}; ELCA additionally contains the root 0 because 0.0 and
        # 0.2 are witnesses outside the nested match.
        lists = [
            [posting("d", "0.0"), posting("d", "0.1.0")],
            [posting("d", "0.1.1"), posting("d", "0.2")],
        ]
        slca_matches = set(slca(lists))
        elca_matches = set(elca(lists))
        assert slca_matches <= elca_matches
        assert posting("d", "0") in elca_matches
        assert posting("d", "0.1") in elca_matches

    def test_elca_excludes_node_without_exclusive_witness(self):
        # Both keywords occur only inside the nested match 0.1: the root has no
        # exclusive witness and is not an ELCA.
        lists = [[posting("d", "0.1.0")], [posting("d", "0.1.1")]]
        assert elca(lists) == [posting("d", "0.1")]

    def test_elca_empty_on_missing_keyword(self):
        assert elca([[posting("d", "0")], []]) == []

    def test_elca_multiple_documents(self):
        lists = [
            [posting("a", "0.0"), posting("b", "0.0")],
            [posting("a", "0.1"), posting("b", "0.1")],
        ]
        assert elca(lists) == [posting("a", "0"), posting("b", "0")]


class TestSlcaOnRealIndex:
    @pytest.fixture()
    def corpus(self):
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
        return Corpus(store)

    def test_slca_for_brand_and_category(self, corpus):
        lists = corpus.index.keyword_node_lists(["tomtom", "gps"])
        result = labelled_matches(compute_slca(lists, corpus.structure), corpus.structure)
        assert len(result) == 1
        doc_id, label = result[0]
        assert doc_id == "p1"
        # Both keywords occur in the same <name> leaf, so the SLCA is the leaf.
        assert str(label) == "0"

    def test_slca_conjunctive_semantics(self, corpus):
        lists = corpus.index.keyword_node_lists(["tomtom", "garmin"])
        assert compute_slca(lists, corpus.structure) == []

    def test_scan_oracle_agrees_on_real_index(self, corpus):
        table = corpus.structure
        for keywords in (["gps"], ["compact", "gps"], ["tomtom", "gps"], ["review", "pros"]):
            lists = corpus.index.keyword_node_lists(keywords)
            assert labelled_matches(compute_slca(lists, table), table) == compute_slca_scan(
                labelled_postings(lists, table)
            ), keywords
