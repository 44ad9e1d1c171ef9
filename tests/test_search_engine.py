"""Unit and integration tests for return-node inference, ranking and the engine."""

import gc

import pytest

from oracles import node_labels, pre_order_labels
from repro.errors import SearchError
from repro.search.engine import SearchEngine
from repro.search.query import KeywordQuery
from repro.search.ranking import rank_results
from repro.search.result import SearchResultSet
from repro.search.xseek import infer_return_subtree, is_entity_node
from repro.storage.corpus import Corpus
from repro.storage.document_store import DocumentStore
from repro.storage.statistics import CorpusStatistics
from repro.structure import DocumentStructure, TagDictionary
from repro.xmlmodel.node import XMLNode
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serializer import serialize


PRODUCT_XML = (
    "<product><name>TomTom Go 630 GPS</name><price>199</price>"
    "<reviews>"
    "<review><review_rating>5</review_rating><pros><compact>yes</compact></pros></review>"
    "<review><review_rating>3</review_rating><pros><compact>yes</compact></pros></review>"
    "</reviews></product>"
)


def product_corpus() -> Corpus:
    store = DocumentStore()
    store.add("p1", parse_xml(PRODUCT_XML))
    store.add(
        "p2",
        parse_xml(
            "<product><name>Garmin Nuvi 200 GPS</name><price>149</price>"
            "<reviews><review><review_rating>4</review_rating></review></reviews></product>"
        ),
    )
    return Corpus(store, name="tiny")


def document_table(tree):
    """The structural table of one tree, with its own tag dictionary."""
    tags = TagDictionary()
    return DocumentStructure.from_tree(tree, tags), tags


def entity(tree, node, statistics):
    """XSeek's entity test for ``node``, evaluated on the tree's table."""
    structure, tags = document_table(tree)
    pre = pre_order_labels(structure).index(node_labels(tree)[node])
    return is_entity_node(structure, tags, pre, statistics)


def return_node(tree, match, statistics, max_climb=10):
    """The tree node at the pre number the table climb returns for ``match``."""
    structure, tags = document_table(tree)
    match_pre = pre_order_labels(structure).index(node_labels(tree)[match])
    pre = infer_return_subtree(structure, tags, match_pre, statistics, max_climb=max_climb)
    return tree.node_at(structure.label_of(pre))


class TestXseekInference:
    def test_leaf_is_not_entity(self):
        tree = parse_xml(PRODUCT_XML)
        stats = CorpusStatistics()
        stats.add_document(tree)
        assert not entity(tree, tree.find_child("name"), stats)

    def test_repeating_node_is_entity(self):
        tree = parse_xml(PRODUCT_XML)
        stats = CorpusStatistics()
        stats.add_document(tree)
        review = tree.find_child("reviews").children[0]
        assert entity(tree, review, stats)

    def test_root_with_structured_children_is_entity(self):
        tree = parse_xml(PRODUCT_XML)
        assert entity(tree, tree, None)

    def test_return_subtree_climbs_to_entity(self):
        tree = parse_xml(PRODUCT_XML)
        stats = CorpusStatistics()
        stats.add_document(tree)
        name_leaf = tree.find_child("name")
        assert return_node(tree, name_leaf, stats) is tree

    def test_return_subtree_stops_at_nested_entity(self):
        tree = parse_xml(PRODUCT_XML)
        stats = CorpusStatistics()
        stats.add_document(tree)
        rating = tree.find_descendants("review_rating")[0]
        inferred = return_node(tree, rating, stats)
        assert inferred.tag == "review"

    def test_return_subtree_without_statistics_still_returns_displayable_node(self):
        tree = parse_xml("<a><b><c>x y</c></b></a>")
        leaf = tree.find_descendants("c")[0]
        inferred = return_node(tree, leaf, None)
        assert inferred.tag in {"a", "b", "c"}

    def test_max_climb_bound(self):
        tree = parse_xml("<a><b><c><d><e>x</e></d></c></b></a>")
        leaf = tree.find_descendants("e")[0]
        inferred = return_node(tree, leaf, None, max_climb=1)
        assert inferred.tag in {"d", "e"}

    def test_fallback_returns_highest_non_root_ancestor(self):
        # Regression: when the climb reaches the document root without finding
        # an entity, the fallback must honour its contract ("highest non-root
        # ancestor within the climb window") instead of degrading to the bare
        # match node — a chain-shaped document used to get just the leaf back.
        tree = parse_xml("<a><b><c>x y</c></b></a>")
        leaf = tree.find_descendants("c")[0]
        inferred = return_node(tree, leaf, None)
        assert inferred.tag == "b"

    def test_fallback_chain_with_statistics(self):
        # Same shape, but with statistics built over the document: nothing in
        # a pure chain repeats or groups, so the fallback path is still taken.
        tree = parse_xml("<a><b><c>x y</c></b></a>")
        stats = CorpusStatistics()
        stats.add_document(tree)
        inferred = return_node(tree, tree.find_descendants("c")[0], stats)
        assert inferred.tag == "b"

    def test_fallback_when_match_is_the_root(self):
        tree = parse_xml("<a>x y</a>")
        assert return_node(tree, tree, None) is tree

    def test_fallback_respects_climb_window_on_deep_chain(self):
        # The "highest non-root" rule only applies within the climb window:
        # from <f>, one climb reaches <e>, never higher.
        tree = parse_xml("<a><b><c><d><e><f>x</f></e></d></c></b></a>")
        leaf = tree.find_descendants("f")[0]
        assert return_node(tree, leaf, None, max_climb=1).tag == "e"


def root_candidates(corpus, doc_ids):
    """One whole-document ranking candidate per id, as the engine builds them."""
    return [(doc_id, 0, 0, len(corpus.structure.get(doc_id))) for doc_id in doc_ids]


def rank(corpus, candidates, query):
    """Rank ``candidates`` from the query's runs, as the engine does."""
    runs = corpus.index.keyword_node_lists(query.normalized_keywords)
    return rank_results(candidates, runs, corpus.index.documents_indexed)


class TestRanking:
    def test_tf_idf_prefers_matching_subtree(self):
        corpus = product_corpus()
        query = KeywordQuery.parse("tomtom gps")
        ranked = rank(corpus, root_candidates(corpus, ("p2", "p1")), query)
        assert [result.doc_id for result in ranked] == ["p1", "p2"]
        assert ranked[0].score > ranked[1].score

    def test_rank_results_orders_by_score_then_id(self):
        corpus = product_corpus()
        query = KeywordQuery.parse("gps")
        ranked = rank(corpus, root_candidates(corpus, ("p2", "p1")), query)
        assert [result.doc_id for result in ranked] in (["p1", "p2"], ["p2", "p1"])
        assert ranked[0].score >= ranked[1].score


class TestSearchEngine:
    def test_unknown_semantics_rejected(self):
        with pytest.raises(SearchError):
            SearchEngine(product_corpus(), semantics="bogus")

    def test_search_returns_product_results_with_ids_and_titles(self):
        engine = SearchEngine(product_corpus())
        result_set = engine.search("gps")
        assert isinstance(result_set, SearchResultSet)
        assert len(result_set) == 2
        assert [result.result_id for result in result_set] == ["R1", "R2"]
        assert any("TomTom" in title for title in result_set.titles())

    def test_conjunctive_semantics(self):
        engine = SearchEngine(product_corpus())
        assert len(engine.search("tomtom garmin")) == 0
        assert len(engine.search("tomtom gps")) == 1

    def test_limit_truncates(self):
        engine = SearchEngine(product_corpus())
        assert len(engine.search("gps", limit=1)) == 1

    def test_limit_zero_returns_no_results(self):
        engine = SearchEngine(product_corpus())
        assert len(engine.search("gps", limit=0)) == 0

    def test_negative_limit_rejected(self):
        # Regression: a negative limit used to slice from the wrong end
        # (ranked[:-1] silently drops the *last* result).
        engine = SearchEngine(product_corpus())
        with pytest.raises(SearchError, match="non-negative"):
            engine.search("gps", limit=-1)

    def test_negative_top_rejected(self):
        # Same bug class on the result-set side: top(-1) returned
        # all-but-the-last result instead of erroring.
        result_set = SearchEngine(product_corpus()).search("gps")
        with pytest.raises(SearchError, match="non-negative"):
            result_set.top(-1)
        assert result_set.top(0) == []

    def test_result_subtrees_are_detached_copies(self):
        # A result is the stored node; only its copy() is detached.
        engine = SearchEngine(product_corpus())
        result = engine.search("tomtom gps")[0]
        stored = engine.corpus.store.get(result.doc_id)
        assert result.subtree is stored.root.node_at(result.return_label)
        copy = result.subtree.copy()
        copy.find_child("name").children[0].text = "mutated"
        assert "mutated" not in stored.root.text_content()

    def test_string_and_query_inputs_equivalent(self):
        engine = SearchEngine(product_corpus())
        a = engine.search("tomtom gps")
        b = engine.search(KeywordQuery.parse("tomtom gps"))
        assert [r.doc_id for r in a] == [r.doc_id for r in b]

    def test_elca_semantics_returns_at_least_slca(self):
        corpus = product_corpus()
        slca_engine = SearchEngine(corpus, semantics="slca")
        elca_engine = SearchEngine(corpus, semantics="elca")
        assert len(elca_engine.search("gps")) >= len(slca_engine.search("gps"))

    def test_select_results_by_id(self):
        engine = SearchEngine(product_corpus())
        result_set = engine.search("gps")
        selected = result_set.select(["R2", "R1"])
        assert [result.result_id for result in selected] == ["R2", "R1"]
        with pytest.raises(KeyError):
            result_set.by_id("R99")


class TestRankingBugfixes:
    def test_attribute_match_is_searchable_and_ranked(self):
        # Regression: the index posts attribute-value tokens, but ranking used
        # to ignore them — a result matched only via an attribute got tf=0.
        store = DocumentStore()
        store.add("d1", parse_xml('<item kind="waterproof"><name>Alpha Jacket</name></item>'))
        store.add("d2", parse_xml("<item><name>Beta Jacket</name></item>"))
        engine = SearchEngine(Corpus(store))
        result_set = engine.search("waterproof")
        assert len(result_set) == 1
        assert result_set[0].doc_id == "d1"
        assert result_set[0].score > 0.0


class TestResultTitleFallback:
    def test_all_descendants_are_tried(self):
        # Regression: only descendants[0] per tag was inspected, so an empty
        # first <name> hid every later name-like descendant.
        subtree = parse_xml(
            "<products><entry><name></name></entry>"
            "<entry><name>Alpha</name></entry></products>"
        )
        assert SearchEngine._result_title(subtree, "d") == "Alpha"

    def test_doc_id_fallback_when_no_title_text_anywhere(self):
        subtree = parse_xml("<products><entry><name></name></entry></products>")
        assert SearchEngine._result_title(subtree, "d") == "d:products"


class TestSearchEngineCache:
    def test_repeated_query_hits_cache_with_identical_results(self):
        engine = SearchEngine(product_corpus())
        first = engine.search("gps")
        second = engine.search("gps")
        assert engine.cache_hits == 1
        assert engine.cache_misses == 1
        assert [r.result_id for r in first] == [r.result_id for r in second]
        assert [r.doc_id for r in first] == [r.doc_id for r in second]
        assert [r.score for r in first] == [r.score for r in second]

    def test_equivalent_spellings_share_one_entry(self):
        engine = SearchEngine(product_corpus())
        engine.search("TomTom, GPS")
        engine.search("tomtom gps")
        engine.search(KeywordQuery.of(["tomtom", "gps"]))
        engine.search("gps tomtom")  # permuted order, provably same results
        assert engine.cache_misses == 1
        assert engine.cache_hits == 3

    def test_permuted_keywords_return_identical_results(self):
        engine = SearchEngine(product_corpus(), cache_size=0)
        a = engine.search("tomtom gps")
        b = engine.search("gps tomtom")
        assert [r.doc_id for r in a] == [r.doc_id for r in b]
        assert [r.score for r in a] == [r.score for r in b]

    def test_cached_results_are_fresh_copies(self):
        # A hit serves the same stored node as the miss: nothing is copied.
        engine = SearchEngine(product_corpus())
        first = engine.search("tomtom gps")[0]
        second = engine.search("tomtom gps")[0]
        assert engine.cache_hits == 1
        assert second.subtree is first.subtree
        assert second.subtree is engine.corpus.store.get("p1").root.node_at(second.return_label)

    def test_cache_invalidated_by_corpus_mutation(self):
        corpus = product_corpus()
        engine = SearchEngine(corpus)
        assert len(engine.search("gps")) == 2
        corpus.add_document(
            "p3", parse_xml("<product><name>Magellan GPS</name></product>")
        )
        assert len(engine.search("gps")) == 3
        corpus.store.remove("p3")
        corpus.refresh()
        assert len(engine.search("gps")) == 2

    def test_limits_share_one_cache_entry(self):
        engine = SearchEngine(product_corpus())
        full = engine.search("gps")
        top1 = engine.search("gps", limit=1)
        assert engine.cache_misses == 1
        assert engine.cache_hits == 1
        assert len(top1) == 1
        assert top1[0].doc_id == full[0].doc_id

    def test_lru_eviction(self):
        engine = SearchEngine(product_corpus(), cache_size=1)
        engine.search("gps")
        engine.search("tomtom")
        engine.search("gps")
        assert engine.cache_misses == 3
        assert engine.cache_hits == 0

    def test_cache_disabled(self):
        engine = SearchEngine(product_corpus(), cache_size=0)
        engine.search("gps")
        engine.search("gps")
        assert engine.cache_hits == 0
        assert engine.cache_misses == 0

    def test_match_computation_resolves_the_normalized_view(self, monkeypatch):
        # Regression: posting lists were looked up by the *raw* keyword
        # strings while the cache keys by normalized_keywords.  Both views
        # must be the same object stream, otherwise a directly-constructed
        # un-normalised query (duplicates, multi-token strings) evaluates
        # differently from the normalised spelling it shares a cache entry
        # with — and poisons that entry for later normalised lookups.
        corpus = product_corpus()
        engine = SearchEngine(corpus, cache_size=0)
        resolved = []
        original = corpus.index.keyword_node_lists

        def spy(keywords, **kwargs):
            resolved.append(tuple(keywords))
            return original(keywords, **kwargs)

        monkeypatch.setattr(corpus.index, "keyword_node_lists", spy)
        raw_query = KeywordQuery(keywords=("TomTom, GPS", "gps"), raw="TomTom, GPS gps")
        engine.search(raw_query)
        assert resolved == [raw_query.normalized_keywords]
        assert resolved == [("tomtom", "gps")]

    def test_unnormalized_duplicates_share_entry_without_poisoning(self):
        # The poisoning scenario end to end: the un-normalised spelling
        # populates the cache first, then the normalised spelling must be
        # served the exact results it would have computed itself.
        engine = SearchEngine(product_corpus())
        raw_query = KeywordQuery(keywords=("GPS", "gps gps"), raw="GPS gps gps")
        first = engine.search(raw_query)
        second = engine.search("gps")
        assert engine.cache_misses == 1
        assert engine.cache_hits == 1
        cold = SearchEngine(product_corpus(), cache_size=0).search("gps")
        assert [(r.doc_id, r.score) for r in second] == [(r.doc_id, r.score) for r in cold]
        assert [(r.doc_id, r.score) for r in first] == [(r.doc_id, r.score) for r in cold]

    def test_unnormalized_query_evaluates_like_its_cache_twin(self):
        # Regression: a directly-constructed, un-tokenised query must produce
        # the same scores and order whether it is evaluated cold or served
        # from a cache entry created by a normalised spelling.
        cold_engine = SearchEngine(product_corpus(), cache_size=0)
        warm_engine = SearchEngine(product_corpus())
        raw_query = KeywordQuery(keywords=("GPS",), raw="GPS")
        warm_engine.search("gps")  # populate the cache under the shared key
        cold = cold_engine.search(raw_query)
        warm = warm_engine.search(raw_query)
        assert warm_engine.cache_hits == 1
        assert [r.doc_id for r in cold] == [r.doc_id for r in warm]
        assert [r.score for r in cold] == [r.score for r in warm]
        assert cold[0].score > 0.0

    def test_clear_cache(self):
        engine = SearchEngine(product_corpus())
        engine.search("gps")
        engine.clear_cache()
        engine.search("gps")
        assert engine.cache_misses == 2

    def test_cache_bounded_by_total_cached_results(self):
        # Two single-result queries fit a budget of 2; forcing a third entry
        # over the budget evicts the least recently used one ("gps"), while
        # the entry-count bound alone (cache_size=128) would keep all three.
        engine = SearchEngine(product_corpus(), cache_max_results=2)
        assert len(engine.search("tomtom")) == 1
        assert len(engine.search("garmin")) == 1
        engine.search("nuvi")  # third single-result entry: evicts "tomtom"
        engine.search("tomtom")  # miss — and evicts "garmin" in turn
        assert engine.cache_misses == 4
        engine.search("nuvi")  # the two most recent entries survived
        engine.search("tomtom")
        assert engine.cache_hits == 2

    def test_oversized_result_list_is_not_cached(self):
        # "gps" matches both products; with a budget of 1 the entry evicts
        # itself immediately, so repeats are always misses — but the cache
        # stays bounded instead of pinning an arbitrarily large ranked list.
        engine = SearchEngine(product_corpus(), cache_max_results=1)
        assert len(engine.search("gps")) == 2
        engine.search("gps")
        assert engine.cache_hits == 0
        assert engine.cache_misses == 2

    def test_unbounded_result_budget(self):
        engine = SearchEngine(product_corpus(), cache_max_results=None)
        engine.search("gps")
        engine.search("gps")
        assert engine.cache_hits == 1

    def test_cache_pins_no_subtree_copies(self):
        # Cache entries are references into the corpus: once the served
        # result sets are dropped, no copied tree node stays alive.
        engine = SearchEngine(product_corpus())

        def live_nodes():
            gc.collect()
            return sum(1 for obj in gc.get_objects() if isinstance(obj, XMLNode))

        before = live_nodes()
        for query in ("gps", "tomtom", "garmin", "review", "compact"):
            assert len(engine.search(query)) >= 1
        assert engine.cache_stats()["entries"] == 5
        assert live_nodes() == before

    def test_hit_after_eviction_serves_the_same_page(self, small_product_corpus, tmp_path):
        # A hit re-reads its documents from the store; with a one-document
        # LRU they were evicted since the miss, and the page must not change.
        path = tmp_path / "products.snap"
        small_product_corpus.save(path)
        engine = SearchEngine(Corpus.load(path, max_materialised=1))

        def page():
            _, results = engine.search_page("gps", 0, 5)
            return [
                (r.doc_id, r.return_label, r.score, r.title, serialize(r.subtree))
                for r in results
            ]

        first = page()
        second = page()
        assert engine.cache_hits == 1
        assert len(first) > 1
        assert second == first


class TestSearchOnGeneratedCorpus:
    def test_tomtom_query_returns_products(self, product_engine):
        result_set = product_engine.search("tomtom gps")
        assert len(result_set) >= 1
        for result in result_set:
            assert result.root_tag() == "product"
            assert "tomtom" in result.title.lower()

    def test_results_have_unique_ids_and_descending_scores(self, product_engine):
        result_set = product_engine.search("gps")
        ids = [result.result_id for result in result_set]
        assert len(set(ids)) == len(ids)
        scores = [result.score for result in result_set]
        assert scores == sorted(scores, reverse=True)

    def test_missing_keyword_gives_empty_results(self, product_engine):
        assert len(product_engine.search("zzzunknownkeyword gps")) == 0
