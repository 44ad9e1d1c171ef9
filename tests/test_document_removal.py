"""Document removal: build-then-remove must equal a fresh build without the doc.

The property at the heart of :meth:`Corpus.remove_document` is differential:
for ANY corpus and ANY removed document, the incrementally-updated index and
statistics must be indistinguishable — postings, document frequencies, ranking
scores — from rebuilding over the remaining documents from scratch.  Hypothesis
drives that over random corpora; the regression tests pin the cache-coherence
contract (removal bumps ``Corpus.version``, which evicts cached query results).
"""

from hypothesis import given, settings, strategies as st

from repro.search.engine import SearchEngine
from repro.storage.corpus import Corpus
from repro.storage.document_store import DocumentStore
from repro.xmlmodel.builder import TreeBuilder
from repro.xmlmodel.parser import parse_xml


# --------------------------------------------------------------------------- #
# Strategies: random small corpora (same shape as test_property_xml_and_search)
# --------------------------------------------------------------------------- #
tag_names = st.sampled_from(["product", "review", "name", "pros", "rating", "item"])
text_values = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x7F),
    min_size=0,
    max_size=12,
)


@st.composite
def xml_trees(draw, max_depth: int = 3):
    builder = TreeBuilder(draw(tag_names))
    _fill(draw, builder, depth=0, max_depth=max_depth)
    return builder.finish()


def _fill(draw, builder, depth, max_depth):
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if depth >= max_depth or draw(st.booleans()):
            builder.leaf(draw(tag_names), draw(text_values) or "x")
        else:
            with builder.element(draw(tag_names)):
                _fill(draw, builder, depth + 1, max_depth)


@st.composite
def corpora_with_victims(draw):
    """A random multi-document corpus plus the ids of documents to remove."""
    trees = draw(st.lists(xml_trees(), min_size=2, max_size=4))
    doc_ids = [f"doc{position}" for position in range(len(trees))]
    victims = draw(
        st.lists(st.sampled_from(doc_ids), min_size=1, max_size=len(trees) - 1, unique=True)
    )
    return trees, doc_ids, victims


def _index_snapshot(index):
    return {
        term: [
            (posting.doc_id, posting.label.components)
            for posting in index.postings(term)
        ]
        for term in index.vocabulary()
    }


def _statistics_snapshot(statistics):
    return {
        summary.path: (
            summary.count,
            summary.max_siblings,
            summary.leaf_count,
            summary.distinct_values,
        )
        for summary in statistics.iter_paths()
    }


class TestRemovalEqualsFreshBuild:
    @settings(max_examples=60, deadline=None)
    @given(corpora_with_victims())
    def test_index_statistics_and_ranking_agree(self, data):
        trees, doc_ids, victims = data

        full_store = DocumentStore()
        for doc_id, tree in zip(doc_ids, trees):
            full_store.add(doc_id, tree)
        corpus = Corpus(full_store)
        for victim in victims:
            corpus.remove_document(victim)

        rest_store = DocumentStore()
        for doc_id, tree in zip(doc_ids, trees):
            if doc_id not in victims:
                rest_store.add(doc_id, tree)
        fresh = Corpus(rest_store)

        # Index postings and frequencies agree term by term (compared through
        # the string API: the two corpora assign different term ids).
        assert _index_snapshot(corpus.index) == _index_snapshot(fresh.index)
        for term in fresh.index.vocabulary():
            assert corpus.index.document_frequency(term) == fresh.index.document_frequency(term)

        # Structural statistics agree path by path.
        assert _statistics_snapshot(corpus.statistics) == _statistics_snapshot(fresh.statistics)
        assert corpus.statistics.document_count == fresh.statistics.document_count
        assert corpus.statistics.total_elements == fresh.statistics.total_elements

        # Ranked search results — scores included — agree for every term in
        # the surviving vocabulary (sampled to keep the test fast).
        for keyword in fresh.index.vocabulary()[:5]:
            removed_results = SearchEngine(corpus, cache_size=0).search(keyword)
            fresh_results = SearchEngine(fresh, cache_size=0).search(keyword)
            assert [
                (result.doc_id, result.match_label, result.score)
                for result in removed_results
            ] == [
                (result.doc_id, result.match_label, result.score)
                for result in fresh_results
            ]


class TestRemovalCacheCoherence:
    def _corpus(self):
        store = DocumentStore()
        store.add("p1", parse_xml("<product><name>TomTom GPS</name></product>"))
        store.add("p2", parse_xml("<product><name>Garmin GPS</name></product>"))
        return Corpus(store)

    def test_removal_bumps_version(self):
        corpus = self._corpus()
        version = corpus.version
        corpus.remove_document("p1")
        assert corpus.version == version + 1

    def test_removal_evicts_cached_queries(self):
        corpus = self._corpus()
        engine = SearchEngine(corpus)
        before = engine.search("gps")
        assert engine.search("gps") and engine.cache_hits == 1
        assert {result.doc_id for result in before} == {"p1", "p2"}

        corpus.remove_document("p1")
        after = engine.search("gps")
        # The stale cached list must not be served: miss, fresh evaluation,
        # and the removed document is gone from the results.
        assert engine.cache_misses == 2
        assert {result.doc_id for result in after} == {"p2"}

    def test_failed_removal_does_not_evict_cache(self):
        corpus = self._corpus()
        engine = SearchEngine(corpus)
        engine.search("gps")
        try:
            corpus.remove_document("ghost")
        except Exception:
            pass
        engine.search("gps")
        assert engine.cache_hits == 1
