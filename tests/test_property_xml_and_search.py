"""Property-based tests (hypothesis) for the XML and search substrates."""

from hypothesis import given, settings, strategies as st

from oracles import (
    compute_elca_scan,
    compute_slca_scan,
    infer_return_subtree_walk,
    is_entity_node_walk,
    labelled_matches,
    labelled_postings,
    node_labels,
)
from repro.search.elca import compute_elca
from repro.search.slca import compute_slca
from repro.search.xseek import infer_return_subtree, is_entity_node
from repro.storage.corpus import Corpus
from repro.storage.document_store import DocumentStore
from repro.storage.statistics import CorpusStatistics
from repro.storage.tokenizer import _TOKEN_PATTERN, _split_tokens, tokenize
from repro.structure import DocumentStructure, StructuralTable, TagDictionary
from repro.xmlmodel.builder import TreeBuilder
from repro.xmlmodel.dewey import DeweyLabel, common_ancestor_label
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serializer import serialize


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
dewey_components = st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=6)
dewey_labels = dewey_components.map(lambda components: DeweyLabel(components))

tag_names = st.sampled_from(["product", "review", "name", "pros", "rating", "item", "movie"])
text_values = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x7F),
    min_size=0,
    max_size=12,
)


@st.composite
def xml_trees(draw, max_depth: int = 3):
    """Random small XML trees built through the TreeBuilder."""
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
def posting_lists(draw):
    """One or two random documents and one to three keywords' runs over them.

    Each keyword's run in each document is a random subset of the
    document's pre numbers (a document whose subset is empty has no run).
    Returns the documents' structural table and the runs.
    """
    table = StructuralTable()
    doc_ids = draw(st.sampled_from([("d1",), ("d1", "d2")]))
    for doc_id in doc_ids:
        table.add(doc_id, draw(xml_trees()))
    keyword_runs = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        runs = {}
        for doc_id in doc_ids:
            last = len(table.get(doc_id)) - 1
            subset = draw(st.sets(st.integers(min_value=0, max_value=last), max_size=6))
            if subset:
                runs[doc_id] = tuple(sorted(subset))
        keyword_runs.append(runs)
    return table, keyword_runs


def contains(table, doc_id, pre, run):
    """Whether some pre number of ``run`` lies in the subtree at ``pre``."""
    end = table.get(doc_id).end[pre]
    return any(pre <= other < end for other in run)


# --------------------------------------------------------------------------- #
# Dewey label properties
# --------------------------------------------------------------------------- #
class TestDeweyProperties:
    @given(dewey_labels, dewey_labels)
    def test_lca_is_commutative_and_ancestor_of_both(self, a, b):
        lca = a.lca(b)
        assert lca == b.lca(a)
        assert lca.is_ancestor_or_self_of(a)
        assert lca.is_ancestor_or_self_of(b)

    @given(dewey_labels, dewey_labels)
    def test_lca_is_the_deepest_common_ancestor(self, a, b):
        lca = a.lca(b)
        for deeper in (lca.child(0), lca.child(1)):
            assert not (
                deeper.is_ancestor_or_self_of(a) and deeper.is_ancestor_or_self_of(b)
            ) or deeper in (a, b) and a == b

    @given(dewey_labels)
    def test_label_string_round_trip(self, label):
        assert DeweyLabel.parse(str(label)) == label

    @given(dewey_labels, dewey_labels)
    def test_ancestorship_matches_prefix_order(self, a, b):
        if a.is_ancestor_of(b):
            assert a < b
            assert a.components == b.components[: len(a)]

    @given(st.lists(dewey_labels, min_size=1, max_size=5))
    def test_common_ancestor_label_covers_all(self, labels):
        ancestor = common_ancestor_label(labels)
        assert all(ancestor.is_ancestor_or_self_of(label) for label in labels)


# --------------------------------------------------------------------------- #
# Parser / serializer properties
# --------------------------------------------------------------------------- #
class TestXmlRoundTripProperties:
    @settings(max_examples=50, deadline=None)
    @given(xml_trees())
    def test_serialize_parse_round_trip(self, tree):
        reparsed = parse_xml(serialize(tree))
        assert serialize(reparsed) == serialize(tree)

    @settings(max_examples=50, deadline=None)
    @given(xml_trees())
    def test_labels_are_consistent_with_structure(self, tree):
        labels = node_labels(tree)
        assert len(labels) == tree.size()
        for node, label in labels.items():
            assert tree.node_at(label) is node

    @settings(max_examples=200, deadline=None)
    @given(xml_trees())
    def test_element_count_matches_walk(self, tree):
        # A served page climbs each result's label off the table, so
        # label_of(pre) must name the pre-th element; ranking's size
        # normaliser is end[pre] - pre: the element count of the subtree.
        structure = DocumentStructure.from_tree(tree, TagDictionary())
        labels = node_labels(tree)
        for pre, element in enumerate(tree.iter_elements()):
            label = structure.label_of(pre)
            assert label == labels[element]
            assert tree.node_at(label) is element
            assert structure.end[pre] - pre == sum(
                1 for node in element.walk() if node.is_element
            )


# --------------------------------------------------------------------------- #
# XSeek on the structural table
# --------------------------------------------------------------------------- #
class TestXseekTableProperties:
    @settings(max_examples=200, deadline=None)
    @given(xml_trees())
    def test_table_climb_matches_tree_walk(self, tree):
        built = CorpusStatistics()
        built.add_document(tree)
        tags = TagDictionary()
        structure = DocumentStructure.from_tree(tree, tags)
        labels = node_labels(tree)
        for statistics in (None, built):
            for pre, element in enumerate(tree.iter_elements()):
                assert is_entity_node(structure, tags, pre, statistics) == is_entity_node_walk(
                    element, statistics
                )
                for max_climb in (0, 1, 2, 3, 10):
                    climbed = infer_return_subtree(structure, tags, pre, statistics, max_climb)
                    walked = infer_return_subtree_walk(tree, labels[element], statistics, max_climb)
                    assert structure.label_of(climbed) == labels[walked]


# --------------------------------------------------------------------------- #
# Tokenizer properties
# --------------------------------------------------------------------------- #
class TestTokenizerProperties:
    @given(st.text(max_size=60))
    def test_tokens_are_lowercase_alnum(self, text):
        for token in tokenize(text):
            assert token == token.lower()
            assert token.isalnum()

    @given(st.text(max_size=60))
    def test_tokenize_is_idempotent(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    @given(st.text(max_size=80))
    def test_split_tokens_matches_regex_oracle(self, text):
        # The regex-free splitter must produce exactly the [a-z0-9]+ runs the
        # pattern (still the fingerprint's source of truth) would find.
        lowered = text.lower()
        assert _split_tokens(lowered) == _TOKEN_PATTERN.findall(lowered)


# --------------------------------------------------------------------------- #
# SLCA properties
# --------------------------------------------------------------------------- #
class TestSlcaProperties:
    @settings(max_examples=500, deadline=None)
    @given(posting_lists())
    def test_indexed_slca_matches_scan_oracle(self, case):
        table, runs = case
        assert labelled_matches(compute_slca(runs, table), table) == compute_slca_scan(
            labelled_postings(runs, table)
        )

    @settings(max_examples=80, deadline=None)
    @given(posting_lists())
    def test_no_result_is_ancestor_of_another(self, case):
        table, runs = case
        results = compute_slca(runs, table)
        for doc_id, a in results:
            end = table.get(doc_id).end
            for other_doc, b in results:
                if other_doc == doc_id:
                    assert not a < b < end[a]

    @settings(max_examples=80, deadline=None)
    @given(posting_lists())
    def test_every_result_contains_all_keywords(self, case):
        table, runs = case
        for doc_id, pre in compute_slca(runs, table):
            for keyword in runs:
                assert contains(table, doc_id, pre, keyword.get(doc_id, ()))


# --------------------------------------------------------------------------- #
# ELCA properties: the fast stack-merge vs the brute-force oracle
# --------------------------------------------------------------------------- #
class TestElcaProperties:
    @settings(max_examples=500, deadline=None)
    @given(posting_lists())
    def test_fast_elca_matches_scan_oracle(self, case):
        table, runs = case
        assert labelled_matches(compute_elca(runs, table), table) == compute_elca_scan(
            labelled_postings(runs, table)
        )

    @settings(max_examples=80, deadline=None)
    @given(posting_lists())
    def test_slca_is_subset_of_elca(self, case):
        table, runs = case
        assert set(compute_slca(runs, table)) <= set(compute_elca(runs, table))

    @settings(max_examples=80, deadline=None)
    @given(posting_lists())
    def test_every_elca_contains_all_keywords(self, case):
        table, runs = case
        for doc_id, pre in compute_elca(runs, table):
            for keyword in runs:
                assert contains(table, doc_id, pre, keyword.get(doc_id, ()))


# --------------------------------------------------------------------------- #
# Differential tests on randomized corpora (real index, real runs)
# --------------------------------------------------------------------------- #
@st.composite
def indexed_corpora(draw):
    """A random multi-document corpus plus query keywords from its vocabulary."""
    trees = draw(st.lists(xml_trees(), min_size=1, max_size=3))
    store = DocumentStore()
    for position, tree in enumerate(trees):
        store.add(f"doc{position}", tree)
    corpus = Corpus(store)
    vocabulary = corpus.index.vocabulary()
    keywords = draw(
        st.lists(st.sampled_from(vocabulary), min_size=1, max_size=3, unique=True)
    )
    return corpus, keywords


class TestSearchAlgorithmsOnRandomCorpora:
    @settings(max_examples=50, deadline=None)
    @given(indexed_corpora())
    def test_fast_algorithms_match_oracles(self, corpus_and_keywords):
        corpus, keywords = corpus_and_keywords
        table = corpus.structure
        runs = corpus.index.keyword_node_lists(keywords)
        postings = labelled_postings(runs, table)
        assert labelled_matches(compute_slca(runs, table), table) == compute_slca_scan(postings)
        assert labelled_matches(compute_elca(runs, table), table) == compute_elca_scan(postings)

    @settings(max_examples=50, deadline=None)
    @given(indexed_corpora())
    def test_posting_lists_are_sorted_in_document_order(self, corpus_and_keywords):
        # Each run holds a document's posting elements once each, in pre
        # order, which is document order.
        corpus, keywords = corpus_and_keywords
        for runs in corpus.index.keyword_node_lists(keywords):
            for doc_id, run in runs.items():
                assert list(run) == sorted(set(run))
                labels = [corpus.structure.get(doc_id).label_of(pre) for pre in run]
                assert labels == sorted(labels)
