"""Property-based tests (hypothesis) for the XML and search substrates."""

from hypothesis import given, settings, strategies as st

from oracles import compute_elca_scan, compute_slca_scan
from repro.storage.document_store import DocumentStore
from repro.storage.inverted_index import InvertedIndex, Posting
from repro.storage.tokenizer import _TOKEN_PATTERN, _split_tokens, tokenize
from repro.search.elca import compute_elca
from repro.search.slca import compute_slca
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


posting_lists = st.lists(
    st.lists(
        st.tuples(st.sampled_from(["d1", "d2"]), dewey_components).map(
            lambda pair: Posting(doc_id=pair[0], label=DeweyLabel(pair[1]))
        ),
        min_size=1,
        max_size=6,
    ),
    min_size=1,
    max_size=3,
)


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
        for node in tree.walk():
            for offset, child in enumerate(node.children):
                assert child.label == node.label.child(offset)

    @settings(max_examples=50, deadline=None)
    @given(xml_trees())
    def test_element_count_matches_walk(self, tree):
        for subtree in tree.walk():
            assert subtree.count_elements() == sum(
                1 for node in subtree.walk() if node.is_element
            )


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
    @settings(max_examples=80, deadline=None)
    @given(posting_lists)
    def test_indexed_slca_matches_scan_oracle(self, lists):
        assert compute_slca(lists) == compute_slca_scan(lists)

    @settings(max_examples=80, deadline=None)
    @given(posting_lists)
    def test_no_result_is_ancestor_of_another(self, lists):
        results = compute_slca(lists)
        for a in results:
            for b in results:
                if a is not b and a.doc_id == b.doc_id:
                    assert not a.label.is_ancestor_of(b.label)

    @settings(max_examples=80, deadline=None)
    @given(posting_lists)
    def test_every_result_contains_all_keywords(self, lists):
        results = compute_slca(lists)
        for result in results:
            for postings in lists:
                assert any(
                    posting.doc_id == result.doc_id
                    and result.label.is_ancestor_or_self_of(posting.label)
                    for posting in postings
                )


# --------------------------------------------------------------------------- #
# ELCA properties: the fast stack-merge vs the brute-force oracle
# --------------------------------------------------------------------------- #
class TestElcaProperties:
    @settings(max_examples=80, deadline=None)
    @given(posting_lists)
    def test_fast_elca_matches_scan_oracle(self, lists):
        assert compute_elca(lists) == compute_elca_scan(lists)

    @settings(max_examples=80, deadline=None)
    @given(posting_lists)
    def test_slca_is_subset_of_elca(self, lists):
        assert set(compute_slca(lists)) <= set(compute_elca(lists))

    @settings(max_examples=80, deadline=None)
    @given(posting_lists)
    def test_every_elca_contains_all_keywords(self, lists):
        for result in compute_elca(lists):
            for postings in lists:
                assert any(
                    posting.doc_id == result.doc_id
                    and result.label.is_ancestor_or_self_of(posting.label)
                    for posting in postings
                )


# --------------------------------------------------------------------------- #
# Differential tests on randomized corpora (real index, real posting lists)
# --------------------------------------------------------------------------- #
@st.composite
def indexed_corpora(draw):
    """A random multi-document corpus plus query keywords from its vocabulary."""
    trees = draw(st.lists(xml_trees(), min_size=1, max_size=3))
    store = DocumentStore()
    for position, tree in enumerate(trees):
        store.add(f"doc{position}", tree)
    index = InvertedIndex.build(store)
    vocabulary = index.vocabulary()
    keywords = draw(
        st.lists(st.sampled_from(vocabulary), min_size=1, max_size=3, unique=True)
    )
    return index, keywords


class TestSearchAlgorithmsOnRandomCorpora:
    @settings(max_examples=50, deadline=None)
    @given(indexed_corpora())
    def test_fast_algorithms_match_oracles(self, corpus_and_keywords):
        index, keywords = corpus_and_keywords
        lists = index.keyword_node_lists(keywords)
        assert compute_slca(lists) == compute_slca_scan(lists)
        assert compute_elca(lists) == compute_elca_scan(lists)

    @settings(max_examples=50, deadline=None)
    @given(indexed_corpora())
    def test_posting_lists_are_sorted_in_document_order(self, corpus_and_keywords):
        index, keywords = corpus_and_keywords
        for postings in index.keyword_node_lists(keywords):
            assert postings == sorted(postings)
