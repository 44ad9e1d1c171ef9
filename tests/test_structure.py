"""Tests for the structural index subsystem.

Four layers of guarantees are pinned here:

* **Encoding differentials** — the pre-order interval windows, window
  scans and LCA of :class:`~repro.structure.encoding.DocumentStructure`
  agree with a brute-force Dewey-label oracle on hypothesis-generated trees.
* **Semantics differentials** — ``slca_struct`` returns exactly what
  ``slca`` returns on pure keyword queries.
* **Constraint oracle** — with ``within`` paths and axis steps,
  ``slca_struct`` matches a tree walk over the scan-oracle SLCAs on
  hypothesis-generated corpora.
* **Snapshot battery** — the structural section round-trips (restored from
  the head, no record decoded), a head without the section is refused, and
  corrupted sections raise typed errors naming the damaged section.
"""

import io
import json
import struct
import zlib
from base64 import urlsafe_b64decode, urlsafe_b64encode

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    compute_slca_scan,
    labelled_matches,
    labelled_postings,
    node_labels,
    pre_order_labels,
)
from repro.cli import main as cli_main
from repro.errors import (
    InvalidCursorError,
    QueryError,
    SearchError,
    SnapshotFormatError,
    StructureError,
)
from repro.search.engine import SearchEngine
from repro.search.query import KeywordQuery
from repro.search.structural import AXES, StructuredQuery, compute_slca_struct, parse_tag_path
from repro.service.cursor import decode_cursor, encode_cursor
from repro.service.protocol import SearchRequest
from repro.service.service import SearchService
from repro.storage.corpus import Corpus
from repro.storage.document_store import DocumentStore
from repro.storage.snapshot import (
    _HEADER,
    _MAGIC,
    FORMAT_VERSION,
    _read_directory_entry,
    _Reader,
    _write_statistics,
    _write_structure,
    _Writer,
    save_corpus,
)
from repro.storage.statistics import CorpusStatistics
from repro.storage.tokenizer import fingerprint as tokenizer_fingerprint
from repro.structure import DocumentStructure, TagDictionary
from repro.xmlmodel.builder import TreeBuilder
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serializer import serialize

# Tag names are indexed terms, so every generated corpus can match these.
QUERIES = ("product", "review name", "item movie", "rating pros product")

tag_names = st.sampled_from(["product", "review", "name", "pros", "rating", "item", "movie"])
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
            builder.leaf(draw(tag_names), draw(text_values) or "xx")
        else:
            with builder.element(draw(tag_names)):
                _fill(draw, builder, depth + 1, max_depth)


@st.composite
def corpus_documents(draw, min_size: int = 0, max_size: int = 6):
    trees = draw(st.lists(xml_trees(), min_size=min_size, max_size=max_size))
    return [(f"doc-{position}", tree) for position, tree in enumerate(trees)]


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def build_single(documents, name="single"):
    store = DocumentStore()
    for doc_id, tree in documents:
        store.add(doc_id, tree)
    return Corpus(store, name=name)


def fingerprint(results):
    """Everything observable about a ranked result list, byte for byte."""
    return [
        (
            result.result_id,
            result.doc_id,
            str(result.match_label),
            str(result.return_label),
            result.score,
            result.title,
            serialize(result.subtree),
        )
        for result in results
    ]


# A fixed corpus where every structural constraint has a hand-checkable
# answer.  "gps" matches the <name> and first <pros> of doc-a, the <pros>
# of doc-b, and the <title> of doc-c.
STRUCT_XML = {
    "doc-a": (
        "<product><name>alpha gps</name>"
        "<reviews>"
        "<review><pros>bright gps screen</pros><cons>dim buttons</cons></review>"
        "<review><pros>cheap mount</pros></review>"
        "</reviews></product>"
    ),
    "doc-b": (
        "<product><name>beta radio</name>"
        "<reviews><review><pros>loud gps alerts</pros></review></reviews>"
        "</product>"
    ),
    "doc-c": "<movie><title>gamma gps story</title><rating>good</rating></movie>",
}


def struct_documents():
    return [(doc_id, parse_xml(markup)) for doc_id, markup in STRUCT_XML.items()]


def struct_corpus(name="structured"):
    return build_single(struct_documents(), name=name)


def match_tags(corpus, results):
    """The element tag of every match, resolved through the structural index."""
    tags = []
    for result in results:
        structure = corpus.structure.get(result.doc_id)
        pre = pre_order_labels(structure).index(result.match_label)
        tags.append(corpus.structure.tags.tag(structure.tag_ids[pre]))
    return tags


def struct_search(corpus, query):
    return SearchEngine(corpus, semantics="slca_struct", cache_size=0).search(query)


# --------------------------------------------------------------------------- #
# Encoding ≡ Dewey oracle
# --------------------------------------------------------------------------- #
class TestEncodingDifferential:
    @given(tree=xml_trees())
    @settings(max_examples=30, deadline=None)
    def test_interval_predicates_match_dewey_oracle(self, tree):
        structure = DocumentStructure.from_tree(tree, TagDictionary())
        labels = pre_order_labels(structure)
        count = len(labels)
        for a in range(count):
            assert labels.index(labels[a]) == a
            if structure.parent[a] == -1:
                assert labels[a].is_root
            else:
                assert labels[structure.parent[a]] == labels[a].parent()
            descendants = sum(1 for b in range(count) if labels[b].is_descendant_of(labels[a]))
            assert structure.end[a] - a == 1 + descendants  # window = subtree
            for b in range(count):
                assert (b < a < structure.end[b]) == labels[a].is_descendant_of(labels[b])

    @given(tree=xml_trees())
    @settings(max_examples=30, deadline=None)
    def test_window_scans_match_prefix_walk(self, tree):
        tags = TagDictionary()
        structure = DocumentStructure.from_tree(tree, tags)
        labels = pre_order_labels(structure)
        count = len(labels)
        for pre in range(count):
            for tag in tags:
                tag_id = tags.lookup(tag)
                walk = [
                    b
                    for b in range(count)
                    if structure.tag_ids[b] == tag_id and labels[b].is_descendant_of(labels[pre])
                ]
                assert structure.descendants_with_tag(pre, tag_id) == walk
                children = [b for b in walk if len(labels[b]) == len(labels[pre]) + 1]
                assert structure.children_with_tag(pre, tag_id) == children
                ancestors = [
                    b
                    for b in range(count)
                    if structure.tag_ids[b] == tag_id and labels[b].is_ancestor_of(labels[pre])
                ]
                nearest = max(ancestors, key=lambda b: len(labels[b]), default=None)
                assert structure.nearest_ancestor_with_tag(pre, tag_id) == nearest

    @given(tree=xml_trees())
    @settings(max_examples=30, deadline=None)
    def test_constructor_reproduces_from_tree(self, tree):
        # The snapshot-restore path: the label table's depths and last
        # components plus the tag ids alone rebuild the identical encoding.
        built = DocumentStructure.from_tree(tree, TagDictionary())
        node_label = node_labels(tree)
        labels = [node_label[element] for element in tree.iter_elements()]
        derived = DocumentStructure(
            [len(label) for label in labels],
            [label.components[-1] if label.components else 0 for label in labels],
            built.tag_ids,
        )
        for field in ("parent", "end", "last", "tag_ids"):
            assert getattr(derived, field) == getattr(built, field)

    def test_constructor_rejects_malformed_tables(self):
        with pytest.raises(StructureError, match="1 depths, 1 lasts and 2 tag ids"):
            DocumentStructure([0], [0], [0, 1])
        with pytest.raises(StructureError, match="first entry must be the document root"):
            DocumentStructure([1], [0], [0])
        with pytest.raises(StructureError, match="jumps past its parent"):
            DocumentStructure([0, 2], [0, 0], [0, 0])
        with pytest.raises(StructureError, match="second root"):
            DocumentStructure([0, 0], [0, 0], [0, 0])

    def test_empty_table_is_rejected(self):
        # A document has at least its root element.
        with pytest.raises(StructureError, match="element table is empty"):
            DocumentStructure([], [], [])

    def test_tag_dictionary(self):
        tags = TagDictionary()
        assert tags.intern("product") == 0
        assert tags.intern("review") == 1
        assert tags.intern("product") == 0  # idempotent
        assert tags.lookup("review") == 1
        assert tags.lookup("absent") is None
        assert tags.tag(1) == "review"
        assert "product" in tags and "absent" not in tags
        assert list(tags) == ["product", "review"]
        assert len(tags) == 2
        with pytest.raises(StructureError, match="not in the dictionary"):
            tags.tag(2)


# --------------------------------------------------------------------------- #
# StructuredQuery parsing and validation
# --------------------------------------------------------------------------- #
class TestStructuredQuery:
    def test_parse_tag_path(self):
        assert parse_tag_path("product") == ("product",)
        assert parse_tag_path("reviews/review") == ("reviews", "review")
        for bad in ("", "/review", "review/", "a//b"):
            with pytest.raises(QueryError, match="invalid tag path"):
                parse_tag_path(bad)

    def test_axis_validation(self):
        with pytest.raises(QueryError, match="unknown axis"):
            StructuredQuery.from_parts("gps", axis="sideways", axis_tag="review")
        with pytest.raises(QueryError, match="does not take an axis tag"):
            StructuredQuery.from_parts("gps", axis="self", axis_tag="review")
        for axis in ("child", "descendant", "ancestor"):
            with pytest.raises(QueryError, match="requires an axis tag"):
                StructuredQuery.from_parts("gps", axis=axis)
        with pytest.raises(QueryError, match="axis_tag given without an axis"):
            StructuredQuery.from_parts("gps", axis_tag="review")
        with pytest.raises(QueryError, match="empty tag name"):
            StructuredQuery.from_parts("gps", within=("product", ""))

    def test_has_constraints(self):
        assert not StructuredQuery.from_parts("gps").has_constraints
        assert StructuredQuery.from_parts("gps", within=("pros",)).has_constraints
        assert StructuredQuery.from_parts("gps", axis="self").has_constraints

    def test_cache_key_markers(self):
        plain = KeywordQuery.parse("gps camera")
        free = StructuredQuery.from_parts("gps camera")
        # Constraint-free structured queries share the plain cache entry.
        assert free.cache_key == plain.cache_key
        constrained = StructuredQuery.from_parts(
            "gps camera", within=("reviews", "review"), axis="descendant", axis_tag="pros"
        )
        assert constrained.cache_key == plain.cache_key + (
            "@within:reviews",
            "@within:review",
            "@axis:descendant:pros",
        )


# --------------------------------------------------------------------------- #
# slca_struct ≡ slca on pure keyword queries
# --------------------------------------------------------------------------- #
class TestSemanticsDifferential:
    @given(documents=corpus_documents())
    @settings(max_examples=25, deadline=None)
    def test_pure_keyword_queries_match_slca(self, documents):
        corpus = build_single(documents)
        reference = SearchEngine(corpus, semantics="slca", cache_size=0)
        structural = SearchEngine(corpus, semantics="slca_struct", cache_size=0)
        for query in QUERIES:
            assert fingerprint(structural.search(query)) == fingerprint(reference.search(query))

    def test_axis_self_equals_unconstrained(self):
        corpus = struct_corpus()
        forced = struct_search(corpus, StructuredQuery.from_parts("gps", axis="self"))
        plain = SearchEngine(corpus, semantics="slca", cache_size=0).search("gps")
        assert fingerprint(forced) == fingerprint(plain)


# --------------------------------------------------------------------------- #
# Constraint evaluation on the hand-checkable corpus
# --------------------------------------------------------------------------- #
class TestConstraints:
    def test_within_reanchors_to_pros(self):
        corpus = struct_corpus()
        results = struct_search(corpus, StructuredQuery.from_parts("gps", within=("pros",)))
        assert match_tags(corpus, results) == ["pros", "pros"]
        assert {result.doc_id for result in results} == {"doc-a", "doc-b"}

    def test_within_path_is_a_suffix_match(self):
        corpus = struct_corpus()
        results = struct_search(
            corpus, StructuredQuery.from_parts("gps", within=("reviews", "review"))
        )
        assert match_tags(corpus, results) == ["review", "review"]

    def test_descendant_axis(self):
        corpus = struct_corpus()
        results = struct_search(
            corpus,
            StructuredQuery.from_parts(
                "gps", within=("product",), axis="descendant", axis_tag="review"
            ),
        )
        # doc-a has two reviews below its product, doc-b one; doc-c has no
        # product element at all and is dropped by the within filter.
        assert match_tags(corpus, results) == ["review", "review", "review"]
        assert {result.doc_id for result in results} == {"doc-a", "doc-b"}

    def test_child_axis_is_direct_children_only(self):
        corpus = struct_corpus()
        children = struct_search(
            corpus,
            StructuredQuery.from_parts("gps", within=("product",), axis="child", axis_tag="reviews"),
        )
        assert match_tags(corpus, children) == ["reviews", "reviews"]
        grandchildren = struct_search(
            corpus,
            StructuredQuery.from_parts("gps", within=("product",), axis="child", axis_tag="review"),
        )
        assert fingerprint(grandchildren) == []  # reviews are grandchildren

    def test_ancestor_axis(self):
        corpus = struct_corpus()
        results = struct_search(
            corpus,
            StructuredQuery.from_parts("gps", within=("pros",), axis="ancestor", axis_tag="review"),
        )
        assert match_tags(corpus, results) == ["review", "review"]

    def test_unknown_tags_yield_empty_results(self):
        corpus = struct_corpus()
        assert fingerprint(struct_search(corpus, StructuredQuery.from_parts("gps", within=("warranty",)))) == []
        assert (
            fingerprint(
                struct_search(
                    corpus,
                    StructuredQuery.from_parts("gps", axis="descendant", axis_tag="warranty"),
                )
            )
            == []
        )

    @pytest.mark.parametrize("semantics", ("slca", "elca"))
    def test_structure_blind_semantics_reject_constraints(self, semantics):
        engine = SearchEngine(struct_corpus(), semantics=semantics, cache_size=0)
        with pytest.raises(SearchError, match="ignores structural constraints"):
            engine.search(StructuredQuery.from_parts("gps", within=("pros",)))

    def test_constraint_free_structured_query_works_everywhere(self):
        engine = SearchEngine(struct_corpus(), semantics="slca", cache_size=0)
        assert fingerprint(engine.search(StructuredQuery.from_parts("gps"))) == fingerprint(
            engine.search("gps")
        )


# --------------------------------------------------------------------------- #
# Constraint evaluation ≡ a tree-walk oracle on random corpora
# --------------------------------------------------------------------------- #
ABSENT_TAG = "warranty"  # never drawn by tag_names


@st.composite
def constrained_cases(draw):
    """A random corpus, keywords and a ``within`` path from the corpus's own tags.

    Tag names are indexed terms, so the keywords always match.  ``within``
    is empty, a suffix of a random element's root-to-node tag path, any one
    or two corpus tags, or a tag that occurs nowhere.  Returns the documents,
    the keyword text, the path, and the axis tags to try: every corpus tag
    plus the absent one.
    """
    documents = draw(corpus_documents(min_size=1))
    paths = []
    for _, tree in documents:
        labels = node_labels(tree)
        paths.extend(tree.path_to(labels[node]) for node in tree.iter_elements())
    present = sorted({path[-1].tag for path in paths})
    keywords = draw(st.lists(st.sampled_from(present), min_size=1, max_size=2, unique=True))
    path = _tag_path(draw(st.sampled_from(paths)))
    within = draw(
        st.one_of(
            st.sampled_from([path[-1:], path[-2:], (), (ABSENT_TAG,)]),
            st.lists(st.sampled_from(present), min_size=1, max_size=2).map(tuple),
        )
    )
    return documents, " ".join(keywords), within, present + [ABSENT_TAG]


def _tag_path(path):
    return tuple(node.tag for node in path)


def _subtree(node):
    yield node
    for child in node.children:
        yield from _subtree(child)


def _within_anchor(path, within):
    """Path to the innermost ancestor-or-self whose tag path ends with ``within``."""
    for end in range(len(path), 0, -1):
        if _tag_path(path[:end])[-len(within):] == within:
            return path[:end]
    return None


def _axis_step(path, axis, axis_tag):
    node = path[-1]
    if axis == "self":
        return [node]
    if axis == "child":
        return [child for child in node.children if child.tag == axis_tag]
    if axis == "descendant":
        return [
            descendant
            for child in node.children
            for descendant in _subtree(child)
            if descendant.tag == axis_tag
        ]
    for ancestor in reversed(path[:-1]):  # axis == "ancestor": the nearest proper one
        if ancestor.tag == axis_tag:
            return [ancestor]
    return []


def constraint_oracle(documents, keyword_postings, query):
    """slca_struct's matches from scan-oracle SLCAs and root-to-node path walks."""
    trees = dict(documents)
    labels = {doc_id: node_labels(tree) for doc_id, tree in documents}
    expected = set()
    for doc_id, label in compute_slca_scan(keyword_postings):
        path = trees[doc_id].path_to(label)
        if query.within:
            path = _within_anchor(path, query.within)
            if path is None:
                continue
        for selected in _axis_step(path, query.axis, query.axis_tag):
            expected.add((doc_id, labels[doc_id][selected]))
    return sorted(expected)


class TestConstraintOracle:
    @given(case=constrained_cases())
    @settings(max_examples=60, deadline=None)
    def test_slca_struct_matches_tree_walk_oracle(self, case):
        # Every axis with every tag, so each example covers all the steps.
        documents, text, within, tags = case
        corpus = build_single(documents)
        table = corpus.structure
        lists = corpus.index.keyword_node_lists(KeywordQuery.parse(text).normalized_keywords)
        postings = labelled_postings(lists, table)
        steps = [("self", None)] + [(axis, tag) for axis in AXES[1:] for tag in tags]
        for axis, axis_tag in steps:
            query = StructuredQuery.from_parts(text, within=within, axis=axis, axis_tag=axis_tag)
            matches = labelled_matches(compute_slca_struct(lists, table, query), table)
            assert matches == constraint_oracle(documents, postings, query), (axis, axis_tag)


# --------------------------------------------------------------------------- #
# Service, cursors and the wire protocol
# --------------------------------------------------------------------------- #
class TestServiceStructured:
    def test_default_semantics_resolution(self):
        service = SearchService(struct_corpus())
        plain = service.search(SearchRequest(query="gps"))
        assert plain.semantics == "slca"
        constrained = service.search(SearchRequest(query="gps", within=("pros",)))
        assert constrained.semantics == "slca_struct"
        assert constrained.total == 2

    def test_within_entries_flatten_through_tag_paths(self):
        service = SearchService(struct_corpus())
        slash = service.search(SearchRequest(query="gps", within=("reviews/review",)))
        steps = service.search(SearchRequest(query="gps", within=("reviews", "review")))
        assert slash.to_dict() == steps.to_dict()

    def test_cursor_walk_preserves_constraints(self):
        service = SearchService(struct_corpus())
        request = SearchRequest(
            query="gps", within=("product",), axis="descendant", axis_tag="review", page_size=1
        )
        full = service.search(
            SearchRequest(
                query="gps", within=("product",), axis="descendant", axis_tag="review",
                page_size=10,
            )
        )
        walked = []
        response = service.search(request)
        for _ in range(10):
            assert response.semantics == "slca_struct"
            walked.extend(item.to_dict() for item in response.items)
            if response.next_cursor is None:
                break
            # Continuation by cursor alone: the constraints travel in the token.
            response = service.search(SearchRequest(cursor=response.next_cursor))
        assert walked == [item.to_dict() for item in full.items]

    def test_cursor_and_request_constraint_mismatch_rejected(self):
        service = SearchService(struct_corpus())
        first = service.search(SearchRequest(query="gps", within=("product",), page_size=1))
        assert first.next_cursor is not None
        with pytest.raises(InvalidCursorError):
            service.search(SearchRequest(cursor=first.next_cursor, within=("movie",)))
        # Restating the *same* constraints alongside the cursor is fine.
        follow_up = service.search(
            SearchRequest(cursor=first.next_cursor, query="gps", within=("product",))
        )
        assert follow_up.offset == 1

    def test_axis_tag_without_axis_rejected(self):
        # Ignoring a lone axis_tag would answer the unconstrained query.
        service = SearchService(struct_corpus())
        with pytest.raises(QueryError, match="axis_tag given without an axis"):
            service.search(SearchRequest(query="gps", axis_tag="review"))
        first = service.search(SearchRequest(query="gps", page_size=1))
        assert first.next_cursor is not None
        with pytest.raises(InvalidCursorError):
            service.search(SearchRequest(cursor=first.next_cursor, axis_tag="review"))
        # The same holds for a token that carries the tag itself.
        payload = json.loads(urlsafe_b64decode(first.next_cursor.encode("ascii")))
        forged = urlsafe_b64encode(
            json.dumps(dict(payload, at="review"), separators=(",", ":")).encode("utf-8")
        ).decode("ascii")
        with pytest.raises(InvalidCursorError, match="malformed cursor constraints"):
            service.search(SearchRequest(cursor=forged))

    def test_cursor_round_trip_with_constraints(self):
        token = encode_cursor(
            ("gps",), "slca_struct", 3, 1, 5,
            within=("reviews", "review"), axis="ancestor", axis_tag="product",
        )
        cursor = decode_cursor(token)
        assert cursor.within == ("reviews", "review")
        assert cursor.axis == "ancestor"
        assert cursor.axis_tag == "product"
        assert (cursor.offset, cursor.page_size, cursor.semantics) == (3, 5, "slca_struct")

    def test_unconstrained_cursor_keeps_the_old_wire_format(self):
        token = encode_cursor(("gps",), "slca", 1, 0, 10)
        payload = json.loads(urlsafe_b64decode(token.encode("ascii")))
        assert set(payload) == {"v", "k", "s", "o", "cv", "ps"}  # no new keys
        cursor = decode_cursor(token)
        assert cursor.within == () and cursor.axis is None and cursor.axis_tag is None

    def test_malformed_constraint_fields_rejected(self):
        token = encode_cursor(("gps",), "slca", 0, 0, 10)
        payload = json.loads(urlsafe_b64decode(token.encode("ascii")))
        for damage in ({"w": "pros"}, {"w": ["pros", ""]}, {"a": 7}, {"at": ["x"]}):
            broken = dict(payload, **damage)
            encoded = urlsafe_b64encode(
                json.dumps(broken, separators=(",", ":")).encode("utf-8")
            ).decode("ascii")
            with pytest.raises(InvalidCursorError):
                decode_cursor(encoded)

    def test_search_request_codec_round_trip(self):
        request = SearchRequest(
            query="gps", within=("reviews/review",), axis="descendant", axis_tag="pros"
        )
        data = request.to_dict()
        assert data["within"] == ["reviews/review"]
        assert data["axis"] == "descendant"
        assert data["axis_tag"] == "pros"
        assert SearchRequest.from_dict(data) == request
        # Plain requests keep the pre-structural wire shape.
        plain = SearchRequest(query="gps").to_dict()
        assert "within" not in plain and "axis" not in plain and "axis_tag" not in plain


# --------------------------------------------------------------------------- #
# Snapshot persistence: round-trip, fallback, corruption battery
# --------------------------------------------------------------------------- #
def carve_v2(data):
    """Split a v2 snapshot into (corpus_version, name_bytes, head, records)."""
    magic = len(_MAGIC)
    fields = _HEADER.unpack_from(data, magic)
    name_start = magic + _HEADER.size
    name_bytes = data[name_start : name_start + fields[5]]
    body_start = name_start + fields[5] + 4  # + header crc32
    head = data[body_start : body_start + fields[3]]
    records = data[body_start + fields[3] :]
    assert len(records) == fields[4]
    return fields[1], name_bytes, head, records


def forge_v2(corpus_version, name_bytes, head, records):
    """Reassemble a v2 snapshot with recomputed checksums."""
    header = _MAGIC + _HEADER.pack(
        FORMAT_VERSION,
        corpus_version,
        zlib.crc32(head),
        len(head),
        len(records),
        len(name_bytes),
    ) + name_bytes
    header += struct.pack("<I", zlib.crc32(header))
    return header + head + records


def structure_section(corpus):
    """Reproduce the structural section bytes exactly as save_corpus writes them."""
    doc_ids = corpus.store.document_ids()
    section_tags = {}
    doc_tag_ids = {}
    for document in corpus.store:
        doc_tag_ids[document.doc_id] = [
            section_tags.setdefault(node.tag or "", len(section_tags))
            for node in document.root.iter_elements()
        ]
    writer = _Writer()
    _write_structure(writer, doc_ids, doc_tag_ids, list(section_tags))
    return writer.getvalue(), doc_ids, doc_tag_ids, list(section_tags)


def head_sections(corpus, head):
    """Split a head into (prefix, index, statistics, structure) byte strings.

    The prefix is the tokenizer fingerprint and the document directory.
    """
    structure, _, _, _ = structure_section(corpus)
    writer = _Writer()
    _write_statistics(writer, corpus.statistics)
    statistics = writer.getvalue()
    reader = _Reader(head)
    reader.varint()  # tokenizer fingerprint
    for _ in range(reader.varint()):
        _read_directory_entry(reader)
    index_end = len(head) - len(statistics) - len(structure)
    assert head[index_end:] == statistics + structure
    return head[: reader.offset], head[reader.offset : index_end], statistics, structure


def portable_signature(corpus, doc_id):
    """The per-element encoding with tag *names* (ids are table-local)."""
    structure = corpus.structure.get(doc_id)
    tags = corpus.structure.tags
    return [
        (
            str(structure.label_of(pre)),
            structure.end[pre],
            structure.last[pre],
            structure.parent[pre],
            tags.tag(structure.tag_ids[pre]),
        )
        for pre in range(len(structure))
    ]


STRUCT_QUERY = StructuredQuery.from_parts(
    "gps", within=("product",), axis="descendant", axis_tag="review"
)


class TestSnapshotStructure:
    def test_v2_round_trip_restores_structures(self, tmp_path):
        corpus = struct_corpus()
        path = tmp_path / "s.snap"
        save_corpus(corpus, path)
        loaded = Corpus.load(path)
        assert len(loaded.structure) == len(corpus.store)
        for doc_id in corpus.store.document_ids():
            assert portable_signature(loaded, doc_id) == portable_signature(corpus, doc_id)
        # The structures come from the head: no record was decoded for them.
        assert loaded.store.stats()["decodes"] == 0
        assert fingerprint(struct_search(loaded, STRUCT_QUERY)) == fingerprint(
            struct_search(corpus, STRUCT_QUERY)
        )

    def test_compressed_v2_round_trip_restores_structures(self, tmp_path):
        corpus = struct_corpus()
        path = tmp_path / "c.snap"
        save_corpus(corpus, path, compress=True)
        loaded = Corpus.load(path)
        assert len(loaded.structure) == len(corpus.store)
        for doc_id in corpus.store.document_ids():
            assert portable_signature(loaded, doc_id) == portable_signature(corpus, doc_id)
        assert loaded.store.stats()["decodes"] == 0

    def test_head_ends_with_the_structural_section(self, tmp_path):
        corpus = struct_corpus()
        path = tmp_path / "s.snap"
        save_corpus(corpus, path)
        _, _, head, _ = carve_v2(path.read_bytes())
        section, _, _, _ = structure_section(corpus)
        assert head.endswith(section)

    def test_head_without_structural_section_is_rejected(self, tmp_path):
        # A head that stops right after the statistics, checksums intact:
        # the structural section is mandatory, so the load names it.
        corpus = struct_corpus()
        path = tmp_path / "old.snap"
        save_corpus(corpus, path)
        version, name_bytes, head, records = carve_v2(path.read_bytes())
        section, _, _, _ = structure_section(corpus)
        stripped = tmp_path / "stripped.snap"
        stripped.write_bytes(forge_v2(version, name_bytes, head[: -len(section)], records))
        with pytest.raises(SnapshotFormatError, match="without the structural table section"):
            Corpus.load(stripped)

    def test_truncated_structural_section_names_the_section(self, tmp_path):
        corpus = struct_corpus()
        path = tmp_path / "s.snap"
        save_corpus(corpus, path)
        version, name_bytes, head, records = carve_v2(path.read_bytes())
        damaged = tmp_path / "trunc.snap"
        damaged.write_bytes(forge_v2(version, name_bytes, head[:-1], records))
        with pytest.raises(SnapshotFormatError, match="structural table section is damaged"):
            Corpus.load(damaged)

    def test_stale_tag_dictionary_is_detected(self, tmp_path):
        corpus = struct_corpus()
        path = tmp_path / "s.snap"
        save_corpus(corpus, path)
        version, name_bytes, head, records = carve_v2(path.read_bytes())
        section, doc_ids, doc_tag_ids, tags = structure_section(corpus)
        # Re-encode the section with the last tag dropped from the dictionary
        # while the per-document arrays still reference it.
        writer = _Writer()
        _write_structure(writer, doc_ids, doc_tag_ids, tags[:-1])
        stale_head = head[: -len(section)] + writer.getvalue()
        damaged = tmp_path / "stale.snap"
        damaged.write_bytes(forge_v2(version, name_bytes, stale_head, records))
        with pytest.raises(SnapshotFormatError, match="tag dictionary is stale"):
            Corpus.load(damaged)

    def test_corrupt_section_marker_is_detected(self, tmp_path):
        corpus = struct_corpus()
        path = tmp_path / "s.snap"
        save_corpus(corpus, path)
        version, name_bytes, head, records = carve_v2(path.read_bytes())
        section, _, _, _ = structure_section(corpus)
        flipped = bytes([section[0] ^ 0x01]) + section[1:]
        damaged = tmp_path / "marker.snap"
        damaged.write_bytes(forge_v2(version, name_bytes, head[: -len(section)] + flipped, records))
        with pytest.raises(SnapshotFormatError, match="structural table section has marker"):
            Corpus.load(damaged)

    def test_document_added_after_load_has_a_structure(self, tmp_path):
        corpus = struct_corpus()
        path = tmp_path / "s.snap"
        save_corpus(corpus, path)
        loaded = Corpus.load(path)
        markup = (
            "<product><name>delta gps</name>"
            "<reviews><review><pros>sturdy</pros></review></reviews></product>"
        )
        loaded.add_document("doc-d", parse_xml(markup))
        corpus.add_document("doc-d", parse_xml(markup))
        # Ingesting builds the new document's structure from the tree it is
        # given, so every document has one and nothing was decoded.
        assert len(loaded.structure) == len(loaded.store)
        assert loaded.store.stats()["decodes"] == 0
        assert portable_signature(loaded, "doc-d") == portable_signature(corpus, "doc-d")
        results = struct_search(loaded, STRUCT_QUERY)
        assert "doc-d" in {result.doc_id for result in results}


class TestSnapshotHeadChecks:
    """Byte surgery on the index and statistics sections, checksums intact."""

    def _forge(self, tmp_path, replace):
        corpus = struct_corpus()
        path = tmp_path / "s.snap"
        save_corpus(corpus, path)
        version, name_bytes, head, records = carve_v2(path.read_bytes())
        sections = list(head_sections(corpus, head))
        replace(sections)
        damaged = tmp_path / "damaged.snap"
        damaged.write_bytes(forge_v2(version, name_bytes, b"".join(sections), records))
        return damaged

    def test_term_listed_twice_is_rejected(self, tmp_path):
        def duplicate_first_term(sections):
            reader = _Reader(sections[1])
            terms = [reader.string() for _ in range(reader.varint())]
            writer = _Writer()
            writer.varint(len(terms))
            for term in [terms[0]] + terms[:-1]:
                writer.string(term)
            sections[1] = writer.getvalue() + sections[1][reader.offset :]

        damaged = self._forge(tmp_path, duplicate_first_term)
        with pytest.raises(SnapshotFormatError, match="index lists term 'alerts' twice"):
            Corpus.load(damaged)

    def test_zero_group_count_is_rejected(self, tmp_path):
        def zero_count(sections):
            writer = _Writer()
            writer.varint(1)
            writer.string("review")
            writer.varint(0)
            sections[2] = writer.getvalue()

        damaged = self._forge(tmp_path, zero_count)
        with pytest.raises(SnapshotFormatError, match="give tag 'review' no groups"):
            Corpus.load(damaged)

    def test_repeated_tag_is_rejected(self, tmp_path):
        def repeat_tag(sections):
            writer = _Writer()
            writer.varint(2)
            for _ in range(2):
                writer.string("review")
                writer.varint(1)
            sections[2] = writer.getvalue()

        damaged = self._forge(tmp_path, repeat_tag)
        with pytest.raises(SnapshotFormatError, match="list tag 'review' twice"):
            Corpus.load(damaged)

    @staticmethod
    def _edit_runs(sections, edit):
        """Decode the index section's tables, let ``edit`` change them, re-encode."""
        reader = _Reader(sections[1])
        terms = [reader.string() for _ in range(reader.varint())]
        tables = [reader.u32_array() for _ in range(3)]  # counts, meta, pre numbers
        assert reader.at_end()
        edit(terms, *tables)
        writer = _Writer()
        writer.varint(len(terms))
        for term in terms:
            writer.string(term)
        for table in tables:
            writer.u32_array(table)
        sections[1] = writer.getvalue()

    def test_document_listed_twice_under_a_term_is_rejected(self, tmp_path):
        # Loaded as is, the document's term list would name the term twice,
        # so a later remove_document would visit the bucket twice and drop
        # another document's run with it.
        def repeat_document(terms, run_counts, run_meta, element_refs):
            position = terms.index("gps")
            first_run = sum(run_counts[:position])
            assert run_counts[position] == 3  # doc-a, doc-b, doc-c
            run_meta[2 * (first_run + 1)] = run_meta[2 * first_run]

        damaged = self._forge(tmp_path, lambda sections: self._edit_runs(sections, repeat_document))
        with pytest.raises(SnapshotFormatError, match="lists document 'doc-a' twice under term 'gps'"):
            Corpus.load(damaged)

    def test_pre_number_past_the_document_is_rejected(self, tmp_path):
        # A pre number equal to the element count would make end[pre] raise
        # IndexError at query time.
        elements = len(struct_corpus().structure.get("doc-a"))

        def post_past_the_end(terms, run_counts, run_meta, element_refs):
            position = terms.index("gps")
            first_run = sum(run_counts[:position])
            first_ref = sum(run_meta[1 : 2 * first_run : 2])
            element_refs[first_ref] = elements

        damaged = self._forge(tmp_path, lambda sections: self._edit_runs(sections, post_past_the_end))
        with pytest.raises(
            SnapshotFormatError,
            match=f"posts element {elements} of document 'doc-a', which has {elements} elements",
        ):
            Corpus.load(damaged)


def rewrite_label_table(head, doc_id, edit):
    """Re-encode ``doc_id``'s directory label table after ``edit`` changes its depths.

    The table is the tail of the document's directory entry: per element a
    varint depth and, below the root, the last Dewey component.
    """
    reader = _Reader(head)
    reader.varint()  # tokenizer fingerprint
    for _ in range(reader.varint()):
        entry = _Reader(head)
        entry.offset = reader.offset
        if _read_directory_entry(reader)[0].doc_id == doc_id:
            break
    else:
        raise AssertionError(f"no directory entry for {doc_id!r}")
    entry.string()  # document id
    for _ in range(2 * entry.varint()):
        entry.string()  # metadata keys and values
    for _ in range(5):
        entry.varint()  # flags, record offset, stored and raw length, checksum
    count = entry.varint()
    start = entry.offset
    depths, lasts = [], []
    for _ in range(count):
        depths.append(entry.varint())
        lasts.append(entry.varint() if depths[-1] else 0)
    assert entry.offset == reader.offset
    edit(depths)
    writer = _Writer()
    for depth, last in zip(depths, lasts):
        writer.varint(depth)
        if depth:
            writer.varint(last)
    return head[:start] + writer.getvalue() + head[entry.offset :]


class TestSnapshotLabelTableChecks:
    """Byte surgery on the directory's label tables, checksums intact.

    Each damaged table must be refused at load, naming its document: the
    table is what a load rebuilds every document's structure from.
    """

    def _forge(self, tmp_path, edit):
        path = tmp_path / "s.snap"
        save_corpus(struct_corpus(), path)
        version, name_bytes, head, records = carve_v2(path.read_bytes())
        damaged = tmp_path / "damaged.snap"
        damaged.write_bytes(
            forge_v2(version, name_bytes, rewrite_label_table(head, "doc-b", edit), records)
        )
        return damaged

    def test_first_entry_below_the_root_is_rejected(self, tmp_path):
        def first_at_depth_one(depths):
            depths[0] = 1

        with pytest.raises(SnapshotFormatError, match="document 'doc-b'"):
            Corpus.load(self._forge(tmp_path, first_at_depth_one))

    def test_second_root_is_rejected(self, tmp_path):
        def second_root(depths):
            depths[-1] = 0

        with pytest.raises(SnapshotFormatError, match="document 'doc-b'"):
            Corpus.load(self._forge(tmp_path, second_root))

    def test_depth_jump_is_rejected(self, tmp_path):
        def jump_by_two(depths):
            assert depths[:2] == [0, 1]
            depths[1] = 2

        with pytest.raises(SnapshotFormatError, match="document 'doc-b'"):
            Corpus.load(self._forge(tmp_path, jump_by_two))

    def test_document_without_elements_is_rejected(self, tmp_path):
        # A directory entry that gives its document no elements: with no
        # root, every read of the document would fail, so the load refuses.
        writer = _Writer()
        writer.varint(tokenizer_fingerprint())
        writer.varint(1)  # one document
        writer.string("empty")
        writer.varint(0)  # no metadata
        for _ in range(4):
            writer.varint(0)  # flags, record offset, stored and raw length
        writer.varint(zlib.crc32(b""))
        writer.varint(0)  # element count; no label table follows
        writer.varint(0)  # index: no terms,
        for _ in range(3):
            writer.u32_array([])  # and empty run tables
        _write_statistics(writer, CorpusStatistics())
        _write_structure(writer, ["empty"], {"empty": []}, [])
        damaged = tmp_path / "empty.snap"
        damaged.write_bytes(forge_v2(0, b"forged", writer.getvalue(), b""))
        with pytest.raises(SnapshotFormatError, match="document 'empty'"):
            Corpus.load(damaged)


# --------------------------------------------------------------------------- #
# CLI end-to-end (structured query against a snapshot-loaded corpus)
# --------------------------------------------------------------------------- #
class TestCliStructured:
    def test_structured_search_on_snapshot(self, tmp_path):
        path = tmp_path / "cli.snap"
        save_corpus(struct_corpus(), path)
        out = io.StringIO()
        code = cli_main(
            [
                "search", "--snapshot", str(path), "--query", "gps",
                "--within", "product", "--axis", "descendant", "--axis-tag", "review",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "slca_struct" in text
        assert "result(s) for query" in text

    def test_axis_tag_without_axis_is_an_error(self, tmp_path):
        path = tmp_path / "cli.snap"
        save_corpus(struct_corpus(), path)
        out = io.StringIO()
        code = cli_main(
            ["search", "--snapshot", str(path), "--query", "gps", "--axis-tag", "review"],
            out=out,
        )
        assert code == 1
        assert "--axis" in out.getvalue()

    def test_bad_within_path_is_an_error(self, tmp_path):
        path = tmp_path / "cli.snap"
        save_corpus(struct_corpus(), path)
        out = io.StringIO()
        code = cli_main(
            ["search", "--snapshot", str(path), "--query", "gps", "--within", "a//b"],
            out=out,
        )
        assert code == 1
        assert "invalid tag path" in out.getvalue()
