"""Tests for the lazy document store and the v2 snapshot's lazy load path.

The central property: a lazily-loaded corpus is observationally equivalent to
the eager original — same ranked results, postings, document frequencies and
statistics — while only materialising the documents that are actually touched,
inside a bounded LRU.  Shared round-trip helpers come from ``test_snapshot``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from test_snapshot import assert_equivalent, ranked_signature, small_corpus, xml_trees

from repro.errors import (
    DocumentNotFoundError,
    SnapshotFormatError,
    StorageError,
)
from repro.storage.corpus import Corpus
from repro.storage.document_store import DocumentStore
from repro.storage.lazy_store import (
    DEFAULT_MAX_MATERIALISED,
    DocumentRecord,
    LazyDocumentStore,
)
from repro.storage.snapshot import read_snapshot_header
from repro.xmlmodel.parser import parse_xml

QUERIES = ["gps", "tomtom gps", "review rating", "compact"]


def saved_path(corpus, tmp_path, name="c.snap", **save_kwargs):
    path = tmp_path / name
    corpus.save(path, **save_kwargs)
    return path


def tree_signature(document):
    return [
        (n.tag, n.text, n.attributes, n.kind, n.label.components)
        for n in document.root.walk()
    ]


# --------------------------------------------------------------------------- #
# Lazy ≡ eager equivalence
# --------------------------------------------------------------------------- #
class TestLazyEquivalence:
    def test_lazy_load_is_equivalent(self, tmp_path):
        corpus = small_corpus()
        loaded = Corpus.load(saved_path(corpus, tmp_path))
        assert loaded.store.stats()["backend"] == "lazy"
        assert_equivalent(corpus, loaded, QUERIES)

    def test_lazy_equivalent_under_tiny_lru(self, tmp_path):
        corpus = small_corpus()
        loaded = Corpus.load(saved_path(corpus, tmp_path), max_materialised=1)
        assert_equivalent(corpus, loaded, QUERIES)
        # The equivalence walk touched both documents with a one-slot LRU,
        # so eviction and re-decode genuinely happened along the way.
        stats = loaded.store.stats()
        assert stats["evictions"] > 0
        assert stats["materialised"] <= 1

    def test_eager_v2_load_is_equivalent(self, tmp_path):
        corpus = small_corpus()
        loaded = Corpus.load(saved_path(corpus, tmp_path), eager=True)
        assert loaded.store.stats()["backend"] == "eager"
        assert_equivalent(corpus, loaded, QUERIES)

    def test_compressed_records_round_trip(self, tmp_path):
        corpus = small_corpus()
        path = saved_path(corpus, tmp_path, compress=True)
        assert_equivalent(corpus, Corpus.load(path), QUERIES)
        assert_equivalent(corpus, Corpus.load(path, eager=True), QUERIES)

    def test_empty_corpus_loads_lazily(self, tmp_path):
        corpus = Corpus(DocumentStore(), name="empty")
        loaded = Corpus.load(saved_path(corpus, tmp_path))
        assert loaded.store.stats()["backend"] == "lazy"
        assert len(loaded.store) == 0
        assert loaded.store.total_elements() == 0

    @settings(max_examples=25, deadline=None)
    @given(trees=st.lists(xml_trees(), min_size=1, max_size=4))
    def test_lazy_equals_eager_property(self, tmp_path_factory, trees):
        store = DocumentStore()
        for position, tree in enumerate(trees):
            store.add(f"doc{position}", tree)
        corpus = Corpus(store, name="property")
        path = tmp_path_factory.mktemp("lazy") / "p.snap"
        corpus.save(path)
        vocabulary = corpus.index.vocabulary()
        queries = vocabulary[:4]
        if len(vocabulary) >= 2:
            queries.append(f"{vocabulary[0]} {vocabulary[1]}")
        # Lazy with a deliberately tiny LRU (forces eviction/re-decode mid
        # walk) and forced-eager both reproduce the fresh build exactly.
        lazy = Corpus.load(path, max_materialised=2)
        assert_equivalent(corpus, lazy, queries)
        eager = Corpus.load(path, eager=True)
        assert_equivalent(corpus, eager, queries)


# --------------------------------------------------------------------------- #
# LRU eviction and re-decode determinism
# --------------------------------------------------------------------------- #
class TestBoundedMaterialisation:
    def test_eviction_and_redecode_are_deterministic(self, tmp_path):
        corpus = small_corpus()
        loaded = Corpus.load(saved_path(corpus, tmp_path), max_materialised=1)
        store = loaded.store
        first = {doc_id: tree_signature(store.get(doc_id)) for doc_id in store.document_ids()}
        # Every access after the first evicted the other document; a second
        # round decodes each again and must reproduce the same tree.
        second = {doc_id: tree_signature(store.get(doc_id)) for doc_id in store.document_ids()}
        assert first == second
        stats = store.stats()
        assert stats["decodes"] == 4  # 2 documents x 2 rounds, 1-slot LRU
        assert stats["evictions"] == 3  # every insertion but the last evicted
        assert stats["materialised"] == 1

    def test_zero_bound_disables_eviction(self, tmp_path):
        corpus = small_corpus()
        loaded = Corpus.load(saved_path(corpus, tmp_path), max_materialised=0)
        store = loaded.store
        assert store.max_materialised is None
        for doc_id in store.document_ids():
            store.get(doc_id)
            store.get(doc_id)
        stats = store.stats()
        assert stats["evictions"] == 0
        assert stats["decodes"] == len(corpus.store)
        assert stats["materialised"] == len(corpus.store)

    def test_default_bound_applied(self, tmp_path):
        loaded = Corpus.load(saved_path(small_corpus(), tmp_path))
        assert loaded.store.max_materialised == DEFAULT_MAX_MATERIALISED

    def test_iteration_is_transient(self, tmp_path):
        corpus = small_corpus()
        loaded = Corpus.load(saved_path(corpus, tmp_path), max_materialised=1)
        store = loaded.store
        store.get("p1")  # hot document, 1 decode
        for document in store:  # p1 served from LRU, p2 decoded transiently
            assert document.root.is_element
        stats = store.stats()
        assert stats["decodes"] == 2
        assert stats["materialised"] == 1
        store.get("p1")  # still materialised: the scan did not evict it
        assert store.stats()["decodes"] == 2

    def test_total_elements_without_materialising(self, tmp_path):
        corpus = small_corpus()
        loaded = Corpus.load(saved_path(corpus, tmp_path))
        assert loaded.store.total_elements() == corpus.store.total_elements()
        assert loaded.store.stats()["decodes"] == 0


# --------------------------------------------------------------------------- #
# Mutation after a lazy load
# --------------------------------------------------------------------------- #
class TestMutationAfterLazyLoad:
    def test_add_document_matches_eager_mutation(self, tmp_path):
        extra = "<product><name>Magellan RoadMate GPS</name><price>99</price></product>"
        loaded = Corpus.load(saved_path(small_corpus(), tmp_path))
        loaded.add_document("p3", parse_xml(extra))
        expected = small_corpus()
        expected.add_document("p3", parse_xml(extra))
        assert loaded.store.stats()["resident"] == 1
        assert_equivalent(expected, loaded, QUERIES + ["magellan"])

    def test_remove_document_matches_eager_mutation(self, tmp_path):
        loaded = Corpus.load(saved_path(small_corpus(), tmp_path))
        loaded.remove_document("p1")
        expected = small_corpus()
        expected.remove_document("p1")
        assert loaded.store.document_ids() == ["p2"]
        assert_equivalent(expected, loaded, QUERIES)

    def test_promote_pins_document_across_eviction(self, tmp_path):
        loaded = Corpus.load(saved_path(small_corpus(), tmp_path), max_materialised=1)
        store = loaded.store
        pinned = store.promote("p1")
        pinned.metadata["pinned"] = "yes"
        for _ in range(3):  # churn the one-slot LRU with the other document
            store.get("p2")
        assert store.get("p1") is pinned
        assert store.get("p1").metadata["pinned"] == "yes"
        stats = store.stats()
        assert stats["promotions"] == 1
        assert stats["resident"] == 1
        assert store.promote("p1") is pinned  # idempotent, still one promotion
        assert store.stats()["promotions"] == 1

    def test_unpromoted_edits_revert_on_eviction(self, tmp_path):
        # The copy-on-write hazard promote() exists for: without promotion,
        # an edit to a materialised document is undone by eviction + re-decode.
        loaded = Corpus.load(saved_path(small_corpus(), tmp_path), max_materialised=1)
        store = loaded.store
        store.get("p1").metadata["edited"] = "lost"
        store.get("p2")  # evicts p1
        assert "edited" not in store.get("p1").metadata

    def test_resave_after_lazy_load_round_trips(self, tmp_path):
        corpus = small_corpus()
        loaded = Corpus.load(saved_path(corpus, tmp_path))
        loaded.store.promote("p1")
        resaved = Corpus.load(saved_path(loaded, tmp_path, name="resaved.snap"))
        assert_equivalent(corpus, resaved, QUERIES)


# --------------------------------------------------------------------------- #
# Truncation names the offending record
# --------------------------------------------------------------------------- #
class TestRecordTruncation:
    def _truncate_to(self, path, keep_records):
        """Cut the file so only ``keep_records`` record-section bytes remain."""
        data = path.read_bytes()
        header = read_snapshot_header(path)
        head_end = len(data) - header.record_length
        path.write_bytes(data[: head_end + keep_records])

    def test_header_check_names_first_cut_record(self, tmp_path):
        path = saved_path(small_corpus(), tmp_path)
        self._truncate_to(path, 1)  # cuts inside p1, the first record
        with pytest.raises(SnapshotFormatError, match="'p1'"):
            read_snapshot_header(path)

    def test_header_check_names_later_cut_record(self, tmp_path):
        path = saved_path(small_corpus(), tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-4])  # cuts the tail of p2, the last record
        with pytest.raises(SnapshotFormatError, match="'p2'"):
            read_snapshot_header(path)

    def test_load_names_cut_record(self, tmp_path):
        path = saved_path(small_corpus(), tmp_path)
        self._truncate_to(path, 1)
        with pytest.raises(SnapshotFormatError, match="'p1'"):
            Corpus.load(path)
        path2 = saved_path(small_corpus(), tmp_path, name="tail.snap")
        path2.write_bytes(path2.read_bytes()[:-4])
        with pytest.raises(SnapshotFormatError, match="'p2'"):
            Corpus.load(path2)


# --------------------------------------------------------------------------- #
# Store-level unit behaviour (fake loader, no snapshot involved)
# --------------------------------------------------------------------------- #
def _record(doc_id, element_count=2, metadata=None):
    return DocumentRecord(
        doc_id=doc_id,
        offset=0,
        stored_length=1,
        raw_length=1,
        checksum=0,
        compressed=False,
        element_count=element_count,
        metadata=metadata or {},
    )


def _loader(record):
    return parse_xml(f"<doc><name>{record.doc_id}</name></doc>")


class TestLazyStoreUnit:
    def test_duplicate_record_ids_rejected(self):
        with pytest.raises(StorageError, match="duplicate"):
            LazyDocumentStore([_record("a"), _record("a")], _loader)

    def test_non_positive_bound_rejected(self):
        with pytest.raises(StorageError, match="positive"):
            LazyDocumentStore([_record("a")], _loader, max_materialised=0)

    def test_unknown_document_raises(self):
        store = LazyDocumentStore([_record("a")], _loader)
        with pytest.raises(DocumentNotFoundError):
            store.get("missing")
        with pytest.raises(DocumentNotFoundError):
            store.promote("missing")
        with pytest.raises(DocumentNotFoundError):
            store.remove("missing")

    def test_add_duplicate_of_lazy_document_rejected(self):
        store = LazyDocumentStore([_record("a")], _loader)
        with pytest.raises(StorageError, match="duplicate"):
            store.add("a", parse_xml("<doc/>"))

    def test_remove_returns_materialised_tree(self):
        store = LazyDocumentStore([_record("a"), _record("b")], _loader)
        removed = store.remove("a")
        assert removed.root.is_element
        assert "a" not in store
        assert store.document_ids() == ["b"]
        with pytest.raises(DocumentNotFoundError):
            store.get("a")

    def test_insertion_order_spans_lazy_and_added(self):
        store = LazyDocumentStore([_record("a"), _record("b")], _loader)
        store.add("c", parse_xml("<doc><x>new</x></doc>"))
        assert store.document_ids() == ["a", "b", "c"]
        assert [document.doc_id for document in store] == ["a", "b", "c"]
        assert len(store) == 3

    def test_total_elements_mixes_directory_and_overlay(self):
        store = LazyDocumentStore([_record("a", element_count=5)], _loader)
        store.add("c", parse_xml("<doc><x>new</x></doc>"))  # 2 elements
        assert store.total_elements() == 7
        assert store.stats()["decodes"] == 0

    def test_metadata_is_fresh_per_materialisation(self):
        store = LazyDocumentStore(
            [_record("a", metadata={"k": "v"})], _loader, max_materialised=1
        )
        assert store.get("a").metadata == {"k": "v"}

    def test_close_is_idempotent(self):
        calls = []
        store = LazyDocumentStore([_record("a")], _loader, closer=lambda: calls.append(1))
        store.close()
        store.close()
        assert calls == [1]

    def test_stats_shape(self):
        store = LazyDocumentStore([_record("a")], _loader, max_materialised=7)
        stats = store.stats()
        assert stats == {
            "backend": "lazy",
            "documents": 1,
            "materialised": 0,
            "resident": 0,
            "max_materialised": 7,
            "decodes": 0,
            "evictions": 0,
            "promotions": 0,
        }
