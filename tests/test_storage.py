"""Unit tests for the storage substrate: tokenizer, document store, index, statistics."""

import pytest

from repro.errors import DocumentNotFoundError, IndexError_, StorageError
from repro.storage.corpus import Corpus
from repro.storage.document_store import DocumentStore
from repro.storage.inverted_index import InvertedIndex, Posting
from repro.storage.statistics import CorpusStatistics
from repro.storage.term_dictionary import TermDictionary
from repro.storage.tokenizer import STOPWORDS, tokenize, tokenize_many
from repro.xmlmodel.builder import element
from repro.xmlmodel.dewey import DeweyLabel
from repro.xmlmodel.node import XMLNode
from repro.xmlmodel.parser import parse_xml


class TestTokenizer:
    def test_lowercase_and_split(self):
        assert tokenize("TomTom, GPS!") == ["tomtom", "gps"]

    def test_stopwords_removed(self):
        assert tokenize("the best of GPS") == ["best", "gps"]

    def test_stopwords_kept_when_disabled(self):
        assert "the" in tokenize("the gps", drop_stopwords=False)

    def test_digits_kept(self):
        assert tokenize("Go 630") == ["go", "630"]

    def test_single_letters_dropped(self):
        assert tokenize("a b c 7") == ["7"]

    def test_underscores_split(self):
        assert tokenize("easy_to_read") == ["easy", "read"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_stopword_list_is_frozen(self):
        assert "the" in STOPWORDS
        with pytest.raises(AttributeError):
            STOPWORDS.add("new")  # frozenset has no add


class TestTokenizeMany:
    def test_matches_per_text_tokenize_concatenation(self):
        texts = ["TomTom, GPS!", "", "the best of GPS", "easy_to_read 630"]
        expected = [token for text in texts for token in tokenize(text)]
        assert tokenize_many(texts) == expected

    def test_empty_inputs(self):
        assert tokenize_many([]) == []
        assert tokenize_many(["", ""]) == []

    def test_single_text_fast_path(self):
        assert tokenize_many(["TomTom GPS"]) == ["tomtom", "gps"]

    def test_boundary_never_fuses_tokens(self):
        # "gp" + "s" joined must not become "gps".
        assert tokenize_many(["gp", "gps"]) == ["gp", "gps"]

    def test_stopword_flag_forwarded(self):
        assert "the" in tokenize_many(["the gps", "the map"], drop_stopwords=False)
        assert "the" not in tokenize_many(["the gps", "the map"])

    def test_accepts_generators(self):
        assert tokenize_many(text for text in ["alpha", "beta"]) == ["alpha", "beta"]


class TestTermDictionary:
    def test_intern_assigns_dense_stable_ids(self):
        dictionary = TermDictionary()
        assert dictionary.intern("gps") == 0
        assert dictionary.intern("tomtom") == 1
        assert dictionary.intern("gps") == 0  # idempotent
        assert len(dictionary) == 2

    def test_term_round_trip(self):
        dictionary = TermDictionary()
        term_id = dictionary.intern("garmin")
        assert dictionary.term(term_id) == "garmin"

    def test_lookup_never_inserts(self):
        dictionary = TermDictionary()
        assert dictionary.lookup("unknown") is None
        assert len(dictionary) == 0
        dictionary.intern("gps")
        assert dictionary.lookup("gps") == 0

    def test_intern_many_preserves_order_and_duplicates(self):
        dictionary = TermDictionary()
        assert dictionary.intern_many(["b", "a", "b"]) == [0, 1, 0]
        assert list(dictionary) == ["b", "a"]

    def test_contains_and_repr(self):
        dictionary = TermDictionary()
        dictionary.intern("gps")
        assert "gps" in dictionary
        assert "tomtom" not in dictionary
        assert "terms=1" in repr(dictionary)


def sample_store() -> DocumentStore:
    store = DocumentStore()
    store.add("d1", parse_xml("<product><name>TomTom GPS</name><price>100</price></product>"))
    store.add("d2", parse_xml("<product><name>Garmin GPS</name><price>200</price></product>"))
    return store


class TestDocumentStore:
    def test_add_and_get(self):
        store = sample_store()
        assert store.get("d1").root.tag == "product"
        assert len(store) == 2
        assert "d1" in store and "d3" not in store

    def test_duplicate_id_rejected(self):
        store = sample_store()
        with pytest.raises(StorageError):
            store.add("d1", XMLNode.element("x"))

    def test_text_root_rejected(self):
        store = DocumentStore()
        with pytest.raises(StorageError):
            store.add("bad", XMLNode.text_node("oops"))

    def test_missing_document_raises(self):
        store = sample_store()
        with pytest.raises(DocumentNotFoundError):
            store.get("nope")
        with pytest.raises(DocumentNotFoundError):
            store.remove("nope")

    def test_remove_and_clear(self):
        store = sample_store()
        store.remove("d1")
        assert len(store) == 1
        store.clear()
        assert len(store) == 0

    def test_node_at(self):
        store = sample_store()
        node = store.node_at("d1", DeweyLabel((0,)))
        assert node.tag == "name"

    def test_total_elements(self):
        store = sample_store()
        assert store.total_elements() == 6

    def test_save_and_load_round_trip(self, tmp_path):
        store = sample_store()
        written = store.save_to_directory(tmp_path)
        assert len(written) == 2
        loaded = DocumentStore.load_from_directory(tmp_path)
        assert loaded.document_ids() == ["d1", "d2"]
        assert loaded.get("d2").root.find_child("name").direct_text() == "Garmin GPS"

    def test_load_from_missing_directory_raises(self, tmp_path):
        with pytest.raises(StorageError):
            DocumentStore.load_from_directory(tmp_path / "missing")


class TestInvertedIndex:
    def test_postings_sorted_in_document_order(self):
        store = sample_store()
        index = InvertedIndex.build(store)
        postings = index.postings("gps")
        assert [posting.doc_id for posting in postings] == ["d1", "d2"]
        assert all(isinstance(posting.label, DeweyLabel) for posting in postings)

    def test_tag_terms_indexed(self):
        store = sample_store()
        index = InvertedIndex.build(store)
        assert index.collection_frequency("price") == 2

    def test_document_frequency(self):
        store = sample_store()
        index = InvertedIndex.build(store)
        assert index.document_frequency("tomtom") == 1
        assert index.document_frequency("gps") == 2
        assert index.document_frequency("missing") == 0

    def test_contains_and_len(self):
        index = InvertedIndex.build(sample_store())
        assert "gps" in index
        assert "zebra" not in index
        assert len(index) > 0

    def test_multi_token_postings_lookup_rejected(self):
        index = InvertedIndex.build(sample_store())
        with pytest.raises(IndexError_):
            index.postings("tomtom gps")

    def test_keyword_node_lists_order_preserved(self):
        index = InvertedIndex.build(sample_store())
        lists = index.keyword_node_lists(["tomtom", "gps"])
        assert len(lists) == 2
        assert len(lists[0]) == 1 and len(lists[1]) == 2

    def test_documents_containing_all(self):
        index = InvertedIndex.build(sample_store())
        assert index.documents_containing_all(["gps"]) == ["d1", "d2"]
        assert index.documents_containing_all(["tomtom", "gps"]) == ["d1"]
        assert index.documents_containing_all(["tomtom", "garmin"]) == []
        assert index.documents_containing_all([]) == []

    def test_postings_for_document(self):
        index = InvertedIndex.build(sample_store())
        assert all(p.doc_id == "d2" for p in index.postings_for_document("gps", "d2"))

    def test_attribute_values_indexed(self):
        store = DocumentStore()
        store.add("d", parse_xml('<item kind="waterproof jacket"><name>x</name></item>'))
        index = InvertedIndex.build(store)
        assert index.collection_frequency("waterproof") == 1

    def test_attribute_values_counted_in_document_frequency(self):
        # Regression: the index must count attribute values towards document
        # frequencies as it posts them, or attribute-only terms get a df of 0
        # and the maximum possible idf.
        store = DocumentStore()
        store.add("d1", parse_xml('<item kind="waterproof"><name>x</name></item>'))
        store.add("d2", parse_xml('<item kind="waterproof"><name>y</name></item>'))
        index = InvertedIndex.build(store)
        assert index.document_frequency("waterproof") == 2

    def test_duplicate_doc_id_rejected_without_side_effects(self):
        # Regression: re-adding a doc_id used to duplicate postings and
        # double-count document frequencies.
        store = sample_store()
        index = InvertedIndex.build(store)
        postings_before = index.postings("gps")
        with pytest.raises(IndexError_):
            index.add_document("d1", store.get("d1").root)
        assert index.postings("gps") == postings_before
        assert index.document_frequency("gps") == 2
        assert index.documents_indexed == 2

    def test_incremental_adds_keep_postings_sorted(self):
        # Documents added out of lexicographic id order must still yield
        # globally sorted posting lists after the lazy finalize.
        index = InvertedIndex()
        index.add_document("z", parse_xml("<product><name>Shared GPS</name></product>"))
        index.add_document("a", parse_xml("<product><name>Shared GPS</name></product>"))
        index.add_document("m", parse_xml("<product><name>Shared GPS</name></product>"))
        assert [p.doc_id for p in index.postings("gps")] == ["a", "m", "z"]
        assert [p.doc_id for p in index.postings("shared")] == ["a", "m", "z"]

    def test_postings_for_document_uses_offset_slices(self):
        store = DocumentStore()
        store.add("a", parse_xml("<r><x>gps</x><x>gps</x></r>"))
        store.add("b", parse_xml("<r><x>gps</x></r>"))
        index = InvertedIndex.build(store)
        assert len(index.postings_for_document("gps", "a")) == 2
        assert len(index.postings_for_document("gps", "b")) == 1
        assert index.postings_for_document("gps", "missing") == []
        assert index.postings_for_document("absentterm", "a") == []

    def test_keyword_node_lists_copies_are_safe_to_mutate(self):
        # The public form returns copies, so caller mutation cannot corrupt
        # the index; copy=False exists for trusted read-only hot paths.
        index = InvertedIndex.build(sample_store())
        lists = index.keyword_node_lists(["gps"])
        lists[0].clear()
        assert len(index.postings("gps")) == 2
        views = index.keyword_node_lists(["gps"], copy=False)
        assert views[0] == index.postings("gps")

    def test_keyword_node_lists_are_stable_snapshots(self):
        # Regression: the internal buckets are copy-on-write, so even a
        # zero-copy view handed out before a mutation must not change under
        # its holder.
        index = InvertedIndex.build(sample_store())
        held = index.keyword_node_lists(["gps"], copy=False)[0]
        snapshot = list(held)
        index.add_document("d3", parse_xml("<product><name>Magellan GPS</name></product>"))
        assert len(index.postings("gps")) == 3  # triggers finalize of the new state
        assert held == snapshot

    def test_finalize_is_idempotent_and_lazy(self):
        index = InvertedIndex()
        index.add_document("d", parse_xml("<product><name>TomTom</name></product>"))
        index.finalize()
        index.finalize()
        assert [p.doc_id for p in index.postings("tomtom")] == ["d"]

    def test_out_of_order_doc_ids_merge_with_unsorted_runs(self):
        # Exercises the run-rearranging branch of finalize (documents added
        # out of id order) including per-document offset correctness.
        index = InvertedIndex()
        index.add_document("z", parse_xml("<r><x>gps</x><x>gps</x></r>"))
        index.add_document("a", parse_xml("<r><x>gps</x></r>"))
        assert [p.doc_id for p in index.postings("gps")] == ["a", "z", "z"]
        assert len(index.postings_for_document("gps", "z")) == 2
        assert len(index.postings_for_document("gps", "a")) == 1

    def test_postings_are_keyed_by_interned_term_ids(self):
        index = InvertedIndex.build(sample_store())
        term_id = index.dictionary.lookup("gps")
        assert isinstance(term_id, int)
        assert index.postings_by_id(term_id) == index.postings("gps")
        # Querying unknown keywords must not grow the dictionary.
        size_before = len(index.dictionary)
        index.postings("nonexistentterm")
        assert index.keyword_node_lists(["anothermissing"]) == [[]]
        assert len(index.dictionary) == size_before

    def test_shared_dictionary_is_used(self):
        dictionary = TermDictionary()
        dictionary.intern("preexisting")
        index = InvertedIndex.build(sample_store(), dictionary=dictionary)
        assert index.dictionary is dictionary
        assert dictionary.lookup("gps") is not None


class TestInvertedIndexRemoval:
    def test_remove_document_matches_fresh_build(self):
        full = InvertedIndex.build(sample_store())
        full.remove_document("d1")
        rest = DocumentStore()
        rest.add("d2", parse_xml("<product><name>Garmin GPS</name><price>200</price></product>"))
        fresh = InvertedIndex.build(rest)
        assert full.vocabulary() == fresh.vocabulary()
        for term in fresh.vocabulary():
            assert full.postings(term) == fresh.postings(term)
            assert full.document_frequency(term) == fresh.document_frequency(term)
            assert full.collection_frequency(term) == fresh.collection_frequency(term)
        assert full.documents_indexed == 1

    def test_remove_unknown_document_raises_without_side_effects(self):
        index = InvertedIndex.build(sample_store())
        with pytest.raises(IndexError_):
            index.remove_document("ghost")
        assert index.documents_indexed == 2
        assert index.document_frequency("gps") == 2

    def test_remove_then_re_add_same_id(self):
        index = InvertedIndex.build(sample_store())
        index.remove_document("d1")
        index.add_document("d1", parse_xml("<product><name>Replacement GPS</name></product>"))
        assert index.document_frequency("gps") == 2
        assert index.document_frequency("replacement") == 1
        assert index.document_frequency("tomtom") == 0

    def test_remove_before_finalize(self):
        # Removal of a document whose postings were never finalized must
        # filter the dirty buckets correctly.
        index = InvertedIndex()
        index.add_document("a", parse_xml("<r><x>gps</x></r>"))
        index.add_document("b", parse_xml("<r><x>gps</x></r>"))
        index.remove_document("a")
        assert [p.doc_id for p in index.postings("gps")] == ["b"]

    def test_remove_last_document_empties_bucket(self):
        index = InvertedIndex.build(sample_store())
        index.remove_document("d1")
        index.remove_document("d2")
        assert index.postings("gps") == []
        assert "gps" not in index
        assert len(index) == 0
        assert index.documents_indexed == 0

    def test_removal_keeps_held_snapshots_stable(self):
        # Posting lists handed out before a removal must not change under
        # their holder (buckets are replaced, never mutated in place).
        index = InvertedIndex.build(sample_store())
        held = index.keyword_node_lists(["gps"], copy=False)[0]
        snapshot = list(held)
        index.remove_document("d1")
        assert len(index.postings("gps")) == 1
        assert held == snapshot

    def test_removed_term_id_stays_reserved_in_dictionary(self):
        index = InvertedIndex.build(sample_store())
        term_id = index.dictionary.lookup("tomtom")
        index.remove_document("d1")  # the only document containing "tomtom"
        assert index.dictionary.lookup("tomtom") == term_id
        assert index.postings_by_id(term_id) == []


class TestCorpusStatistics:
    def test_path_counts(self):
        stats = CorpusStatistics.build(sample_store())
        summary = stats.path_summary(("product", "name"))
        assert summary.count == 2
        assert summary.leaf_count == 2
        assert summary.leaf_fraction == 1.0

    def test_repeating_detection(self):
        store = DocumentStore()
        store.add("d", parse_xml("<r><item/><item/><other/></r>"))
        stats = CorpusStatistics.build(store)
        assert stats.tag_is_repeating("item")
        assert not stats.tag_is_repeating("other")
        assert not stats.tag_is_repeating("missing")

    def test_document_and_element_counts(self):
        stats = CorpusStatistics.build(sample_store())
        assert stats.document_count == 2
        assert stats.total_elements == 6
        assert stats.average_document_elements == 3.0

    def test_distinct_values_tracked(self):
        stats = CorpusStatistics.build(sample_store())
        summary = stats.path_summary(("product", "price"))
        assert summary.distinct_values == 2

    def test_empty_statistics(self):
        stats = CorpusStatistics()
        assert stats.document_count == 0
        assert stats.average_document_elements == 0.0


class TestCorpusStatisticsRemoval:
    def _snapshot(self, stats):
        return {
            summary.path: (
                summary.count,
                summary.max_siblings,
                summary.leaf_count,
                summary.distinct_values,
            )
            for summary in stats.iter_paths()
        }

    def test_remove_document_matches_fresh_build(self):
        store = sample_store()
        stats = CorpusStatistics.build(store)
        stats.remove_document(store.get("d1").root)
        rest = DocumentStore()
        rest.add("d2", parse_xml("<product><name>Garmin GPS</name><price>200</price></product>"))
        fresh = CorpusStatistics.build(rest)
        assert self._snapshot(stats) == self._snapshot(fresh)
        assert stats.document_count == fresh.document_count
        assert stats.total_elements == fresh.total_elements

    def test_max_siblings_recomputed_from_surviving_runs(self):
        store = DocumentStore()
        store.add("many", parse_xml("<r><item/><item/><item/></r>"))
        store.add("few", parse_xml("<r><item/><item/></r>"))
        stats = CorpusStatistics.build(store)
        assert stats.path_summary(("r", "item")).max_siblings == 3
        stats.remove_document(store.get("many").root)
        assert stats.path_summary(("r", "item")).max_siblings == 2
        stats.remove_document(store.get("few").root)
        assert stats.path_summary(("r", "item")) is None

    def test_distinct_values_survive_shared_occurrences(self):
        store = DocumentStore()
        store.add("a", parse_xml("<p><name>shared</name></p>"))
        store.add("b", parse_xml("<p><name>shared</name></p>"))
        stats = CorpusStatistics.build(store)
        assert stats.path_summary(("p", "name")).distinct_values == 1
        stats.remove_document(store.get("a").root)
        # The value still occurs in "b", so it must not disappear.
        assert stats.path_summary(("p", "name")).distinct_values == 1


class TestCorpus:
    def test_corpus_bundles_store_index_statistics(self):
        corpus = Corpus(sample_store(), name="sample")
        assert corpus.index.document_frequency("gps") == 2
        assert corpus.statistics.document_count == 2
        description = corpus.describe()
        assert description["documents"] == 2.0
        assert "sample" in repr(corpus)

    def test_refresh_after_adding_document(self):
        corpus = Corpus(sample_store())
        corpus.store.add("d3", parse_xml("<product><name>Magellan GPS</name></product>"))
        assert corpus.index.document_frequency("magellan") == 0
        corpus.refresh()
        assert corpus.index.document_frequency("magellan") == 1

    def test_corpus_from_directory(self, tmp_path):
        sample_store().save_to_directory(tmp_path)
        corpus = Corpus.from_directory(tmp_path)
        assert len(corpus.store) == 2
        assert corpus.name == tmp_path.name

    def test_add_document_rolls_back_store_when_index_rejects(self):
        # Direct store.remove leaves the id in the index; the next
        # corpus.add_document of that id must fail without splitting the
        # store and the index apart.
        corpus = Corpus(sample_store())
        corpus.store.remove("d1")
        with pytest.raises(IndexError_):
            corpus.add_document("d1", parse_xml("<product><name>New</name></product>"))
        assert "d1" not in corpus.store
        assert corpus.version == 0

    def test_version_bumps_on_refresh(self):
        corpus = Corpus(sample_store())
        assert corpus.version == 0
        corpus.refresh()
        assert corpus.version == 1

    def test_incremental_add_document_updates_index_and_statistics(self):
        corpus = Corpus(sample_store())
        version_before = corpus.version
        corpus.add_document("d3", parse_xml("<product><name>Magellan GPS</name></product>"))
        assert corpus.version == version_before + 1
        assert corpus.index.document_frequency("magellan") == 1
        assert corpus.index.document_frequency("gps") == 3
        assert corpus.statistics.document_count == 3
        assert [p.doc_id for p in corpus.index.postings("gps")] == ["d1", "d2", "d3"]

    def test_incremental_remove_document_updates_everything(self):
        corpus = Corpus(sample_store())
        version_before = corpus.version
        corpus.remove_document("d1")
        assert corpus.version == version_before + 1
        assert "d1" not in corpus.store
        assert corpus.index.document_frequency("tomtom") == 0
        assert corpus.index.document_frequency("gps") == 1
        assert corpus.statistics.document_count == 1
        assert [p.doc_id for p in corpus.index.postings("gps")] == ["d2"]

    def test_remove_unknown_document_raises_without_mutation(self):
        corpus = Corpus(sample_store())
        with pytest.raises(DocumentNotFoundError):
            corpus.remove_document("ghost")
        assert corpus.version == 0
        assert len(corpus.store) == 2
        assert corpus.index.documents_indexed == 2

    def test_remove_then_add_round_trips(self):
        corpus = Corpus(sample_store())
        root = corpus.store.get("d1").root
        corpus.remove_document("d1")
        corpus.add_document("d1", root)
        assert corpus.version == 2
        assert corpus.index.document_frequency("gps") == 2
        assert [p.doc_id for p in corpus.index.postings("gps")] == ["d1", "d2"]
