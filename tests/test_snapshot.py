"""Tests for the binary corpus snapshot subsystem (save / load / failure modes)."""

import io
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.errors import (
    SnapshotError,
    SnapshotFormatError,
    SnapshotVersionError,
    StorageError,
)
from repro.search.engine import SearchEngine
from repro.storage.corpus import Corpus
from repro.storage.document_store import DocumentStore
from repro.storage.snapshot import FORMAT_VERSION, read_snapshot_header
from repro.xmlmodel.builder import TreeBuilder
from repro.xmlmodel.parser import parse_xml


DATA_DIR = Path(__file__).parent / "data"

PRODUCT_XML = (
    '<product sku="TT-630" lang="en"><name>TomTom Go 630 GPS</name><price>199</price>'
    "<reviews>"
    "<review><review_rating>5</review_rating><pros><compact>yes</compact></pros></review>"
    "<review><review_rating>3</review_rating><pros><compact>yes</compact></pros></review>"
    "</reviews></product>"
)


def small_corpus() -> Corpus:
    store = DocumentStore()
    store.add("p1", parse_xml(PRODUCT_XML), metadata={"dataset": "tiny", "source": "inline"})
    store.add(
        "p2",
        parse_xml(
            "<product><name>Garmin Nuvi 200 GPS</name><price>149</price>"
            "<reviews><review><review_rating>4</review_rating></review></reviews></product>"
        ),
    )
    return Corpus(store, name="tiny")


def ranked_signature(corpus: Corpus, query: str, semantics: str = "slca"):
    engine = SearchEngine(corpus, semantics=semantics, cache_size=0)
    return [
        (r.doc_id, str(r.match_label), str(r.return_label), r.score, r.title)
        for r in engine.search(query)
    ]


def assert_equivalent(original: Corpus, loaded: Corpus, queries) -> None:
    """The round-trip property: loaded ≡ original on every observable."""
    assert loaded.name == original.name
    assert loaded.version == original.version
    assert loaded.store.document_ids() == original.store.document_ids()
    # Documents: tags, text, attributes, metadata and Dewey labels all match.
    for doc_id in original.store.document_ids():
        a = original.store.get(doc_id)
        b = loaded.store.get(doc_id)
        assert a.metadata == b.metadata
        nodes_a = list(a.root.walk())
        nodes_b = list(b.root.walk())
        assert len(nodes_a) == len(nodes_b)
        for na, nb in zip(nodes_a, nodes_b):
            assert (na.tag, na.text, na.attributes, na.kind) == (nb.tag, nb.text, nb.attributes, nb.kind)
            assert na.label.components == nb.label.components
    # Index: postings, document frequencies, per-document slices.
    assert loaded.index.vocabulary() == original.index.vocabulary()
    assert loaded.index.documents_indexed == original.index.documents_indexed
    for term in original.index.vocabulary():
        assert loaded.index.postings(term) == original.index.postings(term)
        assert loaded.index.document_frequency(term) == original.index.document_frequency(term)
        for doc_id in original.store.document_ids():
            assert loaded.index.postings_for_document(term, doc_id) == original.index.postings_for_document(term, doc_id)
    # Statistics: the repeat table.
    assert loaded.statistics == original.statistics
    assert loaded.store.total_elements() == original.store.total_elements()
    # Ranked query results, both semantics.
    for query in queries:
        for semantics in ("slca", "elca"):
            assert ranked_signature(loaded, query, semantics) == ranked_signature(
                original, query, semantics
            )


class TestRoundTrip:
    def test_loaded_corpus_is_equivalent(self, tmp_path):
        corpus = small_corpus()
        path = tmp_path / "tiny.snap"
        assert corpus.save(path) == path
        loaded = Corpus.load(path)
        assert_equivalent(corpus, loaded, ["gps", "tomtom gps", "review rating", "compact"])

    def test_attribute_and_unicode_content_round_trips(self, tmp_path):
        store = DocumentStore()
        store.add(
            "d1",
            parse_xml('<item kind="wasserdicht" note="héllo"><name>Jacke №5 ärmel</name></item>'),
        )
        corpus = Corpus(store, name="unicode-é")
        path = tmp_path / "u.snap"
        corpus.save(path)
        loaded = Corpus.load(path)
        assert loaded.name == corpus.name
        assert_equivalent(corpus, loaded, ["wasserdicht", "jacke"])

    def test_empty_corpus_round_trips(self, tmp_path):
        corpus = Corpus(DocumentStore(), name="empty")
        path = tmp_path / "e.snap"
        corpus.save(path)
        loaded = Corpus.load(path)
        assert len(loaded.store) == 0
        assert len(loaded.index) == 0
        assert loaded.index.documents_indexed == 0

    def test_version_counter_round_trips(self, tmp_path):
        corpus = small_corpus()
        corpus.add_document("p3", parse_xml("<product><name>Magellan</name><price>99</price></product>"))
        corpus.remove_document("p3")
        assert corpus.version == 2
        path = tmp_path / "v.snap"
        corpus.save(path)
        assert Corpus.load(path).version == 2

    def test_header_readable_without_decoding_payload(self, tmp_path):
        corpus = small_corpus()
        path = tmp_path / "h.snap"
        corpus.save(path)
        header = read_snapshot_header(path)
        assert header.format_version == FORMAT_VERSION
        assert header.corpus_version == corpus.version
        assert header.name == "tiny"
        assert header.payload_length > 0

    def test_loaded_corpus_supports_incremental_mutation(self, tmp_path):
        corpus = small_corpus()
        path = tmp_path / "m.snap"
        corpus.save(path)
        loaded = Corpus.load(path)
        loaded.add_document(
            "p3", parse_xml("<product><name>Magellan Roadmate</name><price>99</price></product>")
        )
        assert len(SearchEngine(loaded, cache_size=0).search("roadmate")) == 1
        assert loaded.version == corpus.version + 1
        loaded.remove_document("p3")
        assert len(SearchEngine(loaded, cache_size=0).search("roadmate")) == 0
        # The restored offset maps stay exact through mutations: a fresh build
        # over the same store answers identically.
        rebuilt = Corpus(loaded.store, name=loaded.name)
        assert ranked_signature(loaded, "gps") == ranked_signature(rebuilt, "gps")

    def test_save_overwrites_existing_snapshot(self, tmp_path):
        corpus = small_corpus()
        path = tmp_path / "o.snap"
        corpus.save(path)
        corpus.add_document("p3", parse_xml("<product><name>Extra GPS</name><price>1</price></product>"))
        corpus.save(path)
        loaded = Corpus.load(path)
        assert "p3" in loaded.store
        assert loaded.version == corpus.version

    def test_committed_format_3_file_loads(self):
        """A format-3 file written by an earlier build still loads.

        ``tests/data/small_corpus_format3.snap`` is ``small_corpus().save(path)``
        as written when format 3 was introduced.  A deliberate format change
        replaces this test and its file.
        """
        loaded = Corpus.load(DATA_DIR / "small_corpus_format3.snap")
        assert_equivalent(
            small_corpus(), loaded, ["gps", "tomtom gps", "review rating", "compact"]
        )


class TestFailureModes:
    def test_truncated_files_rejected_at_every_cut(self, tmp_path):
        corpus = small_corpus()
        path = tmp_path / "t.snap"
        corpus.save(path)
        data = path.read_bytes()
        target = tmp_path / "cut.snap"
        # Sample prefixes across the whole file, including 0 and the header.
        cuts = sorted({0, 1, 9, 15, 22, 31} | {len(data) * i // 17 for i in range(17)})
        for cut in cuts:
            assert cut < len(data)
            target.write_bytes(data[:cut])
            with pytest.raises(SnapshotFormatError):
                Corpus.load(target)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "b.snap"
        path.write_bytes(b"NOTASNAPSHOT" + b"\x00" * 64)
        with pytest.raises(SnapshotFormatError, match="magic"):
            Corpus.load(path)

    def test_wrong_format_version_rejected(self, tmp_path):
        corpus = small_corpus()
        path = tmp_path / "w.snap"
        corpus.save(path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 10, FORMAT_VERSION + 1)  # version field after magic
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="format version"):
            Corpus.load(path)
        with pytest.raises(SnapshotFormatError, match="format version"):
            read_snapshot_header(path)

    def test_corrupted_v2_head_rejected_by_checksum_at_load(self, tmp_path):
        corpus = small_corpus()
        path = tmp_path / "c2.snap"
        corpus.save(path)
        header = read_snapshot_header(path)
        # Header layout: magic(10) + fixed v2 fields(30) + name + crc32(4).
        head_offset = 10 + 30 + len(header.name.encode("utf-8")) + 4
        data = bytearray(path.read_bytes())
        data[head_offset + 5] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="checksum"):
            Corpus.load(path)

    def test_corrupted_v2_record_rejected_by_checksum_on_access(self, tmp_path):
        # Record damage is caught by the per-record crc32 on the record's
        # first decode (a load must not read the whole record section just to
        # validate it).
        corpus = small_corpus()
        path = tmp_path / "c3.snap"
        corpus.save(path)
        data = bytearray(path.read_bytes())
        data[-20] ^= 0xFF  # inside the record section (the last document)
        path.write_bytes(bytes(data))
        loaded = Corpus.load(path)
        with pytest.raises(SnapshotFormatError, match="checksum"):
            for doc_id in loaded.store.document_ids():
                loaded.store.get(doc_id)

    def test_trailing_bytes_rejected(self, tmp_path):
        corpus = small_corpus()
        path = tmp_path / "tr.snap"
        corpus.save(path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(SnapshotFormatError, match="trailing"):
            Corpus.load(path)

    def test_stale_snapshot_rejected_on_version_mismatch(self, tmp_path):
        corpus = small_corpus()
        path = tmp_path / "s.snap"
        corpus.save(path)
        saved_version = corpus.version
        corpus.add_document(
            "p9", parse_xml("<product><name>Later Addition</name><price>5</price></product>")
        )
        with pytest.raises(SnapshotVersionError):
            Corpus.load(path, expected_version=corpus.version)
        # Without the expectation the snapshot still loads — as the old state.
        loaded = Corpus.load(path, expected_version=saved_version)
        assert "p9" not in loaded.store

    def test_corrupted_header_rejected_by_header_checksum(self, tmp_path):
        # A flipped bit in the corpus-version field must not silently defeat
        # the staleness check — the header carries its own checksum.
        corpus = small_corpus()
        path = tmp_path / "hc.snap"
        corpus.save(path)
        data = bytearray(path.read_bytes())
        data[12] ^= 0xFF  # inside the u64 corpus-version field
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="header checksum"):
            read_snapshot_header(path)
        with pytest.raises(SnapshotFormatError, match="header checksum"):
            Corpus.load(path)

    def test_unwritable_target_raises_typed_error_and_leaves_no_droppings(self, tmp_path):
        corpus = small_corpus()
        missing_dir = tmp_path / "no-such-dir"
        with pytest.raises(SnapshotError):
            corpus.save(missing_dir / "x.snap")
        assert not missing_dir.exists()
        assert list(tmp_path.iterdir()) == []

    def test_cli_save_to_unwritable_target_is_a_clean_error(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["save-snapshot", "--output", str(tmp_path / "nope" / "x.snap")], out=out
        )
        assert code == 1
        assert "error:" in out.getvalue()

    def test_missing_file_raises_typed_error(self, tmp_path):
        with pytest.raises(SnapshotError):
            Corpus.load(tmp_path / "does-not-exist.snap")
        with pytest.raises(SnapshotError):
            read_snapshot_header(tmp_path / "does-not-exist.snap")

    def test_snapshot_errors_are_storage_errors(self):
        assert issubclass(SnapshotError, StorageError)
        assert issubclass(SnapshotFormatError, SnapshotError)
        assert issubclass(SnapshotVersionError, SnapshotError)


class TestEmptyDirectory:
    def test_from_directory_with_no_xml_files_raises(self, tmp_path):
        with pytest.raises(StorageError, match="no .xml documents"):
            Corpus.from_directory(tmp_path)

    def test_from_directory_error_names_the_directory(self, tmp_path):
        with pytest.raises(StorageError, match=str(tmp_path)):
            Corpus.from_directory(tmp_path)


class TestSnapshotCli:
    def test_save_snapshot_then_search_matches_generated_corpus(self, tmp_path):
        snap = tmp_path / "products.snap"
        out = io.StringIO()
        assert main(["save-snapshot", "--output", str(snap)], out=out) == 0
        assert "written to" in out.getvalue()
        assert snap.exists()

        from_snapshot = io.StringIO()
        assert main(["search", "--snapshot", str(snap), "--query", "tomtom gps"], out=from_snapshot) == 0
        from_generator = io.StringIO()
        assert main(["search", "--query", "tomtom gps"], out=from_generator) == 0
        assert from_snapshot.getvalue() == from_generator.getvalue()

    def test_snapshot_and_corpus_dir_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "search",
                    "--snapshot",
                    str(tmp_path / "a.snap"),
                    "--corpus-dir",
                    str(tmp_path),
                    "--query",
                    "gps",
                ]
            )

    def test_corrupt_snapshot_is_a_clean_cli_error(self, tmp_path):
        snap = tmp_path / "junk.snap"
        snap.write_bytes(b"definitely not a snapshot")
        out = io.StringIO()
        assert main(["search", "--snapshot", str(snap), "--query", "gps"], out=out) == 1
        assert "error:" in out.getvalue()

    def test_missing_snapshot_is_a_clean_cli_error(self, tmp_path):
        out = io.StringIO()
        code = main(["search", "--snapshot", str(tmp_path / "nope.snap"), "--query", "gps"], out=out)
        assert code == 1
        assert "error:" in out.getvalue()

    def test_empty_corpus_dir_is_a_clean_cli_error(self, tmp_path):
        out = io.StringIO()
        assert main(["search", "--corpus-dir", str(tmp_path), "--query", "gps"], out=out) == 1
        assert "no .xml documents" in out.getvalue()


# --------------------------------------------------------------------------- #
# Property: save → load ≡ fresh build
# --------------------------------------------------------------------------- #
tag_names = st.sampled_from(["product", "review", "name", "pros", "rating", "item", "movie"])
text_values = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x7F),
    min_size=0,
    max_size=12,
)
attribute_dicts = st.dictionaries(
    st.sampled_from(["kind", "lang", "unit"]), text_values, max_size=2
)


@st.composite
def xml_trees(draw, max_depth: int = 3):
    builder = TreeBuilder(draw(tag_names), attributes=draw(attribute_dicts))
    _fill(draw, builder, depth=0, max_depth=max_depth)
    return builder.finish()


def _fill(draw, builder, depth, max_depth):
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if depth >= max_depth or draw(st.booleans()):
            builder.leaf(draw(tag_names), draw(text_values) or "x", attributes=draw(attribute_dicts))
        else:
            with builder.element(draw(tag_names), attributes=draw(attribute_dicts)):
                _fill(draw, builder, depth + 1, max_depth)


class TestRoundTripProperty:
    @settings(max_examples=30, deadline=None)
    @given(trees=st.lists(xml_trees(), min_size=1, max_size=4))
    def test_loaded_equals_fresh_build(self, tmp_path_factory, trees):
        store = DocumentStore()
        for position, tree in enumerate(trees):
            store.add(f"doc{position}", tree)
        corpus = Corpus(store, name="property")
        path = tmp_path_factory.mktemp("snap") / "p.snap"
        corpus.save(path)
        loaded = Corpus.load(path)
        # Query by real vocabulary terms (and one pair) so matches are
        # non-trivial; the signature covers postings, statistics (through
        # scores) and XSeek return nodes.
        vocabulary = corpus.index.vocabulary()
        queries = vocabulary[:4]
        if len(vocabulary) >= 2:
            queries.append(f"{vocabulary[0]} {vocabulary[1]}")
        assert_equivalent(corpus, loaded, queries)
        # documents_containing_all agrees too (exercises the offset maps).
        for query in queries:
            assert loaded.index.documents_containing_all(query.split()) == corpus.index.documents_containing_all(query.split())
