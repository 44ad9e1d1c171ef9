"""Sharded corpus + fan-out engine: the sharded ≡ single-corpus contract.

The tentpole property is differential: for ANY corpus, ANY shard count and
ANY partitioning, a :class:`ShardedCorpus` behind a
:class:`ShardedSearchEngine` must be byte-identical to one monolithic
:class:`Corpus` behind a plain :class:`SearchEngine` — ranked order, scores,
return subtrees, document frequencies, pagination windows, service-level
responses and cursors.  Hypothesis drives that over randomised corpora and
N ∈ {1, 2, 3, 7}; the unit battery pins the merge edge cases (empty shards,
single-shard result sets, cross-shard score ties, limits below the per-shard
top-k); the manifest tests cover persistence corruption in the
``test_snapshot.py`` style (truncated shard files and stale shard versions
are rejected *naming the shard file*); and the mutation tests cover routing,
cursor invalidation (the HTTP 410 path) and the per-shard
build-then-remove ≡ fresh-build property.
"""

import json
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    DocumentNotFoundError,
    InvalidCursorError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotVersionError,
    StorageError,
)
from repro.search.engine import SearchEngine
from repro.search.sharded_engine import ShardedSearchEngine
from repro.service.protocol import SearchRequest
from repro.service.service import SearchService
from repro.storage.corpus import Corpus
from repro.storage.document_store import DocumentStore
from repro.storage.sharded import (
    ShardedCorpus,
    crc32_assignment,
    is_shard_manifest,
)
from repro.xmlmodel.builder import TreeBuilder
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serializer import serialize

SHARD_COUNTS = (1, 2, 3, 7)
# Queries over the strategy's tag vocabulary: every generated corpus can
# match these, and multi-keyword queries exercise the SLCA/ELCA machinery.
QUERIES = ("product", "review name", "item movie", "rating pros product")


# --------------------------------------------------------------------------- #
# Strategies (same shape as test_property_xml_and_search / test_document_removal)
# --------------------------------------------------------------------------- #
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


def assert_engines_identical(single_corpus, sharded_corpus, semantics="slca"):
    reference = SearchEngine(single_corpus, semantics=semantics, cache_size=0)
    fanout = ShardedSearchEngine(sharded_corpus, semantics=semantics, cache_size=0)
    for query in QUERIES:
        assert fingerprint(fanout.search(query)) == fingerprint(reference.search(query))
        # Pagination windows agree too: same totals, same slices.
        for offset in (0, 1, 3):
            expected_total, expected_page = reference.search_page(query, offset, 2)
            actual_total, actual_page = fanout.search_page(query, offset, 2)
            assert actual_total == expected_total
            assert fingerprint(actual_page) == fingerprint(expected_page)


def assert_statistics_identical(single_corpus, sharded_corpus):
    # Document frequencies term-by-term over the full single-corpus
    # vocabulary (the string API — the two sides assign different ids).
    for term in single_corpus.index.vocabulary():
        assert sharded_corpus.statistics.document_frequency(
            term
        ) == single_corpus.statistics.document_frequency(term), term
    assert sharded_corpus.statistics.document_count == single_corpus.statistics.document_count
    assert sharded_corpus.statistics.total_elements == single_corpus.statistics.total_elements
    assert statistics_snapshot(sharded_corpus.statistics) == statistics_snapshot(
        single_corpus.statistics
    )


def statistics_snapshot(statistics):
    return {
        summary.path: (
            summary.count,
            summary.max_siblings,
            summary.leaf_count,
            summary.distinct_values,
        )
        for summary in statistics.iter_paths()
    }


def index_snapshot(index):
    return {
        term: [(posting.doc_id, posting.label.components) for posting in index.postings(term)]
        for term in index.vocabulary()
    }


def tree(markup):
    return parse_xml(markup)


FIXED_DOCS_XML = {
    # crc32 routing at 3 shards: doc-0/2/3/4 -> shard 1, doc-1/5 -> shard 2,
    # shard 0 stays empty — deliberately lopsided to exercise empty shards.
    "doc-0": "<item><name>alpha gadget</name><rating>good</rating></item>",
    "doc-1": "<item><name>beta gadget</name><rating>fine</rating></item>",
    "doc-2": "<item><name>gamma widget</name><pros>compact</pros></item>",
    "doc-3": "<movie><title>delta story</title><rating>great</rating></movie>",
    "doc-4": "<movie><title>epsilon story</title><pros>gripping</pros></movie>",
    "doc-5": "<item><name>zeta widget</name><rating>good</rating></item>",
}


def fixed_documents():
    return [(doc_id, tree(markup)) for doc_id, markup in FIXED_DOCS_XML.items()]


# --------------------------------------------------------------------------- #
# Assignment
# --------------------------------------------------------------------------- #
class TestAssignment:
    def test_crc32_assignment_is_deterministic_and_in_range(self):
        for doc_id in ("", "doc-1", "a" * 100, "日本語"):
            for shard_count in (1, 2, 3, 7, 16):
                first = crc32_assignment(doc_id, shard_count)
                assert 0 <= first < shard_count
                assert crc32_assignment(doc_id, shard_count) == first

    def test_custom_assignment_steers_documents(self):
        everything_to_zero = lambda doc_id, shard_count: 0
        sharded = ShardedCorpus.build(fixed_documents(), 3, assignment=everything_to_zero)
        assert [len(shard.store) for shard in sharded.shards] == [6, 0, 0]
        assert sharded.assignment_name == "<lambda>"

    def test_out_of_range_assignment_rejected(self):
        with pytest.raises(StorageError, match="expected an int"):
            ShardedCorpus.build(fixed_documents(), 3, assignment=lambda d, n: n)

    def test_build_validations(self):
        with pytest.raises(StorageError, match="at least 1"):
            ShardedCorpus.build(fixed_documents(), 0)
        with pytest.raises(StorageError, match="duplicate"):
            ShardedCorpus.build(fixed_documents() + fixed_documents()[:1], 2)

    def test_build_routes_by_crc32_by_default(self):
        sharded = ShardedCorpus.build(fixed_documents(), 3)
        for doc_id in FIXED_DOCS_XML:
            assert sharded.shard_of(doc_id) == crc32_assignment(doc_id, 3)
            assert doc_id in sharded.shards[sharded.shard_of(doc_id)].store


# --------------------------------------------------------------------------- #
# The tentpole: hypothesis differential property
# --------------------------------------------------------------------------- #
class TestShardedEqualsSingleCorpus:
    @settings(max_examples=25, deadline=None)
    @given(
        documents=corpus_documents(),
        shard_count=st.sampled_from(SHARD_COUNTS),
        semantics=st.sampled_from(["slca", "elca"]),
    )
    def test_results_scores_df_and_pagination_agree(self, documents, shard_count, semantics):
        single = build_single(documents)
        sharded = ShardedCorpus.build(documents, shard_count)
        assert len(sharded.store) == len(single.store)
        assert_statistics_identical(single, sharded)
        assert_engines_identical(single, sharded, semantics=semantics)

    @settings(max_examples=10, deadline=None)
    @given(documents=corpus_documents(min_size=1), shard_count=st.sampled_from((2, 3)))
    def test_service_cursor_walk_agrees(self, documents, shard_count):
        """Full wire-level pagination: identical responses AND identical cursors."""
        single_service = SearchService(build_single(documents))
        sharded_service = SearchService(ShardedCorpus.build(documents, shard_count))
        request = SearchRequest(query="product review", page_size=1)
        expected = single_service.search(request)
        actual = sharded_service.search(request)
        for _ in range(12):  # bounded walk; corpora are tiny
            assert actual.to_dict() == expected.to_dict()
            if expected.next_cursor is None:
                break
            assert actual.next_cursor == expected.next_cursor
            expected = single_service.search(SearchRequest(cursor=expected.next_cursor))
            actual = sharded_service.search(SearchRequest(cursor=actual.next_cursor))


# --------------------------------------------------------------------------- #
# Shard-merge unit battery
# --------------------------------------------------------------------------- #
class TestMergeBattery:
    def test_empty_shards_contribute_nothing(self):
        sharded = ShardedCorpus.build(fixed_documents(), 3)
        assert len(sharded.shards[0].store) == 0  # crc32 leaves shard 0 empty
        assert_engines_identical(build_single(fixed_documents()), sharded)

    def test_many_shards_mostly_empty(self):
        documents = fixed_documents()[:2]
        sharded = ShardedCorpus.build(documents, 7)
        empty = sum(1 for shard in sharded.shards if len(shard.store) == 0)
        assert empty >= 5
        assert_engines_identical(build_single(documents), sharded)

    def test_all_results_in_one_shard(self):
        # "widget" occurs only in doc-2 and doc-5; steer both into shard 2
        # while the rest spread elsewhere — the merge must pass the single
        # non-empty ranked list through untouched.
        assignment = lambda doc_id, n: 2 if doc_id in ("doc-2", "doc-5") else crc32_assignment(doc_id, n)
        sharded = ShardedCorpus.build(fixed_documents(), 3, assignment=assignment)
        engine = ShardedSearchEngine(sharded, cache_size=0)
        results = engine.search("widget")
        assert {result.doc_id for result in results} == {"doc-2", "doc-5"}
        assert {sharded.shard_of(result.doc_id) for result in results} == {2}
        reference = SearchEngine(build_single(fixed_documents()), cache_size=0)
        assert fingerprint(results) == fingerprint(reference.search("widget"))

    def test_ties_across_shards_merge_in_doc_id_order(self):
        # Structurally identical documents in different shards tie exactly on
        # score; the merge must break ties like the global sort does — by
        # doc_id — regardless of which shard produced which result.
        markup = "<item><name>omega gadget</name></item>"
        documents = [(f"tie-{position}", tree(markup)) for position in range(6)]
        round_robin = lambda doc_id, n: int(doc_id.rsplit("-", 1)[1]) % n
        sharded = ShardedCorpus.build(documents, 3, assignment=round_robin)
        assert {sharded.shard_of(doc_id) for doc_id, _ in documents} == {0, 1, 2}
        engine = ShardedSearchEngine(sharded, cache_size=0)
        results = engine.search("omega")
        assert len(results) == 6
        assert len({result.score for result in results}) == 1  # a true tie
        assert [result.doc_id for result in results] == sorted(d for d, _ in documents)
        reference = SearchEngine(build_single(documents), cache_size=0)
        assert fingerprint(results) == fingerprint(reference.search("omega"))

    def test_limit_smaller_than_per_shard_top_k(self):
        # Every shard returns multiple results; a limit of 1 must keep the
        # global best, not shard 0's best.
        documents = fixed_documents()
        single = build_single(documents)
        sharded = ShardedCorpus.build(documents, 3)
        reference = SearchEngine(single, cache_size=0)
        fanout = ShardedSearchEngine(sharded, cache_size=0)
        for query in ("gadget", "rating", "name story"):
            for limit in (1, 2):
                assert fingerprint(fanout.search(query, limit=limit)) == fingerprint(
                    reference.search(query, limit=limit)
                )
            total, page = fanout.search_page(query, 0, 1)
            expected_total, expected_page = reference.search_page(query, 0, 1)
            assert (total, fingerprint(page)) == (expected_total, fingerprint(expected_page))

    def test_single_shard_is_the_degenerate_case(self):
        sharded = ShardedCorpus.build(fixed_documents(), 1)
        assert sharded.shard_count == 1
        assert_engines_identical(build_single(fixed_documents()), sharded)


# --------------------------------------------------------------------------- #
# Concurrent fan-out hammer
# --------------------------------------------------------------------------- #
class TestConcurrentFanout:
    THREADS = 8
    ROUNDS = 5

    def test_eight_thread_hammer_matches_serial_baseline(self):
        documents = fixed_documents()
        reference = SearchEngine(build_single(documents), cache_size=0)
        queries = ("gadget", "widget", "rating", "name story", "item movie")
        baselines = {query: fingerprint(reference.search(query)) for query in queries}

        sharded = ShardedCorpus.build(documents, 3)
        engine = ShardedSearchEngine(sharded, cache_size=8)  # cache on: hammer it too
        barrier = threading.Barrier(self.THREADS)
        failures = []

        def worker(worker_index):
            try:
                barrier.wait(timeout=30)
                for round_index in range(self.ROUNDS):
                    for query in queries:
                        observed = fingerprint(engine.search(query))
                        if observed != baselines[query]:
                            failures.append((worker_index, round_index, query))
            except Exception as error:  # pragma: no cover - diagnostic path
                failures.append((worker_index, repr(error)))

        threads = [
            threading.Thread(target=worker, args=(index,), name=f"hammer-{index}")
            for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, failures[:5]
        assert not any(thread.is_alive() for thread in threads)
        stats = engine.cache_stats()
        assert stats["hits"] + stats["misses"] == self.THREADS * self.ROUNDS * len(queries)


# --------------------------------------------------------------------------- #
# Manifest round-trip and corruption (test_snapshot.py style)
# --------------------------------------------------------------------------- #
class TestManifest:
    def _saved(self, tmp_path, shard_count=3):
        sharded = ShardedCorpus.build(fixed_documents(), shard_count, name="fixed")
        manifest = sharded.save(tmp_path / "fixed.manifest")
        return sharded, manifest

    def test_round_trip_attaches_one_lazy_store_per_shard(self, tmp_path):
        original, manifest = self._saved(tmp_path)
        loaded = Corpus.load(manifest)  # auto-detected, no special entry point
        assert isinstance(loaded, ShardedCorpus)
        assert loaded.name == "fixed"
        assert loaded.version == original.version
        assert loaded.store.document_ids() == original.store.document_ids()
        stats = loaded.store.stats()
        assert stats["backend"] == "sharded"
        assert stats["shard_count"] == 3
        assert [shard["backend"] for shard in stats["shards"]] == ["lazy"] * 3
        assert_engines_identical(build_single(fixed_documents()), loaded)
        assert_statistics_identical(build_single(fixed_documents()), loaded)

    def test_round_trip_honours_max_materialised(self, tmp_path):
        _, manifest = self._saved(tmp_path)
        loaded = Corpus.load(manifest, max_materialised=1)
        ShardedSearchEngine(loaded, cache_size=0).search("gadget")
        stats = loaded.store.stats()
        assert stats["decodes"] >= 1
        for shard_stats in stats["shards"]:
            assert shard_stats["max_materialised"] == 1
            assert shard_stats["materialised"] <= 1

    def test_manifest_is_sniffed_and_snapshots_are_not(self, tmp_path):
        _, manifest = self._saved(tmp_path)
        assert is_shard_manifest(manifest)
        snapshot = build_single(fixed_documents()).save(tmp_path / "plain.snap")
        assert not is_shard_manifest(snapshot)
        assert not is_shard_manifest(tmp_path / "does-not-exist")

    def test_expected_version_pins_the_manifest(self, tmp_path):
        original, manifest = self._saved(tmp_path)
        reloaded = ShardedCorpus.load(manifest, expected_version=original.version)
        assert reloaded.version == original.version
        with pytest.raises(SnapshotVersionError, match="stale shard manifest"):
            ShardedCorpus.load(manifest, expected_version=original.version + 1)

    def test_truncated_shard_file_rejected_naming_the_shard(self, tmp_path):
        _, manifest = self._saved(tmp_path)
        victim = tmp_path / "fixed.manifest.shard1"
        data = victim.read_bytes()
        victim.write_bytes(data[:-20])
        with pytest.raises(SnapshotFormatError, match="shard1"):
            Corpus.load(manifest)

    def test_stale_shard_version_rejected_naming_the_shard(self, tmp_path):
        original, manifest = self._saved(tmp_path)
        # Mutate shard 1 and re-save its file in place: the shard snapshot
        # now records a newer shard version than the manifest pinned.
        shard = original.shards[1]
        shard.add_document("stowaway", tree("<item><name>late arrival</name></item>"))
        shard.save(tmp_path / "fixed.manifest.shard1")
        with pytest.raises(SnapshotVersionError, match="shard1"):
            Corpus.load(manifest)

    def test_missing_shard_file_rejected_by_name(self, tmp_path):
        _, manifest = self._saved(tmp_path)
        (tmp_path / "fixed.manifest.shard2").unlink()
        with pytest.raises(SnapshotError, match="shard file missing.*shard2"):
            Corpus.load(manifest)

    def test_malformed_manifests_rejected(self, tmp_path):
        garbage = tmp_path / "garbage.manifest"
        garbage.write_text('{"format": "xsact-shard-manifest", not json')
        with pytest.raises(SnapshotFormatError, match="invalid JSON"):
            ShardedCorpus.load(garbage)
        wrong_magic = tmp_path / "wrong.manifest"
        wrong_magic.write_text('{"format": "something-else"}')
        with pytest.raises(SnapshotFormatError, match="magic"):
            ShardedCorpus.load(wrong_magic)
        future = tmp_path / "future.manifest"
        future.write_text(json.dumps({"format": "xsact-shard-manifest", "format_version": 99}))
        with pytest.raises(SnapshotFormatError, match="manifest version"):
            ShardedCorpus.load(future)

    def test_manifest_order_mismatch_rejected(self, tmp_path):
        _, manifest = self._saved(tmp_path)
        payload = json.loads(manifest.read_text())
        payload["order"] = payload["order"][:-1]
        manifest.write_text(json.dumps(payload))
        with pytest.raises(SnapshotFormatError, match="must match"):
            ShardedCorpus.load(manifest)

    @pytest.mark.parametrize(
        "damage",
        [
            {"shards": 5},
            {"shards": []},
            {"shards": ["a"]},
            {"shards": [{}]},
            {"shards": [{"file": 3}]},
            {"shards": [{"file": ""}]},
            {"shards": [{"file": ".."}]},
            {"shards": [{"file": "/fixed.manifest.shard0"}]},
            {"shards": [{"file": "sub/fixed.manifest.shard0"}]},
            # Would load a real shard file through the parent directory.
            {"shards": [{"file": "../{dir}/fixed.manifest.shard0"}]},
            {"order": 5},
        ],
    )
    def test_malformed_manifest_fields_rejected_naming_the_manifest(self, tmp_path, damage):
        _, manifest = self._saved(tmp_path, shard_count=1)
        payload = json.loads(manifest.read_text())
        payload.update(
            json.loads(json.dumps(damage).replace("{dir}", tmp_path.name))
        )
        payload.pop("shard_count")
        manifest.write_text(json.dumps(payload))
        with pytest.raises(SnapshotFormatError, match="fixed.manifest"):
            ShardedCorpus.load(manifest)


# --------------------------------------------------------------------------- #
# Mutation: routing, cursor invalidation, build-then-remove ≡ fresh-build
# --------------------------------------------------------------------------- #
class TestMutation:
    def test_add_routes_to_the_owning_shard_and_bumps_version(self):
        sharded = ShardedCorpus.build(fixed_documents(), 3)
        version = sharded.version
        sharded.add_document("doc-new", tree("<item><name>new gadget</name></item>"))
        owner = crc32_assignment("doc-new", 3)
        assert sharded.shard_of("doc-new") == owner
        assert "doc-new" in sharded.shards[owner].store
        assert all(
            "doc-new" not in shard.store
            for index, shard in enumerate(sharded.shards)
            if index != owner
        )
        assert sharded.version == version + 1
        # The global statistics folded the new document in.
        assert sharded.statistics.document_count == 7

    def test_remove_routes_to_the_owning_shard(self):
        sharded = ShardedCorpus.build(fixed_documents(), 3)
        owner = sharded.shard_of("doc-3")
        sharded.remove_document("doc-3")
        assert "doc-3" not in sharded.store
        assert "doc-3" not in sharded.shards[owner].store
        assert sharded.statistics.document_count == 5
        with pytest.raises(DocumentNotFoundError):
            sharded.remove_document("doc-3")

    def test_duplicate_add_rejected_without_mutation(self):
        sharded = ShardedCorpus.build(fixed_documents(), 3)
        version = sharded.version
        with pytest.raises(StorageError, match="duplicate"):
            sharded.add_document("doc-0", tree("<item><name>imposter</name></item>"))
        assert sharded.version == version

    def test_store_view_is_read_only(self):
        sharded = ShardedCorpus.build(fixed_documents(), 3)
        with pytest.raises(StorageError, match="read-only"):
            sharded.store.add("x", tree("<item><name>nope</name></item>"))
        with pytest.raises(StorageError, match="read-only"):
            sharded.store.remove("doc-0")
        with pytest.raises(StorageError, match="read-only"):
            sharded.store.clear()
        with pytest.raises(DocumentNotFoundError):
            sharded.store.get("missing")

    def test_mutation_invalidates_cross_shard_cursors(self):
        """The HTTP 410 path: a cursor spanning shards dies on any mutation."""
        sharded = ShardedCorpus.build(fixed_documents(), 3)
        service = SearchService(sharded)
        first_page = service.search(SearchRequest(query="gadget rating", page_size=1))
        assert first_page.next_cursor is not None
        # The walk genuinely crosses shards: the result set spans documents
        # owned by different shards.
        all_results = service.search_results("gadget rating")
        assert len({sharded.shard_of(result.doc_id) for result in all_results}) >= 2
        sharded.add_document("doc-late", tree("<item><name>late gadget</name></item>"))
        with pytest.raises(InvalidCursorError, match="stale cursor"):
            service.search(SearchRequest(cursor=first_page.next_cursor))
        # A fresh walk on the mutated corpus works.
        assert service.search(SearchRequest(query="gadget rating", page_size=1)).total >= 1

    def test_removal_invalidates_cursors_too(self):
        sharded = ShardedCorpus.build(fixed_documents(), 3)
        service = SearchService(sharded)
        first_page = service.search(SearchRequest(query="gadget", page_size=1))
        assert first_page.next_cursor is not None
        sharded.remove_document("doc-5")
        with pytest.raises(InvalidCursorError, match="stale cursor"):
            service.search(SearchRequest(cursor=first_page.next_cursor))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_build_then_remove_equals_fresh_build_per_shard(self, data):
        documents = data.draw(corpus_documents(min_size=2, max_size=6))
        doc_ids = [doc_id for doc_id, _ in documents]
        victims = data.draw(
            st.lists(
                st.sampled_from(doc_ids), min_size=1, max_size=len(doc_ids) - 1, unique=True
            )
        )
        shard_count = data.draw(st.sampled_from((2, 3)))

        mutated = ShardedCorpus.build(documents, shard_count)
        for victim in victims:
            mutated.remove_document(victim)
        survivors = [(doc_id, tree) for doc_id, tree in documents if doc_id not in victims]
        fresh = ShardedCorpus.build(survivors, shard_count)

        # Shard by shard: same membership, same postings, same statistics.
        for mutated_shard, fresh_shard in zip(mutated.shards, fresh.shards):
            assert mutated_shard.store.document_ids() == fresh_shard.store.document_ids()
            assert index_snapshot(mutated_shard.index) == index_snapshot(fresh_shard.index)
            assert statistics_snapshot(mutated_shard.statistics) == statistics_snapshot(
                fresh_shard.statistics
            )
        # And globally: merged statistics and ranked results agree with a
        # monolithic corpus over the survivors.
        single = build_single(survivors)
        assert_statistics_identical(single, mutated)
        assert_engines_identical(single, mutated)


# --------------------------------------------------------------------------- #
# Service differential: search_many and stats schema
# --------------------------------------------------------------------------- #
class TestShardedService:
    def _services(self, cache_size=128):
        documents = fixed_documents()
        single = SearchService(build_single(documents), cache_size=cache_size)
        sharded = SearchService(ShardedCorpus.build(documents, 3), cache_size=cache_size)
        return single, sharded

    @pytest.mark.parametrize("cache_size", [128, 0])
    def test_search_many_identical_including_cursor_resume(self, cache_size):
        single, sharded = self._services(cache_size=cache_size)
        batch = [
            SearchRequest(query="gadget", page_size=1),
            SearchRequest(query="gadget", page_size=1),  # repeat: memo path
            SearchRequest(query="rating", semantics="elca", page_size=2),
            SearchRequest(query="widget story", page_size=5),
            SearchRequest(query="name", page_size=2),
        ]
        expected = single.search_many(batch)
        actual = sharded.search_many(batch)
        assert [response.to_dict() for response in actual] == [
            response.to_dict() for response in expected
        ]
        # Cursors from the batch resume identically across a second batch.
        continuations = [
            (left.next_cursor, right.next_cursor)
            for left, right in zip(expected, actual)
            if left.next_cursor is not None
        ]
        assert continuations, "expected at least one multi-page response"
        for expected_cursor, actual_cursor in continuations:
            assert actual_cursor == expected_cursor
            follow_expected = single.search_many([SearchRequest(cursor=expected_cursor)])
            follow_actual = sharded.search_many([SearchRequest(cursor=actual_cursor)])
            assert [r.to_dict() for r in follow_actual] == [
                r.to_dict() for r in follow_expected
            ]

    def test_engine_dispatch_is_polymorphic(self):
        single, sharded = self._services()
        assert type(single.engine_for("slca")) is SearchEngine
        engine = sharded.engine_for("slca")
        assert isinstance(engine, ShardedSearchEngine)
        assert engine.shard_count == 3
        assert sharded.engine_for("slca") is engine  # cached per semantics

    def test_stats_schema_is_shard_aware_and_additive(self):
        single, sharded = self._services()
        single_stats = single.stats()
        sharded_stats = sharded.stats()
        # Single-corpus schema unchanged (the PR-4 surface): no shard keys.
        assert "shard_count" not in single_stats["corpus"]
        assert set(single_stats["corpus"]["store"]) == {"backend", "documents"}
        # Sharded schema adds, never renames.
        assert set(sharded_stats["corpus"]) == set(single_stats["corpus"]) | {"shard_count"}
        assert sharded_stats["corpus"]["shard_count"] == 3
        store = sharded_stats["corpus"]["store"]
        assert store["backend"] == "sharded"
        assert store["shard_count"] == 3
        assert [shard["documents"] for shard in store["shards"]] == [0, 4, 2]
        for key in ("decodes", "evictions", "materialised"):
            assert store[key] == 0  # eager shards: aggregates present, zero

    def test_compare_documents_routes_through_the_store_view(self):
        _, sharded = self._services()
        outcome = sharded.compare_documents(["doc-0", "doc-1"])
        assert len(outcome.results) == 2
        assert {result.doc_id for result in outcome.results} == {"doc-0", "doc-1"}


# --------------------------------------------------------------------------- #
# Corpus-shaped surface odds and ends
# --------------------------------------------------------------------------- #
class TestShardedCorpusSurface:
    def test_describe_matches_single_corpus(self):
        single = build_single(fixed_documents())
        sharded = ShardedCorpus.build(fixed_documents(), 3)
        assert sharded.describe() == single.describe()

    def test_store_view_iterates_in_global_insertion_order(self):
        sharded = ShardedCorpus.build(fixed_documents(), 3)
        assert [document.doc_id for document in sharded.store] == list(FIXED_DOCS_XML)
        assert sharded.store.document_ids() == list(FIXED_DOCS_XML)
        assert sharded.store.total_elements() == build_single(
            fixed_documents()
        ).store.total_elements()

    def test_refresh_rebuilds_and_bumps_version(self):
        sharded = ShardedCorpus.build(fixed_documents(), 2)
        version = sharded.version
        sharded.refresh()
        assert sharded.version == version + 1
        assert_engines_identical(build_single(fixed_documents()), sharded)

    def test_from_corpus_reshards_an_existing_corpus(self):
        single = build_single(fixed_documents(), name="products")
        sharded = ShardedCorpus.from_corpus(single, 3)
        assert sharded.name == "products"
        assert sharded.shard_count == 3
        assert sharded.store.document_ids() == single.store.document_ids()

    def test_constructor_rejects_overlapping_shards(self):
        store_a, store_b = DocumentStore(), DocumentStore()
        store_a.add("dup", tree("<item><name>one</name></item>"))
        store_b.add("dup", tree("<item><name>two</name></item>"))
        with pytest.raises(StorageError, match="appears in shard"):
            ShardedCorpus([Corpus(store_a), Corpus(store_b)])
        with pytest.raises(StorageError, match="at least one shard"):
            ShardedCorpus([])
