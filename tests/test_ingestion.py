"""Tests of the live ingestion path: generation-swap writes end to end.

Covers the :class:`~repro.service.service.SearchService` mutation surface
(ingest / bulk ingest / delete / change feed / background re-snapshot) over
a built corpus ("eager") and a snapshot-loaded one ("lazy": the store's
``backend``), and pins that a duplicate document id raises the typed
:class:`~repro.errors.DuplicateDocumentError` on each.

The concurrency hammer at the end drives reader threads paging with cursors
while a writer ingests and deletes: every completed walk must be internally
consistent (one corpus version, exactly ``total`` distinct results) and every
interrupted walk must fail with the cursor contract's
:class:`~repro.errors.InvalidCursorError`, never a torn page.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DocumentNotFoundError,
    DuplicateDocumentError,
    InvalidCursorError,
    ReadOnlyServiceError,
    ServiceError,
)
from repro.service import service as service_module
from repro.service.protocol import IngestRequest, SearchRequest
from repro.service.service import SearchService
from repro.storage.corpus import Corpus
from repro.storage.document_store import DocumentStore
from repro.xmlmodel.parser import parse_xml


def product_xml(index: int, *words: str) -> str:
    body = " ".join(words) if words else f"widget {index}"
    return f"<product><name>{body}</name><price>{index}</price></product>"


def build_documents(count: int):
    return [(f"doc{i}", parse_xml(product_xml(i))) for i in range(count)]


def make_corpus(backend: str, count: int, tmp_path):
    """One corpus per backend under test, holding ``count`` base documents."""
    store = DocumentStore()
    for doc_id, root in build_documents(count):
        store.add(doc_id, root)
    corpus = Corpus(store, name=backend)
    if backend == "lazy":
        path = tmp_path / "ingest.snap"
        corpus.save(path)
        corpus = Corpus.load(path)
        assert corpus.store.stats()["backend"] == "lazy"
    return corpus


BACKENDS = ["eager", "lazy"]


@pytest.fixture(params=BACKENDS)
def writable_service(request, tmp_path):
    corpus = make_corpus(request.param, 4, tmp_path)
    return SearchService(corpus, writable=True, default_page_size=2)


class TestIngestEndToEnd:
    def test_ingest_is_searchable_immediately(self, writable_service):
        service = writable_service
        before = service.search(SearchRequest(query="widget", page_size=50))
        response = service.ingest(IngestRequest(doc_id="fresh", xml=product_xml(99)))
        assert response.action == "add"
        assert response.corpus_version == before.corpus_version + 1
        assert response.documents == before.total + 1
        after = service.search(SearchRequest(query="widget", page_size=50))
        assert after.total == before.total + 1
        assert "fresh" in {item.doc_id for item in after.items}
        assert after.corpus_version == response.corpus_version

    def test_pre_mutation_cursor_rejected_as_stale(self, writable_service):
        service = writable_service
        first = service.search(SearchRequest(query="widget", page_size=1))
        assert first.next_cursor is not None
        service.ingest(IngestRequest(doc_id="fresh", xml=product_xml(99)))
        with pytest.raises(InvalidCursorError, match="stale cursor"):
            service.search(SearchRequest(query="", cursor=first.next_cursor))

    def test_delete_document(self, writable_service):
        service = writable_service
        response = service.delete_document("doc0")
        assert response.action == "delete"
        after = service.search(SearchRequest(query="widget", page_size=50))
        assert "doc0" not in {item.doc_id for item in after.items}
        with pytest.raises(DocumentNotFoundError):
            service.delete_document("doc0")

    def test_duplicate_id_raises_typed_error(self, writable_service):
        # The bug this pins: a duplicate of a resident document raised a
        # generic StorageError; the store now raises the one typed error the
        # HTTP layer maps to 409, for resident documents and records alike.
        service = writable_service
        with pytest.raises(DuplicateDocumentError, match="duplicate document id: 'doc1'"):
            service.ingest(IngestRequest(doc_id="doc1", xml=product_xml(1)))
        # The failed write left no trace: same version, same documents.
        assert service.corpus.version == 0

    def test_metadata_is_stored(self, writable_service):
        service = writable_service
        service.ingest(
            IngestRequest(
                doc_id="meta", xml=product_xml(7), metadata={"source": "crawler"}
            )
        )
        assert service.corpus.store.get("meta").metadata["source"] == "crawler"

    def test_updated_since_reports_mutations(self, writable_service):
        service = writable_service
        service.ingest(IngestRequest(doc_id="fresh", xml=product_xml(99)))
        service.delete_document("doc0")
        feed = service.updated_since(0)
        assert feed.complete
        assert [(entry.doc_id, entry.action) for entry in feed.entries] == [
            ("fresh", "add"),
            ("doc0", "delete"),
        ]
        assert [entry.version for entry in feed.entries] == [1, 2]
        assert service.updated_since(feed.corpus_version).entries == ()

    def test_in_flight_search_finishes_against_pre_mutation_generation(
        self, writable_service
    ):
        # The generation-swap contract: a reader that captured the serving
        # generation before a write completes against it — same totals, same
        # version stamp — even though the swap happened mid-request.
        service = writable_service
        engine = service.engine_for("slca")
        original = type(engine).search_page
        mutated = threading.Event()

        def mutate_then_search(self_engine, query, offset, count):
            if not mutated.is_set():
                mutated.set()
                service.ingest(IngestRequest(doc_id="mid", xml=product_xml(55)))
            return original(self_engine, query, offset, count)

        try:
            type(engine).search_page = mutate_then_search
            response = service.search(SearchRequest(query="widget", page_size=50))
        finally:
            type(engine).search_page = original
        assert mutated.is_set()
        # Served from the pre-mutation generation in full.
        assert response.corpus_version == 0
        assert "mid" not in {item.doc_id for item in response.items}
        # The next request sees the new generation.
        fresh = service.search(SearchRequest(query="widget", page_size=50))
        assert fresh.corpus_version == 1
        assert "mid" in {item.doc_id for item in fresh.items}


class TestBulkIngest:
    def test_partial_failure_publishes_accepted_subset(self, writable_service):
        service = writable_service
        response = service.ingest_many(
            [
                IngestRequest(doc_id="b1", xml=product_xml(11)),
                IngestRequest(doc_id="doc1", xml=product_xml(1)),  # duplicate
                IngestRequest(doc_id="b2", xml="<broken"),  # parse error
                IngestRequest(doc_id="b3", xml=product_xml(13)),
            ]
        )
        assert response.requested == 4
        assert response.ingested == 2
        assert [error.line for error in response.errors] == [2, 3]
        assert response.errors[0].doc_id == "doc1"
        assert "duplicate" in response.errors[0].error
        # One generation swap: both accepted documents share visibility
        # (each applied document has its own version for the change feed).
        assert response.corpus_version == 2
        after = service.search(SearchRequest(query="widget", page_size=50))
        found = {item.doc_id for item in after.items}
        assert {"b1", "b3"} <= found
        assert service.updated_since(0).entries[-1].doc_id == "b3"

    def test_intra_batch_duplicate_rejected_per_line(self, writable_service):
        service = writable_service
        response = service.ingest_many(
            [
                IngestRequest(doc_id="twin", xml=product_xml(1)),
                IngestRequest(doc_id="twin", xml=product_xml(2)),
            ]
        )
        assert response.ingested == 1
        assert [error.line for error in response.errors] == [2]

    def test_all_failed_batch_publishes_nothing(self, writable_service):
        service = writable_service
        response = service.ingest_many(
            [IngestRequest(doc_id="doc0", xml=product_xml(0))]
        )
        assert response.ingested == 0
        assert response.corpus_version == 0
        assert service.updated_since(0).entries == ()


class TestReadOnlyAndFeedValidation:
    def test_read_only_service_rejects_mutations(self, small_product_corpus):
        service = SearchService(small_product_corpus)
        with pytest.raises(ReadOnlyServiceError):
            service.ingest(IngestRequest(doc_id="x", xml="<a/>"))
        with pytest.raises(ReadOnlyServiceError):
            service.ingest_many([IngestRequest(doc_id="x", xml="<a/>")])
        with pytest.raises(ReadOnlyServiceError):
            service.delete_document("x")

    def test_feed_rejects_bad_versions(self, small_product_corpus):
        service = SearchService(small_product_corpus)
        with pytest.raises(ServiceError, match="non-negative"):
            service.updated_since(-1)
        with pytest.raises(ServiceError, match="ahead of the corpus"):
            service.updated_since(small_product_corpus.version + 1)

    def test_feed_trims_to_limit_and_reports_incomplete(self, tmp_path, monkeypatch):
        monkeypatch.setattr(service_module, "CHANGE_LOG_LIMIT", 2)
        service = SearchService(make_corpus("eager", 2, tmp_path), writable=True)
        for index in range(4):
            service.ingest(IngestRequest(doc_id=f"n{index}", xml=product_xml(index)))
        feed = service.updated_since(0)
        # Entries for versions 1 and 2 were trimmed: the feed is gapped below
        # version 2 and says so.
        assert not feed.complete
        assert [entry.version for entry in feed.entries] == [3, 4]
        assert service.updated_since(2).complete
        assert service.updated_since(3).complete

    def test_snapshot_every_requires_path(self, small_product_corpus):
        with pytest.raises(ServiceError, match="snapshot_path"):
            SearchService(small_product_corpus, writable=True, snapshot_every=5)


class TestBackgroundSnapshot:
    def test_resnapshot_after_threshold(self, tmp_path):
        path = tmp_path / "live.snap"
        service = SearchService(
            make_corpus("eager", 2, tmp_path),
            writable=True,
            snapshot_path=path,
            snapshot_every=2,
        )
        service.ingest(IngestRequest(doc_id="s1", xml=product_xml(1)))
        assert service.wait_for_snapshot(10)
        assert not path.exists()  # below threshold: nothing written
        service.ingest(IngestRequest(doc_id="s2", xml=product_xml(2)))
        assert service.wait_for_snapshot(10)
        assert path.exists()
        loaded = Corpus.load(path)
        assert len(loaded.store) == 4
        assert loaded.version == service.corpus.version
        stats = service.stats()["ingest"]
        assert stats["snapshots_written"] == 1
        assert stats["last_snapshot_version"] == 2
        assert stats["last_snapshot_error"] is None

    def test_snapshot_failure_is_recorded_not_raised(self, tmp_path):
        service = SearchService(
            make_corpus("eager", 2, tmp_path),
            writable=True,
            snapshot_path=tmp_path / "missing-dir" / "live.snap",
            snapshot_every=1,
        )
        service.ingest(IngestRequest(doc_id="s1", xml=product_xml(1)))
        assert service.wait_for_snapshot(10)
        stats = service.stats()["ingest"]
        assert stats["snapshots_written"] == 0
        assert stats["last_snapshot_error"]


# --------------------------------------------------------------------- #
# Ingest-then-query == fresh-build-then-query
# --------------------------------------------------------------------- #
WORDS = ("alpha", "beta", "gamma", "delta", "widget")

documents_strategy = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=3),
    min_size=1,
    max_size=8,
)


def ranked(service: SearchService, word: str):
    response = service.search(SearchRequest(query=word, page_size=100))
    return sorted(
        (item.doc_id, item.score, item.match_label) for item in response.items
    )


class TestIngestEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(documents=documents_strategy, split=st.integers(min_value=0, max_value=8))
    def test_eager_ingest_equals_fresh_build(self, documents, split):
        self._check(documents, min(split, len(documents)))

    @staticmethod
    def _check(documents, split):
        markup = [product_xml(i, *words) for i, words in enumerate(documents)]
        ids = [f"doc{i}" for i in range(len(documents))]

        def build(id_markup_pairs):
            store = DocumentStore()
            for doc_id, text in id_markup_pairs:
                store.add(doc_id, parse_xml(text))
            return Corpus(store, name="prop")

        base = list(zip(ids[:split], markup[:split]))
        added = list(zip(ids[split:], markup[split:]))
        if not base:
            # An empty corpus cannot be built; seed it with the first doc.
            base, added = added[:1], added[1:]

        incremental = SearchService(build(base), writable=True)
        for doc_id, text in added:
            incremental.ingest(IngestRequest(doc_id=doc_id, xml=text))
        fresh = SearchService(build(list(zip(ids, markup))), writable=True)

        for word in WORDS:
            assert ranked(incremental, word) == ranked(fresh, word), word


# --------------------------------------------------------------------- #
# Concurrency hammer: mutate while serving
# --------------------------------------------------------------------- #
class TestMutateWhileServing:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_torn_pages_under_concurrent_writes(self, backend, tmp_path):
        service = SearchService(
            make_corpus(backend, 8, tmp_path), writable=True, default_page_size=2
        )
        stop = threading.Event()
        failures = []
        walks = {"completed": 0, "invalidated": 0}
        walks_lock = threading.Lock()

        def writer():
            index = 0
            while not stop.is_set():
                doc_id = f"hot{index}"
                try:
                    service.ingest(IngestRequest(doc_id=doc_id, xml=product_xml(index)))
                    service.delete_document(doc_id)
                except Exception as exc:  # pragma: no cover - failure reporting
                    failures.append(exc)
                    return
                index += 1

        def reader():
            while not stop.is_set():
                try:
                    response = service.search(SearchRequest(query="widget", page_size=2))
                    version = response.corpus_version
                    seen = {item.doc_id for item in response.items}
                    while response.next_cursor is not None:
                        response = service.search(
                            SearchRequest(query="", cursor=response.next_cursor)
                        )
                        # Internal consistency: every page of one walk comes
                        # from the version the walk started at, and pages
                        # never overlap (no repeated results = no torn page).
                        if response.corpus_version != version:
                            failures.append(
                                AssertionError(
                                    f"page from version {response.corpus_version} "
                                    f"inside a version-{version} walk"
                                )
                            )
                            return
                        page_ids = {item.doc_id for item in response.items}
                        if page_ids & seen:
                            failures.append(
                                AssertionError(f"repeated results: {page_ids & seen}")
                            )
                            return
                        seen |= page_ids
                    if len(seen) != response.total:
                        failures.append(
                            AssertionError(
                                f"walk returned {len(seen)} of {response.total} results"
                            )
                        )
                        return
                    with walks_lock:
                        walks["completed"] += 1
                except InvalidCursorError:
                    # The documented contract under concurrent mutation:
                    # restart pagination.
                    with walks_lock:
                        walks["invalidated"] += 1
                except Exception as exc:  # pragma: no cover - failure reporting
                    failures.append(exc)
                    return

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        # Let the hammer run briefly; the writer performs hundreds of swaps.
        stopper = threading.Timer(1.5, stop.set)
        stopper.start()
        for thread in threads:
            thread.join(timeout=30)
        stopper.cancel()
        stop.set()
        assert not failures, failures[:3]
        assert walks["completed"] > 0  # readers made progress
