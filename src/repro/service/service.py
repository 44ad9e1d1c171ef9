"""The :class:`SearchService` façade — the system's single public entry point.

The paper's demo is a web application: users issue keyword queries, page
through ranked results, tick checkboxes and request comparison tables.  This
module is the serving surface behind that interaction, designed so every
front-end — the HTTP JSON API (:mod:`repro.service.http`), the CLI and the
:class:`~repro.comparison.pipeline.Xsact` Python facade — goes through the
same object:

* one shared **read-only corpus**, one lazily-created
  :class:`~repro.search.engine.SearchEngine` per *semantics* (engines pin
  their semantics into the cache key, so per-request semantics means picking
  the engine, never rebuilding one);
* **typed requests and responses** (:mod:`repro.service.protocol`) — callers
  see plain data, never live tree nodes;
* **stable cursor pagination** (:mod:`repro.service.cursor`) — a page's
  ``next_cursor`` pins the normalised query, semantics, offset and corpus
  version, so the follow-up request re-slices the engine's cached ranked
  list (a cache hit, no re-evaluation) and is rejected as stale after any
  corpus mutation;
* **batch execution** — :meth:`SearchService.search_many` serves a batch on
  one captured generation, so every response carries the same corpus
  version; a repeat within a batch is an engine-cache hit like any other;
* thread safety throughout: the engine guards its cache internally, the
  service guards engine creation and its request counters, and everything
  else is read-only.
"""

from __future__ import annotations

import re
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.comparison.table import ComparisonTable
from repro.core.config import DFSConfig
from repro.core.generator import DFSGenerator
from repro.errors import (
    ComparisonError,
    InvalidCursorError,
    ProtocolError,
    QueryError,
    ReadOnlyServiceError,
    ReproError,
    SearchError,
    ServiceError,
)
from repro.features.extractor import FeatureExtractor
from repro.search.engine import SearchEngine
from repro.search.query import KeywordQuery
from repro.search.structural import StructuredQuery, parse_tag_path
from repro.search.result import SearchResult, SearchResultSet
from repro.search.semantics import available_semantics
from repro.service.cursor import decode_cursor, encode_cursor
from repro.service.protocol import (
    BulkIngestError,
    BulkIngestResponse,
    ChangeEntry,
    ChangeFeedResponse,
    CompareCell,
    CompareRequest,
    CompareResponse,
    CompareRow,
    IngestRequest,
    IngestResponse,
    ResultItem,
    SearchRequest,
    SearchResponse,
)
from repro.storage.corpus import Corpus
from repro.xmlmodel.node import XMLNode
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serializer import serialize

__all__ = ["SearchService", "DEFAULT_PAGE_SIZE", "DEFAULT_MAX_PAGE_SIZE"]

DEFAULT_PAGE_SIZE = 10
# Ceiling on a request's page size, raised to the service's default page size
# when that is larger: a public endpoint must not let one request materialise
# an unbounded page.
DEFAULT_MAX_PAGE_SIZE = 100
# Bound on the in-memory change feed; older entries are dropped and clients
# whose sync point predates the horizon are told to resync in full
# (``complete=false``).
CHANGE_LOG_LIMIT = 1024

# A result id names a rank: "R" and the rank without leading zeros.  Eighteen
# digits exceed any result count, and keep int() far from its digit limit.
_RESULT_ID = re.compile(r"R([1-9][0-9]{0,17})")


def _rank_of(result_id: str) -> int:
    """The rank a result id names, or 0 when it names none."""
    match = _RESULT_ID.fullmatch(result_id)
    return int(match.group(1)) if match else 0


class _Generation:
    """One serving generation: a corpus with its engines and feature extractor.

    Readers capture the current generation once per request, so every piece
    of a response — version stamp, ranked list, result subtrees — comes from
    one consistent corpus state even while a writer installs the next
    generation.  Engines and the extractor are created lazily per generation
    because they read the generation's own statistics and caches.
    """

    __slots__ = ("corpus", "_cache_size", "_cache_max_results", "_engines", "_extractor", "_lock")

    def __init__(
        self,
        corpus: Corpus,
        cache_size: int,
        cache_max_results: Optional[int],
    ) -> None:
        self.corpus = corpus
        self._cache_size = cache_size
        self._cache_max_results = cache_max_results
        self._engines: Dict[str, SearchEngine] = {}
        self._extractor: Optional[FeatureExtractor] = None
        self._lock = threading.Lock()

    def engine_for(self, semantics: str) -> SearchEngine:
        with self._lock:
            engine = self._engines.get(semantics)
            if engine is None:
                engine = SearchEngine(
                    self.corpus,
                    semantics=semantics,
                    cache_size=self._cache_size,
                    cache_max_results=self._cache_max_results,
                )
                self._engines[semantics] = engine
            return engine

    def engines(self) -> Dict[str, SearchEngine]:
        with self._lock:
            return dict(self._engines)

    @property
    def extractor(self) -> FeatureExtractor:
        with self._lock:
            if self._extractor is None:
                self._extractor = FeatureExtractor(statistics=self.corpus.statistics)
            return self._extractor


class SearchService:
    """Request/response service over one corpus.

    Parameters
    ----------
    corpus:
        The corpus to serve.  With ``writable=False`` (the default) the
        service treats it as read-only; out-of-band mutations still
        invalidate engine caches and outstanding cursors via
        :attr:`~repro.storage.corpus.Corpus.version`.  With
        ``writable=True`` the mutation surface (:meth:`ingest`,
        :meth:`ingest_many`, :meth:`delete_document`) is enabled: each write
        builds the next corpus *generation* via
        :meth:`~repro.storage.corpus.Corpus.begin_generation` and publishes
        it with one reference swap, so readers never block on writers and
        in-flight searches finish against the pre-mutation generation.
    config:
        Default DFS construction configuration for comparisons.
    algorithm:
        Default DFS construction algorithm.
    cache_size / cache_max_results:
        Per-engine query-cache bounds, passed through to every
        :class:`~repro.search.engine.SearchEngine` the service creates.
    default_page_size:
        Page size used when a request does not specify one.  Larger asks
        than ``max(DEFAULT_MAX_PAGE_SIZE, default_page_size)`` are clamped.
    writable:
        Whether the mutation surface is enabled.  Read-only services answer
        every mutation with :class:`~repro.errors.ReadOnlyServiceError`
        (HTTP 403).
    snapshot_path / snapshot_every:
        Durability hook: after every ``snapshot_every`` applied mutations a
        background thread re-snapshots the just-installed generation to
        ``snapshot_path`` (atomic temp-file + rename, see
        :mod:`repro.storage.snapshot`).  The saved corpus is immutable — the
        next write builds a fresh clone — so the save runs without locks.
    """

    def __init__(
        self,
        corpus: Corpus,
        config: Optional[DFSConfig] = None,
        algorithm: str = "multi_swap",
        cache_size: int = 128,
        cache_max_results: Optional[int] = 4096,
        default_page_size: int = DEFAULT_PAGE_SIZE,
        writable: bool = False,
        snapshot_path: Optional[Union[str, Path]] = None,
        snapshot_every: Optional[int] = None,
    ):
        if default_page_size <= 0:
            raise ServiceError(f"default_page_size must be positive, got {default_page_size}")
        if snapshot_every is not None and snapshot_every <= 0:
            raise ServiceError(f"snapshot_every must be positive, got {snapshot_every}")
        if snapshot_every is not None and snapshot_path is None:
            raise ServiceError("snapshot_every needs a snapshot_path to write to")
        self.config = config or DFSConfig()
        self.algorithm = algorithm
        self.default_page_size = default_page_size
        self.max_page_size = max(DEFAULT_MAX_PAGE_SIZE, default_page_size)
        self.writable = writable
        self._cache_size = cache_size
        self._cache_max_results = cache_max_results
        self._generation = _Generation(corpus, cache_size, cache_max_results)
        self._lock = threading.Lock()
        # Writers serialise on this lock for the whole clone-mutate-install
        # cycle; readers never take it (they capture self._generation once).
        self._write_lock = threading.Lock()
        self._search_count = 0
        self._compare_count = 0
        self._ingest_count = 0
        self._delete_count = 0
        self._changes: List[ChangeEntry] = []
        # Versions <= the floor predate the feed (boot state or trimmed
        # entries): a client syncing from below it must resync in full.
        self._feed_floor = corpus.version
        self._snapshot_path = Path(snapshot_path) if snapshot_path is not None else None
        self._snapshot_every = snapshot_every
        self._mutation_count = 0
        self._mutations_since_snapshot = 0
        self._snapshot_thread: Optional[threading.Thread] = None
        self._snapshots_written = 0
        self._last_snapshot_version: Optional[int] = None
        self._last_snapshot_error: Optional[str] = None

    @property
    def corpus(self) -> Corpus:
        """The corpus of the current serving generation.

        The reference changes on every applied mutation; capture it once per
        operation when consistency across reads matters.
        """
        return self._generation.corpus

    @property
    def extractor(self) -> FeatureExtractor:
        """The feature extractor over the current generation's statistics."""
        return self._generation.extractor

    # ------------------------------------------------------------------ #
    # Engines
    # ------------------------------------------------------------------ #
    def engine_for(self, semantics: str) -> SearchEngine:
        """Return the current generation's engine for a semantics.

        Created on first use per generation — a mutation installs a fresh
        generation whose engines (and query caches) start empty.

        Raises
        ------
        SearchError
            If ``semantics`` is not one of the semantics in
            :mod:`repro.search.semantics`.
        """
        return self._generation.engine_for(semantics)

    # ------------------------------------------------------------------ #
    # Rich API (Python callers: Xsact, CLI, tests)
    # ------------------------------------------------------------------ #
    def search_results(
        self,
        query: "str | KeywordQuery",
        semantics: str = "slca",
        limit: Optional[int] = None,
    ) -> SearchResultSet:
        """Evaluate a query and return the rich, in-process result set."""
        # The counters mean *requests served*, not evaluations: internal
        # searches (the search stage of a compare) go to the engine directly
        # and do not count.
        with self._lock:
            self._search_count += 1
        return self.engine_for(semantics).search(query, limit=limit)

    def compare_selected(
        self,
        result_set: SearchResultSet,
        result_ids: Optional[Sequence[str]] = None,
        size_limit: Optional[int] = None,
        algorithm: Optional[str] = None,
    ):
        """Compare selected results of a result set (the checkbox flow).

        Returns a :class:`~repro.comparison.pipeline.ComparisonOutcome`.

        Raises
        ------
        ComparisonError
            When fewer than two results are selected.
        """
        from repro.comparison.pipeline import ComparisonOutcome

        selected = (
            result_set.select(result_ids) if result_ids is not None else list(result_set)
        )
        if len(selected) < 2:
            raise ComparisonError("select at least two results to compare")
        with self._lock:
            self._compare_count += 1

        config = self.config
        if size_limit is not None and size_limit != config.size_limit:
            config = DFSConfig(
                size_limit=size_limit,
                threshold_percent=config.threshold_percent,
                use_rates=config.use_rates,
                compare_values=config.compare_values,
                max_rounds=config.max_rounds,
            )

        features = [self.extractor.extract(result) for result in selected]
        generator = DFSGenerator(config)
        generation = generator.generate(features, algorithm=algorithm or self.algorithm)
        table = ComparisonTable.from_dfs_set(
            generation.dfs_set,
            config=config,
            column_titles=[result.title or result.result_id for result in selected],
        )
        return ComparisonOutcome(
            query=result_set.query,
            results=selected,
            features=features,
            generation=generation,
            table=table,
        )

    def compare_documents(
        self,
        doc_ids: Sequence[str],
        size_limit: Optional[int] = None,
        algorithm: Optional[str] = None,
        query: "str | KeywordQuery" = "document comparison",
    ):
        """Compare whole documents (the Outdoor Retailer brand scenario)."""
        if len(doc_ids) < 2:
            raise ComparisonError("select at least two documents to compare")
        if isinstance(query, str):
            query = KeywordQuery.parse(query)
        results: List[SearchResult] = []
        for position, doc_id in enumerate(doc_ids, start=1):
            document = self.corpus.store.get(doc_id)
            subtree = document.root.copy()
            subtree.relabel()
            results.append(
                SearchResult(
                    result_id=f"R{position}",
                    doc_id=doc_id,
                    match_label=document.root.label,
                    return_label=document.root.label,
                    subtree=subtree,
                    title=SearchEngine._result_title(subtree, doc_id),
                )
            )
        result_set = SearchResultSet(query=query, results=results)
        return self.compare_selected(result_set, size_limit=size_limit, algorithm=algorithm)

    def search_and_compare(
        self,
        query: "str | KeywordQuery",
        top: int = 2,
        size_limit: Optional[int] = None,
        algorithm: Optional[str] = None,
        semantics: str = "slca",
    ):
        """Convenience: search and compare the top ``top`` results."""
        return self.compare_selected(
            self._top_results(query, semantics, top),
            size_limit=size_limit,
            algorithm=algorithm,
        )

    def _top_results(
        self, query: "str | KeywordQuery", semantics: str, top: int
    ) -> SearchResultSet:
        """The top-``top`` results, the default checkbox selection.

        Only these results are cloned, however many the query ranks.  Shared
        by the rich and the wire compare paths so both report identically.

        Raises
        ------
        ComparisonError
            When the query produced fewer than two results (checked first).
        SearchError
            When ``top`` is negative.
        """
        total, page = self.engine_for(semantics).search_page(query, 0, max(top, 0))
        if total < 2:
            raise ComparisonError(
                f"query {str(query)!r} returned {total} result(s); "
                f"need at least two to compare"
            )
        if top < 0:
            raise SearchError(f"top() count must be non-negative, got {top}")
        return page

    # ------------------------------------------------------------------ #
    # Protocol API (wire callers: the HTTP front-end)
    # ------------------------------------------------------------------ #
    def search(self, request: SearchRequest) -> SearchResponse:
        """Serve one paginated search request."""
        # Capture the serving generation once: version stamp, staleness check
        # and evaluation all run against one corpus state, so a concurrent
        # generation swap cannot produce a torn page.
        return self._paged_search(request, self._generation)

    def search_many(self, requests: Sequence[SearchRequest]) -> List[SearchResponse]:
        """Serve a batch of search requests on one serving generation.

        Every response carries the same corpus version.  A query repeated
        within the batch is an engine-cache hit like any other repeat.
        """
        generation = self._generation
        return [self._paged_search(request, generation) for request in requests]

    def _paged_search(self, request: SearchRequest, generation: _Generation) -> SearchResponse:
        """Shared pagination core of :meth:`search` and :meth:`search_many`.

        ``generation`` is the serving generation the caller captured, whose
        engines evaluate the request; generation-swap writes never touch it,
        so the version read below can only move when the *served* corpus
        itself is mutated in place (out-of-band library callers).
        """
        with self._lock:
            self._search_count += 1
        if request.page_size is not None and request.page_size <= 0:
            raise ServiceError(f"page_size must be positive, got {request.page_size}")

        # One version for the whole request: staleness check, cursor stamp
        # and response all use the value read *before* evaluation.  If the
        # corpus mutates mid-request, the issued cursor then fails the next
        # request's staleness check instead of silently pointing a pre-
        # mutation offset at a post-mutation ranked list.
        version = generation.corpus.version
        if request.cursor is not None:
            cursor = decode_cursor(request.cursor)
            if cursor.corpus_version != version:
                raise InvalidCursorError(
                    f"stale cursor: issued for corpus version {cursor.corpus_version}, "
                    f"corpus is now at version {version}; restart pagination"
                )
            # The cursor pins the normalised query and semantics; request
            # fields may be omitted on a continuation, but when present they
            # must agree with it — a cursor glued onto a different search is
            # a caller error in either field, never a silent override.
            if request.query:
                if KeywordQuery.parse(request.query).cache_key != cursor.keywords:
                    raise InvalidCursorError(
                        f"cursor does not belong to query {request.query!r}"
                    )
            if request.semantics is not None and request.semantics != cursor.semantics:
                raise InvalidCursorError(
                    f"cursor was issued under semantics {cursor.semantics!r}, "
                    f"request asks for {request.semantics!r}"
                )
            # Constraint fields on a continuation must agree with the cursor
            # too, for the same reason as query and semantics above.
            req_within, req_axis, req_axis_tag = self._request_constraints(request)
            if request.within is not None and req_within != cursor.within:
                raise InvalidCursorError(
                    f"cursor was issued for within path {list(cursor.within)!r}, "
                    f"request asks for {list(req_within)!r}"
                )
            if (request.axis is not None or request.axis_tag is not None) and (
                req_axis != cursor.axis or req_axis_tag != cursor.axis_tag
            ):
                raise InvalidCursorError(
                    f"cursor was issued for axis {cursor.axis!r}/{cursor.axis_tag!r}, "
                    f"request asks for {req_axis!r}/{req_axis_tag!r}"
                )
            try:
                if cursor.within or cursor.axis is not None or cursor.axis_tag is not None:
                    query = StructuredQuery(
                        keywords=cursor.keywords,
                        raw=request.query,
                        within=cursor.within,
                        axis=cursor.axis,
                        axis_tag=cursor.axis_tag,
                    )
                else:
                    query = KeywordQuery(keywords=cursor.keywords, raw=request.query)
            except QueryError as exc:
                # The token is untrusted input: a constraint combination the
                # query model rejects is a malformed cursor, not a server bug.
                raise InvalidCursorError(f"malformed cursor constraints: {exc}") from exc
            semantics = cursor.semantics
            offset = cursor.offset
            # The cursor pins the walk's page size, so a cursor-only
            # continuation keeps its page boundaries; an explicit page_size
            # on the follow-up deliberately re-sizes the walk.
            page_size = (
                request.page_size if request.page_size is not None else cursor.page_size
            )
        else:
            within, axis, axis_tag = self._request_constraints(request)
            # axis_tag alone counts as a constraint, so from_parts rejects it
            # (it needs an axis) instead of the search silently ignoring it.
            if within or axis is not None or axis_tag is not None:
                query = StructuredQuery.from_parts(
                    request.query, within=within, axis=axis, axis_tag=axis_tag
                )
                # Structural constraints need a structure-aware semantics, so
                # the unspecified-semantics default follows the request shape.
                default_semantics = "slca_struct"
            else:
                query = KeywordQuery.parse(request.query)
                default_semantics = "slca"
            semantics = (
                request.semantics if request.semantics is not None else default_semantics
            )
            offset = 0
            page_size = (
                request.page_size if request.page_size is not None else self.default_page_size
            )
        page_size = min(page_size, self.max_page_size)

        total, page = generation.engine_for(semantics).search_page(query, offset, page_size)
        if request.cursor is not None and generation.corpus.version != version:
            # The corpus mutated between the staleness check and evaluation;
            # this page was sliced from a post-mutation ranked list with a
            # pre-mutation offset, so serving it could silently skip or
            # repeat results — the exact thing the cursor contract forbids.
            # (A fresh search has no cross-page consistency to protect: it
            # keeps the pre-fetch version stamp, and any follow-up cursor is
            # then rejected as stale.)
            raise InvalidCursorError(
                f"corpus mutated during pagination (version {version} -> "
                f"{generation.corpus.version}); restart pagination"
            )
        next_offset = offset + page_size
        next_cursor = None
        if next_offset < total:
            constrained = query if isinstance(query, StructuredQuery) else None
            next_cursor = encode_cursor(
                # The *base* keyword identity, not cache_key: a structured
                # query's cache key carries "@"-marker entries, while the
                # cursor stores the constraints in their own fields (and the
                # continuation's query-agreement check parses plain keywords).
                keywords=tuple(sorted(query.normalized_keywords)),
                semantics=semantics,
                offset=next_offset,
                corpus_version=version,
                page_size=page_size,
                within=constrained.within if constrained is not None else (),
                axis=constrained.axis if constrained is not None else None,
                axis_tag=constrained.axis_tag if constrained is not None else None,
            )
        return SearchResponse(
            query=str(query),
            semantics=semantics,
            total=total,
            offset=offset,
            items=tuple(self._result_item(result) for result in page),
            next_cursor=next_cursor,
            corpus_version=version,
        )

    @staticmethod
    def _request_constraints(
        request: SearchRequest,
    ) -> Tuple[Tuple[str, ...], Optional[str], Optional[str]]:
        """Normalise a request's structural constraint fields.

        Each ``within`` entry may itself be a slash-separated path (the HTTP
        front-end passes repeated ``within=`` parameters through verbatim);
        the steps are flattened into one tag path.
        """
        within: Tuple[str, ...] = ()
        if request.within:
            steps: List[str] = []
            for part in request.within:
                steps.extend(parse_tag_path(part))
            within = tuple(steps)
        return within, request.axis, request.axis_tag

    def compare(self, request: CompareRequest) -> CompareResponse:
        """Serve one comparison request and return the table as plain data."""
        if request.result_ids is not None:
            # Only the ranks up to the highest selected one are cloned; an id
            # that names no rank ("R01", "R0", "x") selects nothing.
            count = max((_rank_of(result_id) for result_id in request.result_ids), default=0)
            engine = self.engine_for(request.semantics)
            _, page = engine.search_page(request.query, 0, count)
            try:
                selected = page.select(request.result_ids)
            except KeyError as exc:
                # On the wire an unknown checkbox id is a client error.  Only
                # the id lookup is mapped — a KeyError out of the comparison
                # pipeline itself would be a server bug and must surface as
                # one.
                raise ComparisonError(f"unknown result id: {exc.args[0]!r}") from exc
            # Hand the pre-selected subset on (compare_selected keeps set
            # order) so the ids are resolved exactly once.
            result_set = SearchResultSet(query=page.query, results=selected)
        else:
            result_set = self._top_results(request.query, request.semantics, request.top)
        outcome = self.compare_selected(
            result_set,
            size_limit=request.size_limit,
            algorithm=request.algorithm,
        )
        rows = tuple(
            CompareRow(
                feature_type=str(row.feature_type),
                differentiating=row.differentiating,
                cells=tuple(
                    CompareCell(
                        value=cell.value,
                        occurrences=cell.occurrences,
                        population=cell.population,
                    )
                    for cell in row.cells
                ),
            )
            for row in outcome.table.rows
        )
        return CompareResponse(
            query=request.query,
            semantics=request.semantics,
            dod=outcome.dod,
            column_ids=tuple(outcome.table.column_ids),
            column_titles=tuple(outcome.table.column_titles),
            rows=rows,
            results=tuple(self._result_item(result) for result in outcome.results),
        )

    # ------------------------------------------------------------------ #
    # Mutation surface (writable services only)
    # ------------------------------------------------------------------ #
    def _require_writable(self) -> None:
        if not self.writable:
            raise ReadOnlyServiceError(
                "service is read-only; start it with writable=True (serve --writable) "
                "to enable ingestion"
            )

    def ingest(self, request: IngestRequest) -> IngestResponse:
        """Parse and add one document, publishing a new corpus generation.

        The XML is parsed *outside* the write lock (parsing dominates the
        cost of small writes); the clone-mutate-install cycle then runs under
        it.  On success the new generation is immediately visible to fresh
        searches, every engine cache starts empty, and outstanding cursors
        from older generations are rejected as stale.

        Raises
        ------
        ReadOnlyServiceError
            If the service was not started writable.
        DuplicateDocumentError
            If ``doc_id`` is already in the corpus.  Nothing is changed.
        ProtocolError
            If ``doc_id`` is empty.  Nothing is changed.
        XMLParseError
            If the XML payload does not parse.  Nothing is changed.
        """
        self._require_writable()
        root = self._parse_ingest(request)
        with self._write_lock:
            corpus = self._generation.corpus.begin_generation()
            corpus.add_document(request.doc_id, root, metadata=request.metadata)
            self._install_generation(
                corpus, [ChangeEntry(version=corpus.version, doc_id=request.doc_id, action="add")]
            )
            with self._lock:
                self._ingest_count += 1
            return IngestResponse(
                doc_id=request.doc_id,
                action="add",
                corpus_version=corpus.version,
                documents=len(corpus.store),
            )

    def ingest_many(self, requests: Sequence[IngestRequest]) -> BulkIngestResponse:
        """Apply a batch of ingests as one generation swap.

        Per-item errors (empty ids, parse failures, duplicate ids — including
        ids that duplicate an earlier line of the same batch) are collected
        instead of failing the batch: the response reports each failed line
        with its error, and every successful line is part of the single
        published generation.  A batch whose every line fails publishes
        nothing.

        Raises
        ------
        ReadOnlyServiceError
            If the service was not started writable.
        """
        self._require_writable()
        errors: List[BulkIngestError] = []
        parsed: List[Tuple[int, IngestRequest, XMLNode]] = []
        for line, request in enumerate(requests, start=1):
            try:
                parsed.append((line, request, self._parse_ingest(request)))
            except ReproError as exc:
                errors.append(BulkIngestError(line=line, error=str(exc), doc_id=request.doc_id))
        with self._write_lock:
            corpus = self._generation.corpus.begin_generation()
            entries: List[ChangeEntry] = []
            for line, request, root in parsed:
                try:
                    corpus.add_document(request.doc_id, root, metadata=request.metadata)
                except ReproError as exc:
                    errors.append(
                        BulkIngestError(line=line, error=str(exc), doc_id=request.doc_id)
                    )
                    continue
                entries.append(
                    ChangeEntry(version=corpus.version, doc_id=request.doc_id, action="add")
                )
            if entries:
                self._install_generation(corpus, entries)
                with self._lock:
                    self._ingest_count += len(entries)
            current = self._generation.corpus
            errors.sort(key=lambda error: error.line)
            return BulkIngestResponse(
                requested=len(requests),
                ingested=len(entries),
                corpus_version=current.version,
                documents=len(current.store),
                errors=tuple(errors),
            )

    @staticmethod
    def _parse_ingest(request: IngestRequest) -> XMLNode:
        """Validate one ingest request and parse its XML (outside the write lock)."""
        if not request.doc_id:
            # DELETE /documents/{id} cannot address an empty id.
            raise ProtocolError("doc_id must be a non-empty string")
        return parse_xml(request.xml)

    def delete_document(self, doc_id: str) -> IngestResponse:
        """Remove one document, publishing a new corpus generation.

        Raises
        ------
        ReadOnlyServiceError
            If the service was not started writable.
        DocumentNotFoundError
            If ``doc_id`` is not in the corpus.  Nothing is changed.
        """
        self._require_writable()
        with self._write_lock:
            corpus = self._generation.corpus.begin_generation()
            corpus.remove_document(doc_id)
            self._install_generation(
                corpus, [ChangeEntry(version=corpus.version, doc_id=doc_id, action="delete")]
            )
            with self._lock:
                self._delete_count += 1
            return IngestResponse(
                doc_id=doc_id,
                action="delete",
                corpus_version=corpus.version,
                documents=len(corpus.store),
            )

    def _install_generation(self, corpus: Corpus, entries: List[ChangeEntry]) -> None:
        """Publish a mutated clone as the serving generation.

        One reference swap: readers that captured the old generation finish
        against it; everything after sees the new corpus, fresh (empty)
        engine caches, and a fresh feature extractor.  Callers hold
        ``_write_lock``; the swap itself and the change-feed append run under
        ``_lock`` so :meth:`updated_since` reads a consistent pair.
        """
        # Published state must be read-only: finalize the index's deferred
        # bucket ordering now, while this thread is still the sole owner,
        # instead of letting the first reader lookup mutate shared tables.
        corpus.finalize()
        generation = _Generation(corpus, self._cache_size, self._cache_max_results)
        with self._lock:
            self._generation = generation
            self._changes.extend(entries)
            overflow = len(self._changes) - CHANGE_LOG_LIMIT
            if overflow > 0:
                dropped = self._changes[:overflow]
                del self._changes[:overflow]
                # Clients synced to a version at or below the last dropped
                # entry can no longer be given a complete diff.
                self._feed_floor = dropped[-1].version
            self._mutation_count += len(entries)
            self._mutations_since_snapshot += len(entries)
        self._maybe_snapshot(corpus)

    def updated_since(self, version: int) -> ChangeFeedResponse:
        """The change feed: every mutation applied after ``version``.

        ``complete=False`` warns that entries older than the in-memory
        horizon were dropped (or predate service start): the client saw
        ``since`` before this service's feed began, so the returned entries
        may not be the whole diff and a full resync is required.

        Raises
        ------
        ServiceError
            If ``version`` is negative or ahead of the current corpus
            version (a client can never have synced past the server).
        """
        if version < 0:
            raise ServiceError(f"version must be non-negative, got {version}")
        with self._lock:
            current = self._generation.corpus.version
            if version > current:
                raise ServiceError(
                    f"version {version} is ahead of the corpus (at version {current})"
                )
            entries = tuple(entry for entry in self._changes if entry.version > version)
            floor = self._feed_floor
        return ChangeFeedResponse(
            since=version,
            corpus_version=current,
            complete=version >= floor,
            entries=entries,
        )

    # ------------------------------------------------------------------ #
    # Background re-snapshot
    # ------------------------------------------------------------------ #
    def _maybe_snapshot(self, corpus: Corpus) -> None:
        """Kick off a background save if the mutation threshold is reached.

        At most one snapshot thread runs at a time; if the previous save is
        still writing, the counter keeps accumulating and the *next* install
        triggers the save (with the newer generation).  The saved corpus is
        a published generation — immutable by the swap discipline — so the
        writer thread needs no lock.
        """
        if self._snapshot_every is None or self._snapshot_path is None:
            return
        with self._lock:
            if self._mutations_since_snapshot < self._snapshot_every:
                return
            if self._snapshot_thread is not None and self._snapshot_thread.is_alive():
                return
            self._mutations_since_snapshot = 0
            thread = threading.Thread(
                target=self._write_snapshot,
                args=(corpus,),
                name="xsact-snapshot",
                daemon=True,
            )
            self._snapshot_thread = thread
        thread.start()

    def _write_snapshot(self, corpus: Corpus) -> None:
        try:
            corpus.save(self._snapshot_path)
        except (ReproError, OSError) as exc:
            with self._lock:
                self._last_snapshot_error = str(exc)
            return
        with self._lock:
            self._snapshots_written += 1
            self._last_snapshot_version = corpus.version
            self._last_snapshot_error = None

    def wait_for_snapshot(self, timeout: Optional[float] = None) -> bool:
        """Block until the in-flight background snapshot (if any) finishes.

        Returns ``True`` if no snapshot is running by the deadline.  Tests
        and orderly shutdown use this; serving never does.
        """
        with self._lock:
            thread = self._snapshot_thread
        if thread is None:
            return True
        thread.join(timeout)
        return not thread.is_alive()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, object]:
        """Liveness summary served by ``GET /healthz``."""
        return {
            "status": "ok",
            "corpus": self.corpus.name,
            "documents": len(self.corpus.store),
            "corpus_version": self.corpus.version,
        }

    def stats(self) -> Dict[str, object]:
        """Service counters served by ``GET /stats``.

        Includes the per-engine cache statistics (the engine's hit/miss
        counters used to be maintained but never exposed) plus an aggregate
        over all semantics, and the document-store counters — for a
        snapshot-loaded corpus the materialised/evicted/decoded figures are
        what operators watch to size ``max_materialised``.
        """
        generation = self._generation
        with self._lock:
            search_count = self._search_count
            compare_count = self._compare_count
            ingest_count = self._ingest_count
            delete_count = self._delete_count
            ingest_stats: Dict[str, object] = {
                "writable": self.writable,
                "mutations": self._mutation_count,
                "change_log": len(self._changes),
                "snapshots_written": self._snapshots_written,
                "last_snapshot_version": self._last_snapshot_version,
                "last_snapshot_error": self._last_snapshot_error,
            }
        engines = generation.engines()
        per_engine = {name: engine.cache_stats() for name, engine in engines.items()}
        aggregate = {"entries": 0, "cached_results": 0, "hits": 0, "misses": 0}
        for snapshot in per_engine.values():
            for key in aggregate:
                aggregate[key] += snapshot[key]
        corpus = generation.corpus
        return {
            "corpus": {
                "name": corpus.name,
                "documents": len(corpus.store),
                "version": corpus.version,
                "store": corpus.store.stats(),
            },
            "requests": {
                "search": search_count,
                "compare": compare_count,
                "ingest": ingest_count,
                "delete": delete_count,
            },
            "semantics": available_semantics(),
            "cache": aggregate,
            "engines": per_engine,
            "ingest": ingest_stats,
        }

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _result_item(result: SearchResult) -> ResultItem:
        return ResultItem(
            result_id=result.result_id,
            doc_id=result.doc_id,
            title=result.title,
            score=float(result.score),
            match_label=str(result.match_label),
            return_label=str(result.return_label),
            subtree_xml=serialize(result.subtree),
        )
