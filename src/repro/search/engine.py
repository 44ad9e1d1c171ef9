"""The :class:`SearchEngine` facade.

This is the component labelled "Search Engine" in the XSACT architecture
diagram (Figure 3 of the paper): keywords go in, a ranked list of structured
results comes out.  The pipeline is

1. look up the runs of every query keyword in the inverted index (per
   document, the pre numbers of the elements that post it),
2. compute SLCA (or ELCA) match nodes on the structural table,
3. infer the return node for each match with the XSeek rules,
4. deduplicate results that map to the same return node,
5. rank the results, from the same runs, into a list of references
   (document id, match and return pre numbers, score),
6. resolve each reference of the requested page to its document's own return
   node, and title it.

Steps 1–5 read only the inverted index and the structural table (the merge
and XSeek climb ``parent``, ranking counts the runs inside ``[pre, end)``),
so evaluating a query decodes no document of a snapshot-loaded corpus and
builds no Dewey label; only step 6 reads trees and labels, and only for the
page it serves.

Results are read-only views of the stored documents: a result's subtree is
the return node inside the corpus's own tree, shared with every other caller,
so a caller that wants to edit one edits ``result.subtree.copy()``.  A page
resolves and titles only its own results, however many the query ranks.

Repeated queries are the dominant pattern under real traffic, so the engine
keeps a small LRU cache of ranked reference lists keyed by the normalised
query (:attr:`~repro.search.query.KeywordQuery.cache_key`) and the result
semantics.  A hit, a miss and an uncached call serve their pages from the
same kind of list; a hit only skips the evaluation.  The cache is invalidated
wholesale whenever the corpus :attr:`~repro.storage.corpus.Corpus.version`
changes.

The cache is bounded two ways: ``cache_size`` caps the number of entries, and
``cache_max_results`` caps the *total number of cached results* summed over
all entries, so a handful of broad queries with thousands of results each
cannot grow the cache without bound.  When an insertion pushes the total over
the budget, least-recently-used entries are evicted until it fits; a single
result list larger than the whole budget is simply not retained.  Decoded
document trees are bounded by the store's LRU, not here.

The engine is safe to share between threads over a read-only corpus: cache
probes, insertions and the hit/miss counters are lock-guarded, while query
evaluation itself runs outside the lock so distinct queries proceed in
parallel (see :class:`~repro.service.service.SearchService`, which keeps one
engine per semantics behind a single service facade).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import SearchError
from repro.search.linear_merge import Match
from repro.search.query import KeywordQuery
from repro.search.ranking import Candidate, RankedResult, rank_results
from repro.search.result import SearchResult, SearchResultSet
from repro.search.semantics import get_registration
from repro.search.structural import StructuredQuery
from repro.search.xseek import infer_return_subtree
from repro.storage.corpus import Corpus
from repro.xmlmodel.node import XMLNode

__all__ = ["SearchEngine"]

_TITLE_TAGS = ("name", "title", "brand_name", "product_name", "label")


class SearchEngine:
    """Keyword search over a :class:`~repro.storage.corpus.Corpus`.

    Every result's subtree is the stored document's own return node, a
    read-only view shared with the corpus; ``result.subtree.copy()`` gives an
    editable tree.

    Parameters
    ----------
    corpus:
        The corpus to search.
    semantics:
        Match semantics: ``"slca"`` (default), ``"elca"`` or
        ``"slca_struct"`` (see :mod:`repro.search.semantics`).
    cache_size:
        Maximum number of distinct queries whose ranked results are kept in
        the LRU cache; ``0`` disables caching entirely.
    cache_max_results:
        Maximum *total* number of cached results summed across all entries,
        so a few broad queries cannot grow the cache without bound.  A cached
        result is a small reference (document id, pre numbers, score), not a
        subtree.  ``None`` leaves only the entry-count bound.  A single
        result list exceeding the whole budget is not cached at all.
    """

    def __init__(
        self,
        corpus: Corpus,
        semantics: str = "slca",
        cache_size: int = 128,
        cache_max_results: Optional[int] = 4096,
    ):
        get_registration(semantics)  # reject unknown names at construction
        self.corpus = corpus
        self.semantics = semantics
        self.cache_size = cache_size
        self.cache_max_results = cache_max_results
        self._cache: "OrderedDict[Tuple[Tuple[str, ...], str], List[RankedResult]]" = OrderedDict()
        self._cached_results_total = 0
        self._cache_version = getattr(corpus, "version", None)
        self.cache_hits = 0
        self.cache_misses = 0
        # Guards every access to the cache dict, its bookkeeping totals and
        # the hit/miss counters.  Query *evaluation* runs outside the lock —
        # the corpus is shared read-only — so concurrent distinct queries
        # still evaluate in parallel; only cache probes and insertions
        # serialise.  RLock, not Lock: clear_cache() is also called from
        # inside the locked version check.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def search(self, query: "KeywordQuery | str", limit: Optional[int] = None) -> SearchResultSet:
        """Evaluate a keyword query and return ranked results.

        Parameters
        ----------
        query:
            A :class:`KeywordQuery` or a raw query string.
        limit:
            Optional cap on the number of results returned (after ranking).
            The cache stores the full ranked list, so the same query with
            different limits is still a single cache entry.

        Raises
        ------
        SearchError
            If ``limit`` is negative — a negative value would silently slice
            from the wrong end of the ranked list (``ranked[:-1]`` drops the
            *last* result), which is never what the caller meant.
        """
        if limit is not None and limit < 0:
            raise SearchError(f"limit must be non-negative, got {limit}")
        if isinstance(query, str):
            query = KeywordQuery.parse(query)
        _, results = self._materialise_page(query, 0, limit)
        return SearchResultSet(query=query, results=results)

    def search_page(
        self, query: "KeywordQuery | str", offset: int, count: int
    ) -> Tuple[int, SearchResultSet]:
        """Evaluate a query and materialise one rank window of its results.

        Returns ``(total, page)`` where ``total`` is the full ranked result
        count and ``page`` holds the results at ranks ``offset+1`` to
        ``offset+count`` with their rank-stable ids (``"R{rank}"``).  Only
        the window is resolved to its documents' return nodes and titled, so
        the service layer's pagination and top-``k`` compares stay O(page
        size) per request even when the ranked list is huge.  The results
        are read-only views of the stored documents; edit a ``copy()``.

        Raises
        ------
        SearchError
            If ``offset`` or ``count`` is negative.
        """
        if offset < 0:
            raise SearchError(f"offset must be non-negative, got {offset}")
        if count < 0:
            raise SearchError(f"count must be non-negative, got {count}")
        if isinstance(query, str):
            query = KeywordQuery.parse(query)
        total, results = self._materialise_page(query, offset, count)
        return total, SearchResultSet(query=query, results=results)

    def _materialise_page(
        self, query: KeywordQuery, offset: int, count: Optional[int]
    ) -> Tuple[int, List[SearchResult]]:
        """Resolve and id the ranked results at ``[offset, offset+count)``."""
        ranked = self._ranked_results(query)
        selected = ranked[offset:] if count is None else ranked[offset : offset + count]
        results = [
            self._resolve(entry, f"R{position}")
            for position, entry in enumerate(selected, start=offset + 1)
        ]
        return len(ranked), results

    def clear_cache(self) -> None:
        """Drop every cached query result."""
        with self._lock:
            self._cache.clear()
            self._cached_results_total = 0

    def cache_stats(self) -> Dict[str, int]:
        """Return a consistent snapshot of the cache counters.

        The hit/miss counters were always maintained but never exposed; the
        service layer's ``/stats`` endpoint and the ``serve`` logs read them
        through this accessor.  Keys: ``entries`` (cached queries),
        ``cached_results`` (total results cached, the ``cache_max_results``
        bound), ``hits`` and ``misses`` (lifetime counters, reset never —
        compute rates over deltas).
        """
        with self._lock:
            return {
                "entries": len(self._cache),
                "cached_results": self._cached_results_total,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            }

    # ------------------------------------------------------------------ #
    # Caching
    # ------------------------------------------------------------------ #
    def _ranked_results(self, query: KeywordQuery) -> List[RankedResult]:
        """Return the full ranked list of result references.

        On a miss (or with caching disabled) this is the list the call just
        evaluated, which a miss also caches; on a hit it is the cached list.
        """
        if self.cache_size <= 0:
            return self._evaluate(query)

        key = (query.cache_key, self.semantics)
        with self._lock:
            version = getattr(self.corpus, "version", None)
            if version != self._cache_version:
                self.clear_cache()
                self._cache_version = version
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.cache_hits += 1
                return cached
            self.cache_misses += 1

        # Evaluate outside the lock: the corpus is shared read-only, so
        # distinct queries proceed in parallel.  Two threads racing on the
        # same cold query both evaluate (duplicate work, identical output);
        # the insertion below handles the race by replacing, never
        # double-counting.
        ranked = self._evaluate(query)

        with self._lock:
            if getattr(self.corpus, "version", None) != version:
                # The corpus was mutated after this thread's cache probe; the
                # list may reflect a mix of versions, so hand it out uncached.
                # Compare against the version captured at *our* probe — the
                # shared _cache_version may already have been re-synced to the
                # new corpus version by another thread's probe, which would
                # let this stale list masquerade as current.
                return ranked
            displaced = self._cache.pop(key, None)
            if displaced is not None:
                self._cached_results_total -= len(displaced)
            self._cache[key] = ranked
            self._cached_results_total += len(ranked)
            while self._cache and (
                len(self._cache) > self.cache_size
                or (
                    self.cache_max_results is not None
                    and self._cached_results_total > self.cache_max_results
                )
            ):
                # LRU eviction under either bound; an oversized ranked list
                # can evict everything including itself, so it is never
                # retained.
                _, evicted = self._cache.popitem(last=False)
                self._cached_results_total -= len(evicted)
            return ranked

    def _resolve(self, entry: RankedResult, result_id: str) -> SearchResult:
        """Serve a ranked reference as its document's own return node.

        This is where a pre number becomes a Dewey label: only for the
        results a page serves.
        """
        structure = self.corpus.structure.get(entry.doc_id)
        return_label = structure.label_of(entry.return_pre)
        node = self.corpus.store.get(entry.doc_id).root.node_at(return_label)
        return SearchResult(
            result_id=result_id,
            doc_id=entry.doc_id,
            match_label=structure.label_of(entry.match_pre),
            return_label=return_label,
            subtree=node,
            score=entry.score,
            title=self._result_title(node, entry.doc_id),
        )

    # ------------------------------------------------------------------ #
    # Pipeline stages
    # ------------------------------------------------------------------ #
    def _evaluate(self, query: KeywordQuery) -> List[RankedResult]:
        # Resolved per call through the module-level name (a dict probe), so
        # a wrapper installed over it — bench/tracing.py times the match
        # stage that way — sees every evaluation.  rank_results and
        # infer_return_subtree are called through this module's globals for
        # the same reason.
        registration = get_registration(self.semantics)
        if (
            isinstance(query, StructuredQuery)
            and query.has_constraints
            and not registration.structural
        ):
            # Silently evaluating only the keywords would return results the
            # constraints should have filtered — fail loudly instead.
            raise SearchError(
                f"semantics {self.semantics!r} ignores structural constraints; "
                "use a structure-aware semantics such as 'slca_struct'"
            )
        # Resolve the runs through the *normalised* keyword view — the same
        # identity the cache key uses.  A directly-constructed, un-normalised
        # query (duplicate or multi-token keyword strings) must evaluate
        # exactly like its normalised spelling, because both share one cache
        # entry; resolving the raw keywords here would let the two views
        # drift apart and poison the shared entry.
        index = self.corpus.index
        keyword_runs = index.keyword_node_lists(query.normalized_keywords)
        if not keyword_runs:
            return []
        table = self.corpus.structure
        if registration.structural:
            matches = registration.fn(keyword_runs, table, query)
        else:
            matches = registration.fn(keyword_runs, table)
        return rank_results(
            self._return_nodes(matches), keyword_runs, index.documents_indexed
        )

    def _return_nodes(self, matches: List[Match]) -> List[Candidate]:
        """One ranking candidate per distinct return node, climbed on the table."""
        table = self.corpus.structure
        statistics = self.corpus.statistics
        seen_return_nodes: Set[Tuple[str, int]] = set()
        candidates: List[Candidate] = []
        for doc_id, match_pre in matches:
            structure = table.get(doc_id)
            pre = infer_return_subtree(structure, table.tags, match_pre, statistics)
            key = (doc_id, pre)
            if key in seen_return_nodes:
                continue
            seen_return_nodes.add(key)
            candidates.append((doc_id, match_pre, pre, structure.end[pre]))
        return candidates

    @staticmethod
    def _result_title(subtree: XMLNode, doc_id: str) -> str:
        for tag in _TITLE_TAGS:
            child = subtree.find_child(tag)
            if child is not None:
                text = child.text_content()
                if text:
                    return text
        # Fall back to any descendant name-like node, then to the doc id.
        for tag in _TITLE_TAGS:
            for descendant in subtree.find_descendants(tag):
                text = descendant.text_content()
                if text:
                    return text
        return f"{doc_id}:{subtree.tag}"
