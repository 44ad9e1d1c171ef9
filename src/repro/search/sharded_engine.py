"""Query fan-out over a :class:`~repro.storage.sharded.ShardedCorpus`.

The query half of ROADMAP item 1.  A :class:`ShardedSearchEngine` subclasses
:class:`~repro.search.engine.SearchEngine` and replaces exactly one pipeline
stage — ``_evaluate`` — with a scatter/gather:

1. **scatter** — every shard gets its own plain ``SearchEngine`` over a
   :class:`_ShardView`: the shard's store and inverted index paired with the
   *global* statistics and version of the owning sharded corpus.  The
   sub-engines are evaluated in turn on the calling thread;
2. **gather** — each shard returns its results already ranked by
   :func:`~repro.search.ranking.rank_results`; the shard lists are k-way
   merged with :func:`heapq.merge` under the same sort key ranking uses.

Byte-identical equivalence with a single-corpus engine is a theorem, not a
hope, and the differential suite in ``tests/test_sharded.py`` pins it:

* scores are computed from the global statistics (idf, document counts) and
  from posting spans of the *owning* shard's index, which for any document
  are exactly the spans the monolithic index holds for it;
* XSeek return-node inference reads only the global statistics, so result
  boundaries cannot depend on the partitioning;
* the ranking sort key ``(-score, doc_id, match_label)`` is unique per
  result (results are deduplicated per ``(doc_id, return_label)`` and
  distinct results in one document have distinct match labels), so merging
  per-shard sorted lists under that key reproduces the exact total order a
  global sort would produce.

Everything else — the LRU result cache, pagination windows, defensive result
clones, ``cache_stats`` — is inherited unchanged, so the service layer
cannot tell the engines apart.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.search.engine import SearchEngine
from repro.search.query import KeywordQuery
from repro.search.result import SearchResult
from repro.storage.sharded import ShardedCorpus

__all__ = ["ShardedSearchEngine"]


def _rank_order(result: SearchResult) -> Tuple:
    # Must mirror the sort key of repro.search.ranking.rank_results — the
    # k-way merge is only equivalent to a global sort under the same key.
    return (-result.score, result.doc_id, result.match_label)


class _ShardView:
    """The corpus surface a per-shard sub-engine sees.

    Store and index come from the shard; statistics and version come from
    the owning :class:`ShardedCorpus`.  Global statistics are the crux:
    per-shard document frequencies would skew idf scores and could even move
    XSeek's inferred return boundaries, making results depend on the
    partitioning.
    """

    __slots__ = ("_shard", "_owner")

    def __init__(self, shard, owner: ShardedCorpus) -> None:
        self._shard = shard
        self._owner = owner

    @property
    def name(self) -> str:
        return self._shard.name

    @property
    def store(self):
        return self._shard.store

    @property
    def index(self):
        return self._shard.index

    @property
    def statistics(self):
        return self._owner.statistics

    @property
    def structure(self):
        # Per-shard structural tables: pre/post numbers are document-local,
        # so structural evaluation needs no cross-shard state and fan-out
        # merges stay exact (matches are unioned in document order).
        return self._shard.structure

    @property
    def version(self) -> int:
        return self._owner.version


class ShardedSearchEngine(SearchEngine):
    """Fan-out keyword search over a :class:`ShardedCorpus`.

    Parameters match :class:`SearchEngine` (the cache bounds apply to the
    top-level merged-result cache; sub-engines are uncached — the merged
    list is what repeats, per-shard lists would just duplicate it N ways).
    """

    def __init__(
        self,
        corpus: ShardedCorpus,
        semantics: str = "slca",
        cache_size: int = 128,
        cache_max_results: Optional[int] = 4096,
    ):
        super().__init__(
            corpus,
            semantics=semantics,
            cache_size=cache_size,
            cache_max_results=cache_max_results,
        )
        self._shard_engines = [
            SearchEngine(_ShardView(shard, corpus), semantics=semantics, cache_size=0)
            for shard in corpus.shards
        ]

    @property
    def shard_count(self) -> int:
        return len(self._shard_engines)

    # ------------------------------------------------------------------ #
    # The one overridden pipeline stage
    # ------------------------------------------------------------------ #
    def _evaluate(self, query: KeywordQuery) -> List[SearchResult]:
        shard_lists = [engine._evaluate(query) for engine in self._shard_engines]
        shard_lists = [ranked for ranked in shard_lists if ranked]
        if not shard_lists:
            return []
        if len(shard_lists) == 1:
            return shard_lists[0]
        return list(heapq.merge(*shard_lists, key=_rank_order))
