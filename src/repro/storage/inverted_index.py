"""Keyword inverted index over a :class:`~repro.storage.document_store.DocumentStore`.

Each keyword maps to a posting list of ``(doc_id, DeweyLabel)`` pairs sorted in
document order.  A node is posted for a keyword when the keyword appears in the
node's own tag name, in its *direct* text, or in one of its attribute values;
ancestor matches are implied by the Dewey labels and are resolved by the SLCA /
ELCA algorithms rather than stored, which keeps the index linear in corpus size
(the classic XML keyword-search index layout).

Term interning
--------------
Internally every table is keyed by a dense integer term id from a
:class:`~repro.storage.term_dictionary.TermDictionary`, not by the token
string.  Tokens are interned once at ingestion (via the batch
:func:`~repro.storage.tokenizer.tokenize_many` pass over a node's tag, text
and attribute values); the query side resolves each keyword through the
dictionary exactly once per call and then works on ids.  The public API stays
string-based — callers hand in keywords, the index resolves them — while the
hot loops never hash a string per posting.  The index is the one owner of
term statistics in a :class:`~repro.storage.corpus.Corpus`: its document
frequencies feed TF-IDF ranking, and nothing else interns into its
dictionary.

Build strategy
--------------
Posting lists are built in two phases so that bulk construction is near-linear
overall instead of the ``O(n^2)`` a per-posting ``insort`` would cost:

1. :meth:`InvertedIndex.add_document` only *appends*.  Document traversal
   yields nodes in document order, so each document contributes one
   contiguous, already-sorted run to every bucket it touches; the bucket as a
   whole is a concatenation of per-document sorted runs.
2. The first lookup after a mutation finalizes the dirty buckets: the run
   boundaries are found in one linear scan, the runs (not the postings) are
   sorted by document id and concatenated — zero per-posting comparisons —
   and a per-document offset map ``doc_id -> (start, end)`` is rebuilt, so
   :meth:`postings_for_document` returns a slice instead of scanning the full
   posting list.

Removal
-------
:meth:`remove_document` is the inverse of :meth:`add_document` and is likewise
incremental: the index remembers which term ids each document touched, so
removal visits only that document's terms, slices the document's contiguous
posting run out of each finalized bucket (or filters a dirty one), and
decrements document frequencies — no full rebuild, cost proportional to the
removed document's postings.  Buckets whose last document disappears are
dropped; their term ids stay reserved in the dictionary.

Re-adding an existing ``doc_id`` raises
:class:`~repro.errors.IndexError_` before any state is touched, so a failed
call never duplicates postings or double-counts document frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import IndexError_
from repro.storage.document_store import DocumentStore
from repro.storage.term_dictionary import TermDictionary
from repro.storage.tokenizer import tokenize, tokenize_many
from repro.xmlmodel.dewey import DeweyLabel
from repro.xmlmodel.node import XMLNode

__all__ = ["Posting", "InvertedIndex"]


@dataclass(frozen=True, order=True)
class Posting:
    """A single posting: a node occurrence of a keyword.

    Postings order by ``(doc_id, label)``, i.e. document order within a
    document and lexicographic document-id order across documents.
    """

    doc_id: str
    label: DeweyLabel


_EMPTY: List[Posting] = []


class InvertedIndex:
    """Keyword → posting list index with frequency statistics.

    Parameters
    ----------
    dictionary:
        The :class:`TermDictionary` to intern tokens into, for callers that
        build into an already-populated one; when omitted the index owns a
        fresh one.
    """

    def __init__(self, dictionary: Optional[TermDictionary] = None) -> None:
        self._dictionary = dictionary if dictionary is not None else TermDictionary()
        self._postings: Dict[int, List[Posting]] = {}
        self._document_frequency: Dict[int, int] = {}
        self._doc_ranges: Dict[int, Dict[str, Tuple[int, int]]] = {}
        # doc_id -> sorted tuple of the term ids the document posted; doubles
        # as the membership set and as the removal work list.
        self._doc_terms: Dict[str, Tuple[int, ...]] = {}
        self._dirty_terms: Set[int] = set()

    @property
    def dictionary(self) -> TermDictionary:
        """The term dictionary this index interns into."""
        return self._dictionary

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls, store: DocumentStore, dictionary: Optional[TermDictionary] = None
    ) -> "InvertedIndex":
        """Index every document currently in ``store`` and finalize."""
        index = cls(dictionary)
        for document in store:
            index.add_document(document.doc_id, document.root)
        index.finalize()
        return index

    def add_document(self, doc_id: str, root: XMLNode) -> None:
        """Index a single document tree.

        Raises
        ------
        IndexError_
            If ``doc_id`` has already been indexed.  The index is unchanged in
            that case.
        """
        if doc_id in self._doc_terms:
            raise IndexError_(f"document {doc_id!r} is already indexed")
        postings = self._postings
        dirty = self._dirty_terms
        seen_terms: Set[int] = set()
        for node in root.iter_elements():
            term_ids = self._node_term_ids(node)
            if not term_ids:
                continue
            # One frozen Posting per node, shared by every term bucket the
            # node lands in — construction cost is per node, not per term.
            posting = Posting(doc_id=doc_id, label=node.label)
            for term_id in term_ids:
                bucket = postings.get(term_id)
                if bucket is None:
                    bucket = postings[term_id] = []
                elif term_id not in dirty and term_id not in seen_terms:
                    # Copy-on-write: finalized buckets may be aliased by
                    # earlier keyword_node_lists() callers, so the first
                    # mutation after a finalize works on a fresh list and
                    # handed-out lists stay stable snapshots.
                    bucket = postings[term_id] = list(bucket)
                bucket.append(posting)
            seen_terms.update(term_ids)
        frequency = self._document_frequency
        for term_id in seen_terms:
            frequency[term_id] = frequency.get(term_id, 0) + 1
        self._dirty_terms.update(seen_terms)
        self._doc_terms[doc_id] = tuple(sorted(seen_terms))

    @classmethod
    def _restore(
        cls,
        dictionary: TermDictionary,
        *,
        postings: Dict[int, List[Posting]],
        doc_ranges: Dict[int, Dict[str, Tuple[int, int]]],
        document_frequency: Dict[int, int],
        doc_terms: Dict[str, Tuple[int, ...]],
    ) -> "InvertedIndex":
        """Rebuild an index directly from finalized tables (snapshot loading).

        The caller provides posting buckets already in document order together
        with their per-document offset maps — the invariant :meth:`finalize`
        establishes — so the restored index starts with no dirty terms and
        never re-sorts anything.
        """
        index = cls(dictionary)
        index._postings = postings
        index._doc_ranges = doc_ranges
        index._document_frequency = document_frequency
        index._doc_terms = doc_terms
        return index

    def clone(self) -> "InvertedIndex":
        """Structurally-shared copy for generation-swap writes.

        Finalizes first, so every shared bucket is protected by the same
        copy-on-write rule that protects lists handed out by
        :meth:`keyword_node_lists`: the first post-finalize mutation of a
        bucket — on either copy — works on a fresh list.  The per-document
        offset maps are likewise safe to share because mutations only ever
        *replace* inner dicts (at finalize) or pop outer keys, never edit an
        inner dict in place.  The dictionary is cloned, so the copy interns
        new terms without the original observing them.
        """
        self.finalize()
        index = InvertedIndex(self._dictionary.clone())
        index._postings = dict(self._postings)
        index._document_frequency = dict(self._document_frequency)
        index._doc_ranges = dict(self._doc_ranges)
        index._doc_terms = dict(self._doc_terms)
        return index

    def remove_document(self, doc_id: str) -> None:
        """Un-index one document, incrementally.

        Only the buckets of the terms the document actually posted are
        visited.  In a finalized bucket the document's postings form one
        contiguous run located through the per-document offset map, so they
        are sliced out in O(bucket length); dirty buckets are filtered.
        Buckets are replaced, never mutated in place, so posting lists handed
        out by :meth:`keyword_node_lists` stay stable snapshots.

        Raises
        ------
        IndexError_
            If ``doc_id`` was never indexed.  The index is unchanged.
        """
        term_ids = self._doc_terms.pop(doc_id, None)
        if term_ids is None:
            raise IndexError_(f"document {doc_id!r} is not indexed")
        postings = self._postings
        frequency = self._document_frequency
        ranges = self._doc_ranges
        dirty = self._dirty_terms
        for term_id in term_ids:
            bucket = postings[term_id]
            remaining_frequency = frequency[term_id] - 1
            if remaining_frequency == 0:
                del postings[term_id]
                del frequency[term_id]
                ranges.pop(term_id, None)
                dirty.discard(term_id)
                continue
            if term_id in dirty:
                remaining = [posting for posting in bucket if posting.doc_id != doc_id]
            else:
                start, end = ranges[term_id][doc_id]
                remaining = bucket[:start] + bucket[end:]
            postings[term_id] = remaining
            frequency[term_id] = remaining_frequency
            dirty.add(term_id)

    def finalize(self) -> None:
        """Order dirty posting lists and rebuild their per-document offsets.

        Exploits the bucket invariant maintained by every mutation: each
        document's postings are *contiguous* and internally sorted in
        document order (appends happen during that document's add call, in
        traversal order; removal slices preserve contiguity).  A dirty bucket
        is therefore a concatenation of per-document sorted runs, and global
        order only needs the runs rearranged by ``doc_id`` — no per-posting
        comparisons, so finalizing costs one linear scan plus a sort of the
        (much shorter) run list.  Buckets whose runs are already in document
        order — the common case when documents arrive in id order — are kept
        as-is.

        Called lazily by every order-sensitive lookup; exposed so that bulk
        builders can pay the cost at a deterministic point.
        """
        if not self._dirty_terms:
            return
        for term_id in self._dirty_terms:
            bucket = self._postings[term_id]
            runs: List[Tuple[str, int, int]] = []
            in_order = True
            run_doc = None
            run_start = 0
            for position, posting in enumerate(bucket):
                doc_id = posting.doc_id
                if doc_id != run_doc:
                    if run_doc is not None:
                        runs.append((run_doc, run_start, position))
                        if doc_id < run_doc:
                            in_order = False
                    run_doc = doc_id
                    run_start = position
            if run_doc is not None:
                runs.append((run_doc, run_start, len(bucket)))
            ranges: Dict[str, Tuple[int, int]] = {}
            if in_order:
                for doc_id, start, end in runs:
                    ranges[doc_id] = (start, end)
            else:
                runs.sort()
                merged: List[Posting] = []
                for doc_id, start, end in runs:
                    merged_start = len(merged)
                    merged.extend(bucket[start:end])
                    ranges[doc_id] = (merged_start, len(merged))
                self._postings[term_id] = merged
            self._doc_ranges[term_id] = ranges
        self._dirty_terms.clear()

    def _node_term_ids(self, node: XMLNode) -> Set[int]:
        """Distinct term ids a node posts: tag, direct text, attribute values.

        All the node's text fragments are tokenised by one batch
        :func:`tokenize_many` pass and interned in one bulk call — this is the
        tokenisation hot loop of index construction.
        """
        texts = [node.tag or ""]
        direct = node.direct_text()
        if direct:
            texts.append(direct)
        attributes = node.attributes
        if attributes:
            texts.extend(attributes.values())
        tokens = tokenize_many(texts)
        if not tokens:
            return set()
        return set(self._dictionary.intern_many(tokens))

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def postings(self, keyword: str) -> List[Posting]:
        """Return the posting list for a keyword (tokenised first)."""
        token = self._single_token(keyword)
        if token is None:
            return []
        self.finalize()
        return list(self._bucket_for_token(token))

    def postings_by_id(self, term_id: int) -> List[Posting]:
        """Return the posting list for an already-resolved term id."""
        self.finalize()
        return list(self._postings.get(term_id, _EMPTY))

    def postings_for_document(self, keyword: str, doc_id: str) -> List[Posting]:
        """Return the postings of a keyword restricted to one document.

        Uses the per-document offset map built at finalize time, so the cost is
        a dictionary lookup plus one slice — independent of the length of the
        full posting list.
        """
        token = self._single_token(keyword)
        if token is None:
            return []
        term_id = self._dictionary.lookup(token)
        if term_id is None:
            return []
        self.finalize()
        ranges = self._doc_ranges.get(term_id)
        if not ranges:
            return []
        span = ranges.get(doc_id)
        if span is None:
            return []
        return self._postings[term_id][span[0]:span[1]]

    def document_frequency(self, keyword: str) -> int:
        """Number of documents containing the keyword at least once."""
        tokens = tokenize(keyword)
        if not tokens:
            return 0
        term_id = self._dictionary.lookup(tokens[0])
        if term_id is None:
            return 0
        return self._document_frequency.get(term_id, 0)

    def collection_frequency(self, keyword: str) -> int:
        """Total number of node postings of the keyword across the corpus."""
        tokens = tokenize(keyword)
        if not tokens:
            return 0
        return len(self._bucket_for_token(tokens[0]))

    def vocabulary(self) -> List[str]:
        """Return the indexed terms in sorted order."""
        term = self._dictionary.term
        return sorted(term(term_id) for term_id in self._postings)

    @property
    def documents_indexed(self) -> int:
        """Number of documents added to the index."""
        return len(self._doc_terms)

    def __contains__(self, keyword: str) -> bool:
        tokens = tokenize(keyword)
        if not tokens:
            return False
        term_id = self._dictionary.lookup(tokens[0])
        return term_id is not None and term_id in self._postings

    def __len__(self) -> int:
        return len(self._postings)

    def _single_token(self, keyword: str) -> "str | None":
        tokens = tokenize(keyword)
        if not tokens:
            return None
        if len(tokens) > 1:
            raise IndexError_(f"postings() expects a single keyword, got {keyword!r}")
        return tokens[0]

    def _bucket_for_token(self, token: str) -> List[Posting]:
        """Internal bucket for one already-tokenised token (may be shared)."""
        term_id = self._dictionary.lookup(token)
        if term_id is None:
            return _EMPTY
        return self._postings.get(term_id, _EMPTY)

    # ------------------------------------------------------------------ #
    # Query-side helpers used by the search algorithms
    # ------------------------------------------------------------------ #
    def keyword_node_lists(
        self, keywords: Iterable[str], *, copy: bool = True
    ) -> List[List[Posting]]:
        """Return one posting list per query keyword, preserving query order.

        Each keyword is resolved through the term dictionary exactly once;
        keywords that tokenise to nothing are dropped; a keyword absent from
        the corpus yields an empty list, which the caller interprets as an
        empty result set (conjunctive keyword semantics).

        With ``copy=False`` the returned lists are the index's internal
        buckets, which trusted read-only callers (the search engine's hot
        path) use to skip one copy per keyword.  They are stable snapshots —
        later index mutations copy-on-write any finalized bucket, so a held
        list never changes under its holder — but caller-side mutation would
        corrupt the index, hence copies are the default.
        """
        self.finalize()
        lookup = self._dictionary.lookup
        buckets = self._postings
        lists: List[List[Posting]] = []
        for keyword in keywords:
            for token in tokenize(keyword):
                term_id = lookup(token)
                bucket = _EMPTY if term_id is None else buckets.get(term_id, _EMPTY)
                lists.append(list(bucket) if copy else bucket)
        return lists

    def documents_containing_all(self, keywords: Iterable[str]) -> List[str]:
        """Return ids of documents containing every query keyword."""
        self.finalize()
        lookup = self._dictionary.lookup
        doc_sets: List[set] = []
        for keyword in keywords:
            for token in tokenize(keyword):
                term_id = lookup(token)
                ranges = {} if term_id is None else self._doc_ranges.get(term_id, {})
                doc_sets.append(set(ranges))
        if not doc_sets:
            return []
        common = set.intersection(*doc_sets)
        return sorted(common)
