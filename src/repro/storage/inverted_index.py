"""Keyword inverted index over a :class:`~repro.storage.document_store.DocumentStore`.

Each keyword maps to a posting list of ``(doc_id, DeweyLabel)`` pairs sorted in
document order.  A node is posted for a keyword when the keyword appears in the
node's own tag name, in its *direct* text, or in one of its attribute values;
ancestor matches are implied by the Dewey labels and are resolved by the SLCA /
ELCA algorithms rather than stored, which keeps the index linear in corpus size
(the classic XML keyword-search index layout).

Token-keyed tables
------------------
Every table is keyed by the token itself.  A node's tag, text and attribute
values are tokenised once at ingestion by one batch
:func:`~repro.storage.tokenizer.tokenize_many` pass; the query side tokenises
each keyword and looks its bucket up directly.  The index is the one owner
of term statistics in a :class:`~repro.storage.corpus.Corpus`: a term's
document frequency, which TF-IDF ranking reads, is the size of its
per-document offset map.

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
incremental: the index remembers which terms each document touched, so
removal visits only that document's terms and slices the document's
contiguous posting run out of each finalized bucket (or filters a dirty one)
— no full rebuild, cost proportional to the removed document's postings.  A
bucket that the removal leaves empty is dropped.

Re-adding an existing ``doc_id`` raises
:class:`~repro.errors.IndexError_` before any state is touched, so a failed
call never duplicates postings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.errors import IndexError_
from repro.storage.document_store import DocumentStore
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
    """Keyword → posting list index with frequency statistics."""

    def __init__(self) -> None:
        self._postings: Dict[str, List[Posting]] = {}
        self._doc_ranges: Dict[str, Dict[str, Tuple[int, int]]] = {}
        # doc_id -> sorted tuple of the terms the document posted; doubles as
        # the membership set and as the removal work list.
        self._doc_terms: Dict[str, Tuple[str, ...]] = {}
        self._dirty_terms: Set[str] = set()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, store: DocumentStore) -> "InvertedIndex":
        """Index every document currently in ``store`` and finalize."""
        index = cls()
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
        seen_terms: Set[str] = set()
        for node in root.iter_elements():
            terms = self._node_terms(node)
            if not terms:
                continue
            # One frozen Posting per node, shared by every term bucket the
            # node lands in — construction cost is per node, not per term.
            posting = Posting(doc_id=doc_id, label=node.label)
            for term in terms:
                bucket = postings.get(term)
                if bucket is None:
                    bucket = postings[term] = []
                elif term not in dirty and term not in seen_terms:
                    # Copy-on-write: finalized buckets may be aliased by
                    # earlier keyword_node_lists() callers, so the first
                    # mutation after a finalize works on a fresh list and
                    # handed-out lists stay stable snapshots.
                    bucket = postings[term] = list(bucket)
                bucket.append(posting)
            seen_terms.update(terms)
        self._dirty_terms.update(seen_terms)
        self._doc_terms[doc_id] = tuple(sorted(seen_terms))

    @classmethod
    def _restore(
        cls,
        *,
        postings: Dict[str, List[Posting]],
        doc_ranges: Dict[str, Dict[str, Tuple[int, int]]],
        doc_terms: Dict[str, Tuple[str, ...]],
    ) -> "InvertedIndex":
        """Rebuild an index directly from finalized tables (snapshot loading).

        The caller provides posting buckets already in document order together
        with their per-document offset maps — the invariant :meth:`finalize`
        establishes — so the restored index starts with no dirty terms and
        never re-sorts anything.
        """
        index = cls()
        index._postings = postings
        index._doc_ranges = doc_ranges
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
        inner dict in place.
        """
        self.finalize()
        index = InvertedIndex()
        index._postings = dict(self._postings)
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
        terms = self._doc_terms.pop(doc_id, None)
        if terms is None:
            raise IndexError_(f"document {doc_id!r} is not indexed")
        postings = self._postings
        ranges = self._doc_ranges
        dirty = self._dirty_terms
        for term in terms:
            bucket = postings[term]
            if term in dirty:
                remaining = [posting for posting in bucket if posting.doc_id != doc_id]
            else:
                start, end = ranges[term][doc_id]
                remaining = bucket[:start] + bucket[end:]
            if remaining:
                postings[term] = remaining
                dirty.add(term)
            else:
                del postings[term]
                ranges.pop(term, None)
                dirty.discard(term)

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
        for term in self._dirty_terms:
            bucket = self._postings[term]
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
                self._postings[term] = merged
            self._doc_ranges[term] = ranges
        self._dirty_terms.clear()

    def _node_terms(self, node: XMLNode) -> Set[str]:
        """Distinct terms a node posts: tag, direct text, attribute values.

        All the node's text fragments are tokenised by one batch
        :func:`tokenize_many` pass — this is the tokenisation hot loop of
        index construction.
        """
        texts = [node.tag or ""]
        direct = node.direct_text()
        if direct:
            texts.append(direct)
        attributes = node.attributes
        if attributes:
            texts.extend(attributes.values())
        return set(tokenize_many(texts))

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def postings(self, keyword: str) -> List[Posting]:
        """Return the posting list for a keyword (tokenised first)."""
        token = self._single_token(keyword)
        if token is None:
            return []
        self.finalize()
        return list(self._postings.get(token, _EMPTY))

    def postings_for_document(self, keyword: str, doc_id: str) -> List[Posting]:
        """Return the postings of a keyword restricted to one document.

        Uses the per-document offset map built at finalize time, so the cost is
        a dictionary lookup plus one slice — independent of the length of the
        full posting list.
        """
        token = self._single_token(keyword)
        if token is None:
            return []
        self.finalize()
        ranges = self._doc_ranges.get(token)
        if not ranges:
            return []
        span = ranges.get(doc_id)
        if span is None:
            return []
        return self._postings[token][span[0]:span[1]]

    def document_frequency(self, keyword: str) -> int:
        """Number of documents containing the keyword at least once."""
        tokens = tokenize(keyword)
        if not tokens:
            return 0
        self.finalize()
        return len(self._doc_ranges.get(tokens[0], ()))

    def collection_frequency(self, keyword: str) -> int:
        """Total number of node postings of the keyword across the corpus."""
        tokens = tokenize(keyword)
        if not tokens:
            return 0
        return len(self._postings.get(tokens[0], _EMPTY))

    def vocabulary(self) -> List[str]:
        """Return the indexed terms in sorted order."""
        return sorted(self._postings)

    @property
    def documents_indexed(self) -> int:
        """Number of documents added to the index."""
        return len(self._doc_terms)

    def __contains__(self, keyword: str) -> bool:
        tokens = tokenize(keyword)
        if not tokens:
            return False
        return tokens[0] in self._postings

    def __len__(self) -> int:
        return len(self._postings)

    def _single_token(self, keyword: str) -> "str | None":
        tokens = tokenize(keyword)
        if not tokens:
            return None
        if len(tokens) > 1:
            raise IndexError_(f"postings() expects a single keyword, got {keyword!r}")
        return tokens[0]

    # ------------------------------------------------------------------ #
    # Query-side helpers used by the search algorithms
    # ------------------------------------------------------------------ #
    def keyword_node_lists(
        self, keywords: Iterable[str], *, copy: bool = True
    ) -> List[List[Posting]]:
        """Return one posting list per query keyword, preserving query order.

        Each keyword is tokenised once; keywords that tokenise to nothing
        are dropped; a keyword absent from
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
        buckets = self._postings
        lists: List[List[Posting]] = []
        for keyword in keywords:
            for token in tokenize(keyword):
                bucket = buckets.get(token, _EMPTY)
                lists.append(list(bucket) if copy else bucket)
        return lists

    def documents_containing_all(self, keywords: Iterable[str]) -> List[str]:
        """Return ids of documents containing every query keyword."""
        self.finalize()
        doc_sets: List[set] = []
        for keyword in keywords:
            for token in tokenize(keyword):
                doc_sets.append(set(self._doc_ranges.get(token, {})))
        if not doc_sets:
            return []
        common = set.intersection(*doc_sets)
        return sorted(common)
