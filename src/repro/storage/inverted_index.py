"""Keyword inverted index over a :class:`~repro.storage.document_store.DocumentStore`.

Each keyword maps to its *runs*: per document, the sorted pre numbers of the
element nodes that post the keyword.  Elements are numbered in pre-order,
``enumerate(root.iter_elements())``, exactly as
:class:`~repro.structure.encoding.DocumentStructure` numbers them, so a
posting is the XPath-accelerator ``pre`` the search layer climbs and no
object is kept per posting.  A node is posted for a keyword when the
keyword appears in the node's own tag name, in its *direct* text, or in one
of its attribute values; ancestor matches are implied by the structural
table and are resolved by the SLCA / ELCA algorithms rather than stored,
which keeps the index linear in corpus size (the classic XML keyword-search
index layout).

Token-keyed tables
------------------
Every table is keyed by the token itself.  A node's tag, text and attribute
values are tokenised once at ingestion by one batch
:func:`~repro.storage.tokenizer.tokenize_many` pass; the query side tokenises
each keyword and looks its bucket up directly.  The index is the one owner
of term statistics in a :class:`~repro.storage.corpus.Corpus`: a term's
document frequency, which TF-IDF ranking reads, is the number of documents
in its bucket.

Copy-on-write buckets
---------------------
A bucket is a dict ``doc_id -> tuple of pre numbers``.  Adding a document
stores one tuple per term it posts and removing one deletes its key, so a
write costs the document's own terms and never re-sorts a bucket: the
document order of a bucket is not kept at all, and a reader that needs it
sorts the few document ids it shares with the other keywords.  The index
writes in place only the buckets it created or copied since it last handed
them out — through :meth:`InvertedIndex.keyword_node_lists` (as read-only
views), :meth:`InvertedIndex.clone` or :meth:`InvertedIndex.finalize` —
so a view held by a reader, or a bucket shared with another generation,
never changes under its holder.  A bucket that a removal leaves empty is
dropped.

Re-adding an existing ``doc_id`` raises
:class:`~repro.errors.IndexError_` before any state is touched, so a failed
call never duplicates postings.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Set, Tuple

from repro.errors import IndexError_
from repro.storage.document_store import DocumentStore
from repro.storage.tokenizer import tokenize, tokenize_many
from repro.xmlmodel.node import XMLNode

__all__ = ["InvertedIndex", "Runs"]

#: One keyword's postings: per document id, the sorted pre numbers of the
#: elements that post it.
Runs = Mapping[str, Tuple[int, ...]]

_NO_RUNS: Runs = MappingProxyType({})


class InvertedIndex:
    """Keyword → per-document runs of pre numbers, with document frequencies."""

    def __init__(self) -> None:
        self._buckets: Dict[str, Dict[str, Tuple[int, ...]]] = {}
        # doc_id -> sorted tuple of the terms the document posted; doubles as
        # the membership set and as the removal work list.
        self._doc_terms: Dict[str, Tuple[str, ...]] = {}
        # Terms whose bucket this index created or copied since it last
        # handed it out: the only buckets it may write in place.
        self._owned: Set[str] = set()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, store: DocumentStore) -> "InvertedIndex":
        """Index every document currently in ``store``."""
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
        runs: Dict[str, List[int]] = {}
        for pre, node in enumerate(root.iter_elements()):
            for term in self._node_terms(node):
                run = runs.get(term)
                if run is None:
                    runs[term] = [pre]
                else:
                    run.append(pre)
        for term, run in runs.items():
            self._writable(term)[doc_id] = tuple(run)
        self._doc_terms[doc_id] = tuple(sorted(runs))

    @classmethod
    def _restore(
        cls,
        *,
        buckets: Dict[str, Dict[str, Tuple[int, ...]]],
        doc_terms: Dict[str, Tuple[str, ...]],
    ) -> "InvertedIndex":
        """Rebuild an index directly from its tables (snapshot loading)."""
        index = cls()
        index._buckets = buckets
        index._doc_terms = doc_terms
        return index

    def clone(self) -> "InvertedIndex":
        """Structurally-shared copy for generation-swap writes.

        Both indexes share every bucket, and neither owns one: the first
        write to a bucket, on either side, copies its document map.
        """
        self._owned.clear()
        index = InvertedIndex()
        index._buckets = dict(self._buckets)
        index._doc_terms = dict(self._doc_terms)
        return index

    def remove_document(self, doc_id: str) -> None:
        """Un-index one document, visiting only the terms it posted.

        Raises
        ------
        IndexError_
            If ``doc_id`` was never indexed.  The index is unchanged.
        """
        terms = self._doc_terms.pop(doc_id, None)
        if terms is None:
            raise IndexError_(f"document {doc_id!r} is not indexed")
        buckets = self._buckets
        for term in terms:
            if len(buckets[term]) == 1:
                del buckets[term]
                self._owned.discard(term)
            else:
                del self._writable(term)[doc_id]

    def finalize(self) -> None:
        """Hand every bucket out: later writes copy before they change one.

        A writer calls this (through :meth:`Corpus.finalize
        <repro.storage.corpus.Corpus.finalize>`) before publishing a
        generation, so nothing its readers hold is written afterwards.
        """
        self._owned.clear()

    def _writable(self, term: str) -> Dict[str, Tuple[int, ...]]:
        """The bucket of ``term``, created or copied if this index does not own it."""
        bucket = self._buckets.get(term, {})
        if term not in self._owned:
            bucket = self._buckets[term] = dict(bucket)
            self._owned.add(term)
        return bucket

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
    def document_frequency(self, keyword: str) -> int:
        """Number of documents containing the keyword at least once."""
        tokens = tokenize(keyword)
        if not tokens:
            return 0
        return len(self._buckets.get(tokens[0], ()))

    def vocabulary(self) -> List[str]:
        """Return the indexed terms in sorted order."""
        return sorted(self._buckets)

    @property
    def documents_indexed(self) -> int:
        """Number of documents added to the index."""
        return len(self._doc_terms)

    def __contains__(self, keyword: str) -> bool:
        tokens = tokenize(keyword)
        if not tokens:
            return False
        return tokens[0] in self._buckets

    def __len__(self) -> int:
        return len(self._buckets)

    def keyword_node_lists(self, keywords: Iterable[str]) -> List[Runs]:
        """Return the runs of every query keyword, preserving query order.

        Each keyword is tokenised; keywords that tokenise to nothing are
        dropped, and a token absent from the corpus yields empty runs, which
        the caller reads as an empty result set (conjunctive keyword
        semantics).  The runs are read-only views of the index's buckets:
        handing them out makes the buckets shared, so a later write copies
        the bucket first and a held view never changes.
        """
        buckets = self._buckets
        owned = self._owned
        runs: List[Runs] = []
        for keyword in keywords:
            for token in tokenize(keyword):
                bucket = buckets.get(token)
                if bucket is None:
                    runs.append(_NO_RUNS)
                else:
                    owned.discard(token)
                    runs.append(MappingProxyType(bucket))
        return runs
