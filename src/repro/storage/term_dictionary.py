"""Interning dictionary mapping search tokens to dense integer term ids.

Every token that enters the storage layer through index construction is
*interned* exactly once: the first occurrence is assigned the next free
integer id, later occurrences resolve to the same id through one dictionary
probe.  Everything downstream of tokenisation (the
:class:`~repro.storage.inverted_index.InvertedIndex` posting buckets and its
document-frequency table) then keys its tables by these small ints instead of
by the token strings, which

* shrinks every per-term table key to a machine word,
* turns repeated per-posting string hashing into integer hashing, and
* gives the query side a single string→id resolution point per keyword —
  after :meth:`TermDictionary.lookup`, the whole evaluation works on ids.

Ids are dense (``0..len-1``), stable for the lifetime of the dictionary, and
never recycled: removing every document containing a term keeps the term's id
reserved so that any id held by a consumer stays valid.  Each
:class:`~repro.storage.inverted_index.InvertedIndex` owns its dictionary
unless it is built into a given one, and a generation-swap clone of the index
clones the dictionary with it.

Query-side resolution uses :meth:`lookup` (non-inserting) so that searching
for absent keywords does not grow the dictionary.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from repro.errors import SnapshotFormatError

__all__ = ["TermDictionary"]


class TermDictionary:
    """Bidirectional term ↔ dense-id mapping with O(1) operations both ways."""

    __slots__ = ("_ids", "_terms")

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._terms: List[str] = []

    # ------------------------------------------------------------------ #
    # Interning (write side)
    # ------------------------------------------------------------------ #
    def intern(self, term: str) -> int:
        """Return the id of ``term``, assigning the next free id if new."""
        term_id = self._ids.get(term)
        if term_id is None:
            term_id = len(self._terms)
            self._ids[term] = term_id
            self._terms.append(term)
        return term_id

    def intern_many(self, terms: Iterable[str]) -> List[int]:
        """Intern every term of an iterable; returns ids in input order.

        This is the bulk entry point used by document ingestion: one Python
        call interns all tokens of a node, amortising the per-call overhead
        of :meth:`intern` across the batch.
        """
        ids = self._ids
        term_list = self._terms
        out: List[int] = []
        append = out.append
        for term in terms:
            term_id = ids.get(term)
            if term_id is None:
                term_id = len(term_list)
                ids[term] = term_id
                term_list.append(term)
            append(term_id)
        return out

    @classmethod
    def _restore(cls, terms: "Iterable[str]") -> "TermDictionary":
        """Rebuild a dictionary from its term list in id order.

        Snapshot-loading entry point: the i-th term receives id ``i``, exactly
        reversing :meth:`__iter__`.  Raises
        :class:`~repro.errors.SnapshotFormatError` on duplicate terms, which
        could never have been produced by interning.
        """
        dictionary = cls()
        dictionary._terms = list(terms)
        dictionary._ids = {term: term_id for term_id, term in enumerate(dictionary._terms)}
        if len(dictionary._ids) != len(dictionary._terms):
            raise SnapshotFormatError("malformed snapshot: term dictionary has duplicate terms")
        return dictionary

    def clone(self) -> "TermDictionary":
        """Return an independent copy preserving every term ↔ id assignment.

        Generation-swap writes clone the dictionary so the new generation can
        intern fresh terms without the served generation observing them.
        """
        copy = TermDictionary()
        copy._ids = dict(self._ids)
        copy._terms = list(self._terms)
        return copy

    # ------------------------------------------------------------------ #
    # Resolution (read side)
    # ------------------------------------------------------------------ #
    def lookup(self, term: str) -> Optional[int]:
        """Return the id of ``term`` or ``None`` — never inserts.

        The query side uses this so that searches for unknown keywords do not
        grow the dictionary.
        """
        return self._ids.get(term)

    def term(self, term_id: int) -> str:
        """Return the term string for an id assigned by this dictionary.

        Raises
        ------
        IndexError
            If ``term_id`` was never assigned.
        """
        return self._terms[term_id]

    # ------------------------------------------------------------------ #
    # Protocol
    # ------------------------------------------------------------------ #
    def __contains__(self, term: str) -> bool:
        return term in self._ids

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[str]:
        """Iterate terms in id order (id of the i-th yielded term is ``i``)."""
        return iter(self._terms)

    def __repr__(self) -> str:
        return f"TermDictionary(terms={len(self._terms)})"
