"""Corpus-level registry of per-document structural indexes.

A :class:`StructuralTable` hangs off every
:class:`~repro.storage.corpus.Corpus` and holds one
:class:`~repro.structure.encoding.DocumentStructure` per stored document.
The corpus builds each document's structure next to its index entry, from
the tree it is indexing; a snapshot load restores the table from the
directory's label tables (depths and last components) and the stored tag
arrays without decoding a record or building a label.  Every keyword
query reads the table of every matched document (XSeek climbs ``parent``
and ranking sizes a result as ``end - pre``), so a structure is never
computed on demand.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.errors import DocumentNotFoundError
from repro.structure.encoding import DocumentStructure, TagDictionary
from repro.xmlmodel.node import XMLNode

__all__ = ["StructuralTable"]


class StructuralTable:
    """Per-document :class:`DocumentStructure` instances and their tag dictionary.

    Like the corpus's index and statistics, the table is written only while
    a corpus generation is built and read concurrently once it is
    published.  The shared :class:`TagDictionary` interns under its own
    lock, so tag ids stay stable across generations.
    """

    def __init__(
        self,
        tags: Optional[TagDictionary] = None,
        documents: Optional[Dict[str, DocumentStructure]] = None,
    ):
        self.tags = tags if tags is not None else TagDictionary()
        self._documents: Dict[str, DocumentStructure] = dict(documents or {})

    def add(self, doc_id: str, root: XMLNode) -> None:
        """Index one document tree, interning its tags."""
        self._documents[doc_id] = DocumentStructure.from_tree(root, self.tags)

    def clone(self) -> "StructuralTable":
        """Copy for a new corpus generation.

        Each :class:`DocumentStructure` is immutable, so the copy shares the
        instances and owns only its membership; the :class:`TagDictionary`
        is shared outright (it interns append-only).
        """
        return StructuralTable(self.tags, self._documents)

    def get(self, doc_id: str) -> DocumentStructure:
        """The structural index of one document.

        Raises
        ------
        DocumentNotFoundError
            If the table holds no document ``doc_id``.
        """
        structure = self._documents.get(doc_id)
        if structure is None:
            raise DocumentNotFoundError(doc_id)
        return structure

    def discard(self, doc_id: str) -> None:
        """Drop one document's structure (after a document removal)."""
        self._documents.pop(doc_id, None)

    def element_count(self) -> int:
        """Total number of element nodes over every document."""
        return sum(len(structure) for structure in self._documents.values())

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[str]:
        return iter(self._documents)

    def __repr__(self) -> str:
        return f"StructuralTable(documents={len(self)}, tags={len(self.tags)})"
