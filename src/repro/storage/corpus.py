"""The :class:`Corpus` convenience bundle.

A corpus ties together the storage-layer pieces that the search engine and the
experiments always use together: the document store, its inverted index, its
statistics and its structural table.  Only the index tokenises: it owns the
document frequencies ranking reads, while the statistics count, per tag, the
elements with two or more children of that tag and never see a term.  The
structural table holds each document's pre-order encoding, which query
evaluation reads instead of the trees.  Building all three eagerly, each
document's entries together, keeps the rest of the code free of "is the
index stale?" bookkeeping — dataset generators produce a store, wrap it in a
corpus once, and hand the corpus around.

The corpus also carries a monotonically increasing :attr:`Corpus.version`
counter, bumped by every mutation that goes through the corpus
(:meth:`add_document`, :meth:`remove_document`, :meth:`refresh`).  Consumers
that cache derived data — most importantly the
:class:`~repro.search.engine.SearchEngine` query cache — compare versions
instead of re-validating the store contents.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.errors import StorageError
from repro.storage.document_store import DocumentStore
from repro.storage.inverted_index import InvertedIndex
from repro.storage.statistics import CorpusStatistics
from repro.structure.table import StructuralTable
from repro.xmlmodel.node import XMLNode

__all__ = ["Corpus"]


def _derive(store: DocumentStore) -> Tuple[InvertedIndex, CorpusStatistics, StructuralTable]:
    """Index, repeat table and structural table of ``store``, in one pass.

    Each document is encoded next to its index entry, so a store opened over
    a snapshot decodes each record once, not once per table.
    """
    index = InvertedIndex()
    statistics = CorpusStatistics()
    structure = StructuralTable()
    for document in store:
        index.add_document(document.doc_id, document.root)
        statistics.add_document(document.root)
        structure.add(document.doc_id, document.root)
    index.finalize()
    return index, statistics, structure


class Corpus:
    """A document store with its inverted index, statistics and structural table."""

    def __init__(self, store: DocumentStore, name: str = "corpus"):
        self.name = name
        self.store = store
        self.index, self.statistics, self.structure = _derive(store)
        self.version = 0

    @classmethod
    def from_directory(cls, directory: Union[str, Path], name: Optional[str] = None) -> "Corpus":
        """Load a corpus from a directory of ``.xml`` files.

        Raises
        ------
        StorageError
            If the path is not a directory, or if the directory contains no
            ``.xml`` files — an empty corpus is never what the caller meant
            (a mistyped path would otherwise search zero documents silently).
        """
        store = DocumentStore.load_from_directory(directory)
        if not len(store):
            raise StorageError(f"no .xml documents found in directory: {Path(directory)}")
        return cls(store, name=name or Path(directory).name)

    @classmethod
    def _restore(
        cls,
        *,
        store: DocumentStore,
        index: InvertedIndex,
        statistics: CorpusStatistics,
        name: str,
        version: int,
        structure: StructuralTable,
    ) -> "Corpus":
        """Assemble a corpus from already-built parts (snapshot loading).

        Bypasses ``__init__`` — the whole point of a snapshot is that index,
        statistics and structural table arrive ready-made instead of being
        rebuilt from the store.
        """
        corpus = cls.__new__(cls)
        corpus.name = name
        corpus.store = store
        corpus.index = index
        corpus.statistics = statistics
        corpus.structure = structure
        corpus.version = version
        return corpus

    # ------------------------------------------------------------------ #
    # Snapshot persistence
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path], *, compress: bool = False) -> Path:
        """Write this corpus as one compact binary snapshot file.

        See :mod:`repro.storage.snapshot` for the layout.  ``compress``
        zlib-deflates individual document records.  The snapshot records
        :attr:`version`, so a later :meth:`load` can reject the file when the
        corpus was mutated after the save.  Saving a loaded corpus
        streams documents record-by-record without materialising them all.
        """
        from repro.storage.snapshot import save_corpus

        return save_corpus(self, path, compress=compress)

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        *,
        expected_version: Optional[int] = None,
        max_materialised: Optional[int] = None,
    ) -> "Corpus":
        """Reconstruct a corpus from a snapshot without re-tokenising anything.

        The loaded corpus is equivalent to a fresh build over the same
        documents (same postings, document frequencies, repeat table and
        ranked query results).  Its store keeps trees in the ``mmap``-ed
        record section until first access, decoding them into an LRU bounded
        by ``max_materialised`` (``0`` disables eviction).

        A loaded corpus supports every mutation: added documents are
        resident, and removed records are dropped.  The record section is
        immutable, so an in-place edit of a decoded tree is undone when the
        LRU evicts it; replace the document instead.

        Raises
        ------
        SnapshotFormatError
            If the file is missing sections, truncated (a file cut inside
            the record section is rejected naming the damaged record),
            corrupt, from an unsupported format version, or built under a
            different tokenizer configuration.
        SnapshotVersionError
            If ``expected_version`` is given and the snapshot records a
            different corpus version (i.e. it is stale).
        """
        from repro.storage.snapshot import load_corpus

        return load_corpus(
            path, expected_version=expected_version, max_materialised=max_materialised
        )

    def begin_generation(self) -> "Corpus":
        """Start a new mutable generation of this corpus.

        Returns a structurally-shared clone: document trees and posting
        buckets are shared (protected by the store's and index's
        copy-on-write rules), and so are the immutable per-document
        structures, while every piece of mutable bookkeeping — membership,
        the bucket maps, the repeat table — is copied.  Mutating the
        clone never changes what this corpus serves, so a writer can build
        the next generation while in-flight readers finish against this one,
        then publish the clone with one reference swap.  A failed mutation is
        discarded by dropping the clone.

        Cost is proportional to membership size (dict copies), not to corpus
        content — no tree, posting or record is duplicated.
        """
        return Corpus._restore(
            store=self.store.clone(),
            index=self.index.clone(),
            statistics=self.statistics.clone(),
            name=self.name,
            version=self.version,
            structure=self.structure.clone(),
        )

    def finalize(self) -> None:
        """Hand the index's buckets out before this generation is published.

        A writer calls this on a mutated generation *before* installing it:
        afterwards the index writes no bucket in place, so a later write
        copies what readers of this generation may hold.
        """
        self.index.finalize()

    def add_document(
        self, doc_id: str, root: XMLNode, metadata: Optional[Dict[str, str]] = None
    ) -> None:
        """Add one document and update index, statistics and structure incrementally.

        Unlike mutating ``corpus.store`` directly followed by :meth:`refresh`,
        this folds the new document into the existing index, statistics and
        structural table instead of rebuilding them from scratch.
        ``metadata`` is stored on the document (ingestion provenance, source
        URLs, …).
        """
        document = self.store.add(doc_id, root, metadata=metadata)
        try:
            self.index.add_document(doc_id, document.root)
        except Exception:
            # Keep the mutation atomic: if indexing rejects the document
            # (e.g. the id is still present in the index after a direct
            # store.remove), roll the store back so store/index/statistics
            # stay consistent and no stale version is left behind.
            self.store.remove(doc_id)
            raise
        try:
            self.statistics.add_document(document.root)
            self.structure.add(doc_id, document.root)
        except Exception:
            # Statistics folding has no incremental undo, so drop the
            # document and rebuild every derived table from the
            # still-consistent store.
            self.store.remove(doc_id)
            self.refresh()
            raise
        self.version += 1

    def remove_document(self, doc_id: str) -> None:
        """Remove one document, updating index and statistics incrementally.

        The mirror image of :meth:`add_document`, with the same atomic and
        version semantics: on success the index postings, document
        frequencies and repeat table are exactly what a fresh build over
        the remaining documents would produce, and :attr:`version` is bumped
        so cached query results are invalidated.  On failure the corpus is
        left consistent (falling back to a full :meth:`refresh` if an
        incremental step died midway).

        Raises
        ------
        DocumentNotFoundError
            If ``doc_id`` is not in the corpus.  The corpus is unchanged.
        """
        document = self.store.get(doc_id)  # raises before any mutation
        self.index.remove_document(doc_id)
        try:
            self.statistics.remove_document(document.root)
            self.store.remove(doc_id)
        except Exception:
            # Statistics subtraction has no incremental undo; the store still
            # holds whatever should remain, so rebuild from it (refresh also
            # bumps the version, keeping caches honest about the mutation).
            self.refresh()
            raise
        self.structure.discard(doc_id)
        self.version += 1

    def refresh(self) -> None:
        """Rebuild the index, statistics and structure after the store was modified."""
        self.index, self.statistics, self.structure = _derive(self.store)
        self.version += 1

    def describe(self) -> Dict[str, float]:
        """Return a small summary dictionary (used by reports and examples)."""
        documents = len(self.store)
        elements = self.structure.element_count()
        return {
            "documents": float(documents),
            "elements": float(elements),
            "distinct_terms": float(len(self.index)),
            "avg_elements_per_document": elements / documents if documents else 0.0,
        }

    def __repr__(self) -> str:
        return f"Corpus(name={self.name!r}, documents={len(self.store)})"
