"""The XML document store: resident trees and snapshot records behind one ``get``.

The store is the system's corpus abstraction: dataset generators write
documents into it, the indexer reads them back, and search results refer to
nodes inside stored documents by ``(doc_id, DeweyLabel)``.

Each document is held in one of two forms:

* **resident** — a plain Python tree.  Corpus builders and
  :meth:`DocumentStore.add` (ingestion) store documents this way; a resident
  document is never evicted.
* **record** — a :class:`DocumentRecord`: an offset-addressed byte range
  inside a snapshot's ``mmap``-ed record section (see
  :mod:`repro.storage.snapshot`).  :meth:`DocumentStore.get` decodes a record
  on first access into a bounded LRU (``max_materialised`` entries), so the
  hot set of a query workload stays decoded while the long tail costs nothing
  but its directory entry.  Eviction drops the tree; a later access decodes
  the same record again into an equal-by-value tree (decoding is
  deterministic).

The store is format-agnostic: the snapshot layer injects a ``loader`` that
turns a record into a root node (slicing the mmap, verifying the record
checksum, optionally inflating zlib).  Nothing here knows about byte layouts.
The loader closure holds the mapping, so the mapping is freed together with
the last store (or clone) that holds the loader.

The record section is immutable and mutations never write through to it.
:meth:`~DocumentStore.add` stores a resident document, and
:meth:`~DocumentStore.remove` decodes a record one last time (callers need
the tree to subtract statistics) before dropping it.  A decoded tree is a
cache entry, not the document's truth: an in-place edit of it is undone when
the LRU evicts it.

Everything above the storage layer — :class:`~repro.storage.corpus.Corpus`,
the search engine, the service — must never assume a document tree is
resident: ``get`` is the only way to a root, and it may decode on the spot.

Thread safety: membership, the LRU and the counters are lock-guarded; record
*decoding* runs outside the lock so concurrent misses on distinct documents
proceed in parallel (two threads racing on the same cold document both
decode; the first insertion wins, so callers converge on one cached tree).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Union

from repro.errors import DocumentNotFoundError, DuplicateDocumentError, StorageError
from repro.xmlmodel.dewey import DeweyLabel
from repro.xmlmodel.node import XMLNode
from repro.xmlmodel.parser import parse_xml_file
from repro.xmlmodel.serializer import to_pretty_xml

__all__ = ["StoredDocument", "DocumentRecord", "DocumentStore", "DEFAULT_MAX_MATERIALISED"]

# Default LRU bound: large enough that a paginated query workload over the
# benchmark corpora never thrashes, small enough that decoded trees stay a
# fraction of corpus size.  Operators tune it per deployment (`repro-xsact
# --max-materialised`).
DEFAULT_MAX_MATERIALISED = 1024


@dataclass
class StoredDocument:
    """A document held by the store.

    Attributes
    ----------
    doc_id:
        Stable identifier, unique within the store.
    root:
        Root element of the document tree.
    metadata:
        Free-form key/value annotations (e.g. the dataset name and the source
        URL that the paper's real datasets would carry).
    """

    doc_id: str
    root: XMLNode
    metadata: Dict[str, str] = field(default_factory=dict)

    def node_at(self, label: DeweyLabel) -> XMLNode:
        """Return the node of this document at the given Dewey label."""
        return self.root.node_at(label)

    def element_count(self) -> int:
        """Number of element nodes in the document."""
        return self.root.count_elements()


@dataclass(frozen=True)
class DocumentRecord:
    """Directory entry describing one document's on-disk record.

    Attributes
    ----------
    doc_id:
        The document id (directory key, duplicated here for error messages).
    offset:
        Byte offset of the record inside the snapshot's record section.
    stored_length:
        Length of the stored record bytes (compressed length when
        ``compressed``).
    raw_length:
        Length of the decoded (uncompressed) tree record.
    checksum:
        CRC-32 of the *stored* bytes, verified on every decode.
    compressed:
        Whether the stored bytes are a zlib deflate stream.
    element_count:
        Number of element nodes in the tree — lets
        :meth:`DocumentStore.total_elements` answer without decoding.
    metadata:
        The document's metadata key/value pairs (immutable view; each
        decode hands out a fresh mutable copy).
    """

    doc_id: str
    offset: int
    stored_length: int
    raw_length: int
    checksum: int
    compressed: bool
    element_count: int
    metadata: Mapping[str, str]


class DocumentStore:
    """An ordered collection of XML documents addressable by id.

    Parameters
    ----------
    records:
        Snapshot directory entries, in insertion (document) order.
    loader:
        ``loader(record)`` returns the decoded root node for a record.  It is
        supplied by the snapshot layer and raises
        :class:`~repro.errors.SnapshotError` on damaged records.  Required
        whenever ``records`` is not empty.
    max_materialised:
        LRU bound on concurrently decoded records.  ``None`` disables
        eviction (every decoded record stays in memory).  Must be positive
        otherwise.  Resident documents never count against it.
    """

    def __init__(
        self,
        records: Iterable[DocumentRecord] = (),
        loader: Optional[Callable[[DocumentRecord], XMLNode]] = None,
        max_materialised: Optional[int] = DEFAULT_MAX_MATERIALISED,
    ) -> None:
        if max_materialised is not None and max_materialised <= 0:
            raise StorageError(
                f"max_materialised must be positive or None, got {max_materialised}"
            )
        # Membership in insertion order: a resident document or its record.
        self._documents: Dict[str, Union[StoredDocument, DocumentRecord]] = {}
        for record in records:
            if loader is None:
                raise StorageError(f"document record {record.doc_id!r} needs a loader")
            if record.doc_id in self._documents:
                raise StorageError(f"duplicate document id: {record.doc_id!r}")
            self._documents[record.doc_id] = record
        self._loader = loader
        self.max_materialised = max_materialised
        # Decoded records, LRU order (least recent first).  Keys are always
        # record entries of self._documents.
        self._lru: "OrderedDict[str, StoredDocument]" = OrderedDict()
        self._lock = threading.Lock()
        self._decode_count = 0
        self._eviction_count = 0

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def get(self, doc_id: str) -> StoredDocument:
        """Return the document with the given id.

        This is the *only* path to a document's tree.  A record is decoded
        here on an LRU miss, so callers must treat the cost as "cheap after
        the first access", never as free.

        Raises
        ------
        DocumentNotFoundError
            If the id is unknown.
        """
        with self._lock:
            document = self._lru.get(doc_id)
            if document is not None:
                self._lru.move_to_end(doc_id)
                return document
            entry = self._documents.get(doc_id)
            if entry is None:
                raise DocumentNotFoundError(doc_id)
            if isinstance(entry, StoredDocument):
                return entry
        # Decode outside the lock: concurrent misses on distinct documents
        # must not serialise on one decode.
        document = self._decode(entry)
        with self._lock:
            # Settle races: another thread may have decoded, removed or
            # replaced this document while we decoded.
            winner = self._lru.get(doc_id)
            if winner is not None:
                self._lru.move_to_end(doc_id)
                return winner
            current = self._documents.get(doc_id)
            if current is None:
                raise DocumentNotFoundError(doc_id)
            if isinstance(current, StoredDocument):
                return current
            self._lru[doc_id] = document
            if self.max_materialised is not None:
                while len(self._lru) > self.max_materialised:
                    self._lru.popitem(last=False)
                    self._eviction_count += 1
            return document

    def _decode(self, record: DocumentRecord) -> StoredDocument:
        assert self._loader is not None  # records are only accepted with one
        root = self._loader(record)
        with self._lock:
            self._decode_count += 1
        return StoredDocument(doc_id=record.doc_id, root=root, metadata=dict(record.metadata))

    def node_at(self, doc_id: str, label: DeweyLabel) -> XMLNode:
        """Return the node identified by ``(doc_id, label)``."""
        return self.get(doc_id).node_at(label)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._documents

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[StoredDocument]:
        """Yield every document in insertion order.

        Resident and decoded documents are yielded as they are; any other
        record is decoded *transiently*, bypassing the LRU, so a full scan
        (index build, snapshot save, :meth:`Corpus.refresh`) never evicts the
        query-serving hot set and never needs corpus-sized memory.  A
        document removed mid-scan is skipped.
        """
        for doc_id in self.document_ids():
            with self._lock:
                entry = self._documents.get(doc_id)
                if isinstance(entry, DocumentRecord):
                    entry = self._lru.get(doc_id, entry)
            if isinstance(entry, DocumentRecord):
                yield self._decode(entry)
            elif entry is not None:
                yield entry

    def document_ids(self) -> List[str]:
        """Return the document ids in insertion order."""
        with self._lock:
            return list(self._documents)

    def total_elements(self) -> int:
        """Total number of element nodes; records answer from their directory entry."""
        with self._lock:
            entries = list(self._documents.values())
        return sum(
            entry.element_count if isinstance(entry, DocumentRecord) else entry.element_count()
            for entry in entries
        )

    def stats(self) -> Dict[str, object]:
        """Introspection counters, served through ``/stats``.

        ``backend`` is ``"lazy"`` for a store opened over a snapshot record
        section and ``"eager"`` otherwise.  ``materialised`` is the current
        LRU population, ``resident`` the number of resident documents;
        ``decodes`` and ``evictions`` are lifetime totals (a decode count
        close to the access count means the LRU is too small for the
        workload).
        """
        with self._lock:
            resident = sum(
                1 for entry in self._documents.values() if isinstance(entry, StoredDocument)
            )
            return {
                "backend": "eager" if self._loader is None else "lazy",
                "documents": len(self._documents),
                "materialised": len(self._lru),
                "resident": resident,
                "max_materialised": self.max_materialised,
                "decodes": self._decode_count,
                "evictions": self._eviction_count,
            }

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(
        self, doc_id: str, root: XMLNode, metadata: Optional[Dict[str, str]] = None
    ) -> StoredDocument:
        """Add a resident document; raises :class:`DuplicateDocumentError` on duplicate ids."""
        if not root.is_element:
            raise StorageError("document root must be an element node")
        document = StoredDocument(doc_id=doc_id, root=root, metadata=dict(metadata or {}))
        with self._lock:
            if doc_id in self._documents:
                raise DuplicateDocumentError(doc_id)
            self._documents[doc_id] = document
        return document

    def remove(self, doc_id: str) -> StoredDocument:
        """Remove and return a document; raises :class:`DocumentNotFoundError`
        if missing.

        Returning the removed :class:`StoredDocument` lets callers that keep
        derived state (the corpus's statistics need the tree to subtract it)
        do so without a second lookup.  A record is decoded for them one last
        time: once it is dropped, its bytes are unreachable.
        """
        document = self.get(doc_id)
        with self._lock:
            entry = self._documents.pop(doc_id, None)
            if entry is None:
                raise DocumentNotFoundError(doc_id)
            if isinstance(entry, StoredDocument):
                return entry
            return self._lru.pop(doc_id, document)

    def clear(self) -> None:
        """Remove every document."""
        with self._lock:
            self._documents.clear()
            self._lru.clear()

    # ------------------------------------------------------------------ #
    # Generations
    # ------------------------------------------------------------------ #
    def clone(self) -> "DocumentStore":
        """Return a structurally-shared copy safe to mutate independently.

        The copy shares the records, the loader (with the mapping it holds)
        and every tree, resident or decoded, but owns its membership, LRU and
        counters, so adds/removes on one never show through the other.
        Generation-swap writes rely on this: the served store keeps
        answering from the old membership while a writer mutates the clone.
        Whole-document mutation only: editing a shared tree *in place* would
        be visible across generations.
        """
        with self._lock:
            copy = DocumentStore(loader=self._loader, max_materialised=self.max_materialised)
            copy._documents = dict(self._documents)
            copy._lru = OrderedDict(self._lru)
            copy._decode_count = self._decode_count
            copy._eviction_count = self._eviction_count
            return copy

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save_to_directory(self, directory: Union[str, Path]) -> List[Path]:
        """Write each document as ``<doc_id>.xml`` into ``directory``.

        Returns the list of written paths.  Existing files are overwritten.
        """
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        written: List[Path] = []
        for document in self:
            path = target / f"{document.doc_id}.xml"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(to_pretty_xml(document.root))
                handle.write("\n")
            written.append(path)
        return written

    @classmethod
    def load_from_directory(cls, directory: Union[str, Path]) -> "DocumentStore":
        """Load every ``*.xml`` file in ``directory`` into a new store.

        The file stem becomes the document id; files are loaded in sorted
        order so the resulting store is deterministic.
        """
        source = Path(directory)
        if not source.is_dir():
            raise StorageError(f"not a directory: {source}")
        store = cls()
        for path in sorted(source.glob("*.xml")):
            store.add(path.stem, parse_xml_file(path), metadata={"source_file": str(path)})
        return store
