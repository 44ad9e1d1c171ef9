"""Sharded corpora: one logical corpus partitioned across N shard corpora.

This is the storage half of ROADMAP item 1 ("sharded multi-corpus engine
with query fan-out").  A :class:`ShardedCorpus` owns N independent
:class:`~repro.storage.corpus.Corpus` shards — each with its own document
store, inverted index and term dictionary — plus the *global* pieces a
fan-out search engine needs to behave exactly like a single corpus:

* **assignment** — a pluggable ``(doc_id, shard_count) -> shard index``
  function decides which shard owns a document.  The default is
  :func:`crc32_assignment`: CRC-32 of the id, modulo the shard count.
  Python's builtin ``hash()`` is deliberately *not* used — string hashing is
  salted per process (PYTHONHASHSEED), so it would assign the same document
  to different shards in different processes and break manifest reloads.
* **global statistics exchange** — ranking and XSeek return-node inference
  both read :class:`~repro.storage.statistics.CorpusStatistics` (document
  frequencies for idf, path summaries for entity detection).  Per-shard
  statistics would make scores and even *result boundaries* depend on the
  partitioning, so construction merges the shard statistics exactly into one
  corpus-global table (:func:`_merge_statistics`): path counts, leaf counts,
  sibling-run multisets and value-occurrence counters are summed, and term
  document frequencies are re-interned from each shard's dictionary into a
  fresh global :class:`~repro.storage.term_dictionary.TermDictionary`.  The
  merge is exact except above the per-path ``distinct_values`` tracking cap
  (``CorpusStatistics._MAX_TRACKED_VALUES``), where first-seen insertion
  order differs between a sharded and a monolithic build.
* **manifest persistence** — :meth:`ShardedCorpus.save` writes one snapshot
  per shard plus a small JSON manifest naming them;
  :meth:`ShardedCorpus.load` (also reachable through ``Corpus.load`` on a
  manifest path) reloads each shard with its own mmap-backed
  :class:`~repro.storage.lazy_store.LazyDocumentStore` and re-derives the
  global statistics.  Stale or truncated shard files and malformed
  manifests are rejected with errors naming the offending file.

The query half lives in :mod:`repro.search.sharded_engine`, which fans a
query out to per-shard engines and k-way-merges the ranked lists; because
every shard scores against the global statistics, the merged output is
byte-identical to a single-corpus engine over the same documents.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    DocumentNotFoundError,
    DuplicateDocumentError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotVersionError,
    StorageError,
)
from repro.storage.corpus import Corpus
from repro.storage.document_store import BaseDocumentStore, DocumentStore, StoredDocument
from repro.storage.statistics import CorpusStatistics, PathSummary
from repro.storage.term_dictionary import TermDictionary
from repro.xmlmodel.node import XMLNode

__all__ = [
    "ShardedCorpus",
    "ShardedStoreView",
    "crc32_assignment",
    "is_shard_manifest",
]

MANIFEST_MAGIC = "xsact-shard-manifest"
MANIFEST_VERSION = 1

#: ``(doc_id, shard_count) -> shard index`` — must be deterministic across
#: processes (see module docstring on why builtin ``hash`` is unsuitable).
ShardAssignment = Callable[[str, int], int]


def crc32_assignment(doc_id: str, shard_count: int) -> int:
    """Default shard assignment: CRC-32 of the UTF-8 id, modulo shards."""
    return zlib.crc32(doc_id.encode("utf-8")) % shard_count


def _normalise_documents(
    documents: Iterable[Union[StoredDocument, Tuple]],
) -> List[Tuple[str, XMLNode, Dict[str, str]]]:
    normalised: List[Tuple[str, XMLNode, Dict[str, str]]] = []
    for item in documents:
        if isinstance(item, StoredDocument):
            normalised.append((item.doc_id, item.root, dict(item.metadata)))
            continue
        parts = tuple(item)
        if len(parts) == 2:
            doc_id, root = parts
            metadata: Dict[str, str] = {}
        elif len(parts) == 3:
            doc_id, root, metadata = parts
            metadata = dict(metadata or {})
        else:
            raise StorageError(
                "documents must be StoredDocument or (doc_id, root[, metadata]) "
                f"tuples, got a {len(parts)}-tuple"
            )
        normalised.append((doc_id, root, metadata))
    return normalised


def _checked_assignment(assignment: ShardAssignment, doc_id: str, shard_count: int) -> int:
    shard_index = assignment(doc_id, shard_count)
    if not isinstance(shard_index, int) or not 0 <= shard_index < shard_count:
        raise StorageError(
            f"shard assignment returned {shard_index!r} for document {doc_id!r}; "
            f"expected an int in [0, {shard_count})"
        )
    return shard_index


# --------------------------------------------------------------------------- #
# Global statistics merge
# --------------------------------------------------------------------------- #
def _merge_statistics(shards: Sequence[Corpus], dictionary: TermDictionary) -> CorpusStatistics:
    """Merge per-shard statistics into one corpus-global table.

    Reads the statistics' private tables directly (same-package, the snapshot
    codec does the same): the public surface exposes the derived aggregates,
    but an exact merge needs the underlying multisets so ``max_siblings`` and
    ``distinct_values`` come out identical to a monolithic build, and so the
    merged instance still supports exact incremental add/remove.
    """
    paths: Dict[Tuple[str, ...], PathSummary] = {}
    path_values: Dict[Tuple[str, ...], Dict[str, int]] = {}
    path_sibling_runs: Dict[Tuple[str, ...], Dict[int, int]] = {}
    term_document_frequency: Dict[int, int] = {}
    document_count = 0
    total_elements = 0
    for shard in shards:
        statistics = shard.statistics
        document_count += statistics.document_count
        total_elements += statistics.total_elements
        for summary in statistics.iter_paths():
            path = summary.path
            merged = paths.get(path)
            if merged is None:
                merged = PathSummary(path=path)
                paths[path] = merged
                path_values[path] = {}
                path_sibling_runs[path] = {}
            merged.count += summary.count
            merged.leaf_count += summary.leaf_count
            values = path_values[path]
            for value, occurrences in statistics._path_values[path].items():
                values[value] = values.get(value, 0) + occurrences
            runs = path_sibling_runs[path]
            for run_size, observations in statistics._path_sibling_runs[path].items():
                runs[run_size] = runs.get(run_size, 0) + observations
        # Shard dictionaries assign ids independently, so document
        # frequencies travel as *terms*: resolve each shard id to its string
        # and re-intern into the global dictionary.
        term_of = shard.dictionary.term
        for term_id, frequency in statistics._term_document_frequency.items():
            global_id = dictionary.intern(term_of(term_id))
            term_document_frequency[global_id] = (
                term_document_frequency.get(global_id, 0) + frequency
            )
    for path, merged in paths.items():
        runs = path_sibling_runs[path]
        merged.max_siblings = max(runs) if runs else 1
        merged.distinct_values = len(path_values[path])
    return CorpusStatistics._restore(
        dictionary,
        paths=paths,
        path_values=path_values,
        path_sibling_runs=path_sibling_runs,
        term_document_frequency=term_document_frequency,
        document_count=document_count,
        total_elements=total_elements,
    )


# --------------------------------------------------------------------------- #
# Store facade
# --------------------------------------------------------------------------- #
class ShardedStoreView(BaseDocumentStore):
    """Read-only :class:`BaseDocumentStore` facade over every shard.

    Lets store consumers (the service's ``compare_documents``, ``/stats``,
    snapshot-to-directory exports) address the sharded corpus as one store:
    lookups route to the owning shard, iteration follows the corpus-global
    insertion order.  Mutation must go through
    :meth:`ShardedCorpus.add_document` / :meth:`ShardedCorpus.remove_document`
    — mutating a shard store directly would desynchronise the global
    statistics and the routing table, so the facade refuses.
    """

    def __init__(self, sharded: "ShardedCorpus") -> None:
        self._sharded = sharded

    _READ_ONLY = (
        "the sharded store view is read-only: mutate through "
        "ShardedCorpus.add_document / remove_document"
    )

    def add(self, doc_id: str, root: XMLNode, metadata: Optional[Dict[str, str]] = None) -> StoredDocument:
        raise StorageError(self._READ_ONLY)

    def remove(self, doc_id: str) -> StoredDocument:
        raise StorageError(self._READ_ONLY)

    def clear(self) -> None:
        raise StorageError(self._READ_ONLY)

    def get(self, doc_id: str) -> StoredDocument:
        return self._sharded.shard_for(doc_id).store.get(doc_id)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._sharded._shard_of

    def __len__(self) -> int:
        return len(self._sharded._shard_of)

    def __iter__(self) -> Iterator[StoredDocument]:
        # Global insertion order, not shard-by-shard: a full export of a
        # sharded corpus must list documents exactly like the unsharded one.
        for doc_id in self._sharded._shard_of:
            yield self.get(doc_id)

    def document_ids(self) -> List[str]:
        return list(self._sharded._shard_of)

    def total_elements(self) -> int:
        return sum(shard.store.total_elements() for shard in self._sharded.shards)

    def stats(self) -> Dict[str, object]:
        """Per-shard backend counters plus sharding-level aggregates.

        ``shards`` holds each shard store's own ``stats()`` (so a lazily
        loaded manifest exposes per-shard decode/eviction/materialisation
        counters), and the lazy counters are also summed at the top level
        for operators who just want the corpus-wide totals.
        """
        shard_stats = [shard.store.stats() for shard in self._sharded.shards]
        aggregate = {"decodes": 0, "evictions": 0, "materialised": 0}
        for stats in shard_stats:
            for key in aggregate:
                aggregate[key] += int(stats.get(key, 0))  # eager shards lack the keys
        report: Dict[str, object] = {
            "backend": "sharded",
            "documents": len(self),
            "shard_count": len(shard_stats),
            "shards": shard_stats,
        }
        report.update(aggregate)
        return report


# --------------------------------------------------------------------------- #
# The sharded corpus
# --------------------------------------------------------------------------- #
class ShardedCorpus:
    """N shard corpora presented as one corpus-shaped object.

    Exposes the attribute surface the engine and service layers consume from
    :class:`~repro.storage.corpus.Corpus` — ``name``, ``store`` (a
    :class:`ShardedStoreView`), ``statistics`` (the merged global table),
    ``dictionary`` (the global term dictionary the merged statistics intern
    into), ``version`` and the mutation/persistence methods — so a
    :class:`~repro.service.service.SearchService` serves a sharded corpus
    transparently.  :meth:`create_engine` returns a
    :class:`~repro.search.sharded_engine.ShardedSearchEngine` instead of a
    plain engine; that is the only dispatch point the service needs.

    Construct through :meth:`build` / :meth:`from_corpus` / :meth:`load`;
    the constructor accepts pre-built shard corpora directly (used by the
    three classmethods, and by tests that want hand-crafted partitions).
    """

    def __init__(
        self,
        shards: Sequence[Corpus],
        *,
        name: str = "sharded",
        assignment: Optional[ShardAssignment] = None,
        document_order: Optional[Sequence[str]] = None,
        version: int = 0,
    ) -> None:
        if not shards:
            raise StorageError("a sharded corpus needs at least one shard")
        self.name = name
        self.shards: List[Corpus] = list(shards)
        self.assignment: ShardAssignment = assignment or crc32_assignment
        self.version = version
        # doc_id -> shard index; dict insertion order is the corpus-global
        # document order, so this one table is both the routing map and the
        # order the store view iterates in.
        membership: Dict[str, int] = {}
        for shard_index, shard in enumerate(self.shards):
            for doc_id in shard.store.document_ids():
                if doc_id in membership:
                    raise StorageError(
                        f"document {doc_id!r} appears in shard {membership[doc_id]} "
                        f"and shard {shard_index}"
                    )
                membership[doc_id] = shard_index
        if document_order is None:
            self._shard_of = membership
        else:
            order = list(document_order)
            if len(order) != len(membership) or set(order) != set(membership):
                raise StorageError(
                    f"document order lists {len(order)} id(s) but the shards hold "
                    f"{len(membership)}; the two sets must match exactly"
                )
            self._shard_of = {doc_id: membership[doc_id] for doc_id in order}
        self.dictionary = TermDictionary()
        self.statistics = _merge_statistics(self.shards, self.dictionary)
        self.store: BaseDocumentStore = ShardedStoreView(self)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        documents: Iterable[Union[StoredDocument, Tuple]],
        shard_count: int,
        *,
        name: str = "sharded",
        assignment: Optional[ShardAssignment] = None,
    ) -> "ShardedCorpus":
        """Partition ``documents`` across ``shard_count`` shards and index them.

        ``documents`` is any iterable of :class:`StoredDocument` or
        ``(doc_id, root[, metadata])`` tuples.  Shards are indexed one after
        another on the calling thread.
        """
        if shard_count < 1:
            raise StorageError(f"shard_count must be at least 1, got {shard_count}")
        assignment = assignment or crc32_assignment
        stores = [DocumentStore() for _ in range(shard_count)]
        order: List[str] = []
        seen = set()
        for doc_id, root, metadata in _normalise_documents(documents):
            if doc_id in seen:
                raise StorageError(f"duplicate document id: {doc_id!r}")
            seen.add(doc_id)
            stores[_checked_assignment(assignment, doc_id, shard_count)].add(
                doc_id, root, metadata=metadata
            )
            order.append(doc_id)
        shards = [
            Corpus(store, name=f"{name}/shard{index}") for index, store in enumerate(stores)
        ]
        return cls(shards, name=name, assignment=assignment, document_order=order)

    @classmethod
    def from_corpus(
        cls,
        corpus: Corpus,
        shard_count: int,
        *,
        name: Optional[str] = None,
        assignment: Optional[ShardAssignment] = None,
    ) -> "ShardedCorpus":
        """Reshard an existing corpus (takes ownership of its trees).

        The shard stores hold the *same* tree objects, so discard the source
        corpus afterwards — mutating both would double-fold statistics.
        """
        return cls.build(
            list(corpus.store),
            shard_count,
            name=name or corpus.name,
            assignment=assignment,
        )

    # ------------------------------------------------------------------ #
    # Corpus-shaped surface
    # ------------------------------------------------------------------ #
    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def assignment_name(self) -> str:
        if self.assignment is crc32_assignment:
            return "crc32"
        return getattr(self.assignment, "__name__", "custom")

    def shard_of(self, doc_id: str) -> int:
        """Index of the shard owning ``doc_id``.

        Raises
        ------
        DocumentNotFoundError
            If the document is not in the corpus.
        """
        try:
            return self._shard_of[doc_id]
        except KeyError:
            raise DocumentNotFoundError(doc_id) from None

    def shard_for(self, doc_id: str) -> Corpus:
        """The shard corpus owning ``doc_id`` (same errors as :meth:`shard_of`)."""
        return self.shards[self.shard_of(doc_id)]

    def create_engine(
        self,
        semantics: str = "slca",
        cache_size: int = 128,
        cache_max_results: Optional[int] = 4096,
    ):
        """Build the fan-out engine for this corpus (service dispatch point)."""
        # Same sanctioned upward edge as Corpus.create_engine: polymorphic
        # engine dispatch, imported lazily to stay acyclic at import time.
        from repro.search.sharded_engine import ShardedSearchEngine  # repro: ignore[layering]

        return ShardedSearchEngine(
            self,
            semantics=semantics,
            cache_size=cache_size,
            cache_max_results=cache_max_results,
        )

    def add_document(
        self, doc_id: str, root: XMLNode, metadata: Optional[Dict[str, str]] = None
    ) -> None:
        """Route one new document to its shard and fold the global statistics.

        Mirrors :meth:`Corpus.add_document` semantics: atomic (a failed
        statistics fold rolls the shard back) and version-bumping, so engine
        caches and outstanding pagination cursors are invalidated.
        """
        if doc_id in self._shard_of:
            raise DuplicateDocumentError(doc_id)
        shard_index = _checked_assignment(self.assignment, doc_id, len(self.shards))
        shard = self.shards[shard_index]
        shard.add_document(doc_id, root, metadata=metadata)
        try:
            self.statistics.add_document(root)
        except Exception:
            shard.remove_document(doc_id)
            raise
        self._shard_of[doc_id] = shard_index
        self.version += 1

    def remove_document(self, doc_id: str) -> None:
        """Remove a document from its owning shard and the global statistics.

        Raises
        ------
        DocumentNotFoundError
            If ``doc_id`` is not in the corpus.  The corpus is unchanged.
        """
        shard = self.shard_for(doc_id)  # raises before any mutation
        root = shard.store.get(doc_id).root
        shard.remove_document(doc_id)
        try:
            self.statistics.remove_document(root)
        except Exception:
            # The shard removal stands and statistics subtraction has no
            # incremental undo, so mirror Corpus.remove_document: drop the
            # routing entry and rebuild the global table from the (still
            # consistent) shards rather than leaving it diverged.  The
            # version bump keeps engine caches honest about the mutation.
            del self._shard_of[doc_id]
            self.dictionary = TermDictionary()
            self.statistics = _merge_statistics(self.shards, self.dictionary)
            self.version += 1
            raise
        del self._shard_of[doc_id]
        self.version += 1

    def begin_generation(self) -> "ShardedCorpus":
        """Start a new mutable generation of this sharded corpus.

        Clones every shard via :meth:`Corpus.begin_generation` and copies the
        global pieces (routing table, dictionary, merged statistics) without
        re-running the statistics merge — the clone starts from this
        corpus's exact global state and mutates it incrementally.  Bypasses
        ``__init__`` for the same reason snapshot loading does: the parts
        arrive ready-made.
        """
        clone = ShardedCorpus.__new__(ShardedCorpus)
        clone.name = self.name
        clone.shards = [shard.begin_generation() for shard in self.shards]
        clone.assignment = self.assignment
        clone.version = self.version
        clone._shard_of = dict(self._shard_of)
        clone.dictionary = self.dictionary.clone()
        clone.statistics = self.statistics.clone(clone.dictionary)
        clone.store = ShardedStoreView(clone)
        return clone

    def finalize(self) -> None:
        """Finalize every shard (see :meth:`Corpus.finalize`)."""
        for shard in self.shards:
            shard.finalize()

    def refresh(self) -> None:
        """Rebuild every shard's derived structures and re-merge the stats."""
        for shard in self.shards:
            shard.refresh()
        self.dictionary = TermDictionary()
        self.statistics = _merge_statistics(self.shards, self.dictionary)
        self.version += 1

    def describe(self) -> Dict[str, float]:
        """Summary dictionary matching :meth:`Corpus.describe`."""
        return {
            "documents": float(len(self.store)),
            "elements": float(self.store.total_elements()),
            # The global dictionary holds exactly the terms occurring in any
            # document (the df merge interns them all), i.e. the distinct
            # term count a monolithic index would report.
            "distinct_terms": float(len(self.dictionary)),
            "avg_elements_per_document": self.statistics.average_document_elements,
        }

    # ------------------------------------------------------------------ #
    # Manifest persistence
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path], *, compress: bool = False) -> Path:
        """Write a JSON manifest plus one snapshot file per shard.

        ``<path>`` receives the manifest; shard ``i`` is written next to it
        as ``<path.name>.shard<i>``.  The manifest records the corpus
        version, the per-shard versions and document counts, the assignment
        name and the global document order, so :meth:`load` can verify it is
        reassembling exactly the saved corpus.
        """
        target = Path(path)
        if target.parent and not target.parent.exists():
            target.parent.mkdir(parents=True, exist_ok=True)
        entries = []
        for index, shard in enumerate(self.shards):
            shard_file = f"{target.name}.shard{index}"
            shard.save(target.parent / shard_file, compress=compress)
            entries.append(
                {
                    "file": shard_file,
                    "corpus_version": shard.version,
                    "documents": len(shard.store),
                }
            )
        manifest = {
            # "format" first: manifest sniffing reads a small prefix.
            "format": MANIFEST_MAGIC,
            "format_version": MANIFEST_VERSION,
            "name": self.name,
            "corpus_version": self.version,
            "assignment": self.assignment_name,
            "shard_count": len(self.shards),
            "shards": entries,
            "order": list(self._shard_of),
        }
        # Atomic like save_corpus: readers either see the old manifest or the
        # complete new one, never a torn write.
        handle, temp_name = tempfile.mkstemp(
            dir=str(target.parent) or ".", prefix=target.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                json.dump(manifest, stream, indent=2)
                stream.write("\n")
            os.replace(temp_name, target)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return target

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        *,
        expected_version: Optional[int] = None,
        eager: bool = False,
        max_materialised: Optional[int] = None,
    ) -> "ShardedCorpus":
        """Reassemble a sharded corpus from a manifest written by :meth:`save`.

        Each shard loads through :meth:`Corpus.load` pinned to the shard
        version the manifest recorded — by default that attaches one
        mmap-backed lazy store per shard (``eager`` / ``max_materialised``
        pass through).  Every validation failure names the offending file: a
        shard mutated and re-saved after the manifest was written raises
        :class:`SnapshotVersionError`, a truncated or corrupt shard file or a
        malformed manifest raises :class:`SnapshotFormatError`, a missing
        shard file :class:`SnapshotError`.  Shard entries must name bare
        files beside the manifest, as :meth:`save` writes them.

        Custom assignment functions do not persist (a manifest stores only
        the assignment *name*); a reloaded corpus routes existing documents
        via its membership table and new :meth:`add_document` calls via
        :func:`crc32_assignment` — reattach ``corpus.assignment`` after
        loading when a custom scheme must keep steering new documents.
        """
        target = Path(path)
        try:
            text = target.read_text(encoding="utf-8")
        except OSError as exc:
            raise SnapshotError(f"cannot read shard manifest {target}: {exc}") from exc
        try:
            manifest = json.loads(text)
        except ValueError as exc:
            raise SnapshotFormatError(
                f"{target.name} is not a shard manifest: invalid JSON ({exc})"
            ) from exc
        if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_MAGIC:
            raise SnapshotFormatError(
                f"{target.name} is not a shard manifest (missing magic key)"
            )
        if manifest.get("format_version") != MANIFEST_VERSION:
            raise SnapshotFormatError(
                f"unsupported shard manifest version: {manifest.get('format_version')!r}"
            )
        for field in ("name", "corpus_version", "shards", "order"):
            if field not in manifest:
                raise SnapshotFormatError(f"shard manifest is missing field {field!r}")
        corpus_version = manifest["corpus_version"]
        if expected_version is not None and corpus_version != expected_version:
            raise SnapshotVersionError(
                f"stale shard manifest: expected corpus version {expected_version}, "
                f"manifest records {corpus_version}"
            )
        entries = manifest["shards"]
        if not isinstance(entries, list) or not entries:
            raise SnapshotFormatError(
                f"shard manifest {target.name}: 'shards' must be a non-empty list, "
                f"got {entries!r}"
            )
        declared = manifest.get("shard_count", len(entries))
        if declared != len(entries):
            raise SnapshotFormatError(
                f"shard manifest {target.name} declares {declared} shard(s) but lists "
                f"{len(entries)}"
            )
        if not isinstance(manifest["order"], list):
            raise SnapshotFormatError(
                f"shard manifest {target.name}: 'order' must be a list of document ids"
            )
        shards: List[Corpus] = []
        for entry in entries:
            shard_file = entry.get("file") if isinstance(entry, dict) else None
            # save() writes bare sibling names; anything else (a path, a
            # non-string) would reach outside the manifest's directory.
            if (
                not isinstance(shard_file, str)
                or shard_file in ("", "..")
                or Path(shard_file).name != shard_file
            ):
                raise SnapshotFormatError(
                    f"shard manifest {target.name}: shard entry {entry!r} must name a "
                    "shard file beside the manifest"
                )
            shard_path = target.parent / shard_file
            if not shard_path.exists():
                raise SnapshotError(
                    f"shard file missing: {shard_file} (named by manifest {target.name})"
                )
            try:
                shard = Corpus.load(
                    shard_path,
                    expected_version=entry.get("corpus_version"),
                    eager=eager,
                    max_materialised=max_materialised,
                )
            except SnapshotVersionError as exc:
                raise SnapshotVersionError(f"shard file {shard_file}: {exc}") from exc
            except SnapshotFormatError as exc:
                raise SnapshotFormatError(f"shard file {shard_file}: {exc}") from exc
            if "documents" in entry and len(shard.store) != entry["documents"]:
                raise SnapshotFormatError(
                    f"shard file {shard_file} holds {len(shard.store)} document(s), "
                    f"manifest records {entry['documents']}"
                )
            shards.append(shard)
        try:
            return cls(
                shards,
                name=manifest["name"],
                document_order=manifest["order"],
                version=corpus_version,
            )
        except SnapshotError:
            raise
        except StorageError as exc:
            # Shards and manifest disagree on membership/order.
            raise SnapshotFormatError(f"manifest {target.name}: {exc}") from exc

    def __repr__(self) -> str:
        return (
            f"ShardedCorpus(name={self.name!r}, shards={len(self.shards)}, "
            f"documents={len(self._shard_of)})"
        )


def is_shard_manifest(path: Union[str, Path]) -> bool:
    """Cheaply sniff whether ``path`` looks like a shard manifest.

    Used by :meth:`Corpus.load` to dispatch: binary snapshots start with the
    snapshot magic bytes, manifests are JSON objects whose small prefix
    contains the manifest magic key.
    """
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(256)
    except OSError:
        return False
    return prefix.lstrip()[:1] == b"{" and MANIFEST_MAGIC.encode("ascii") in prefix
