"""Binary corpus snapshots: tokenisation-free cold start, lazy documents.

Building a :class:`~repro.storage.corpus.Corpus` from XML is dominated by
tokenisation — every node's tag, text and attribute values pass through the
regex tokenizer.  For an interactive system the corpus must be *available*
before the first query can run, so cold start latency is user-facing.  A
snapshot serialises a whole corpus — document trees, finalized
:class:`~repro.storage.inverted_index.InvertedIndex` posting lists with their
per-document offset maps, and the
:class:`~repro.storage.statistics.CorpusStatistics` repeat table — into one
compact versioned binary file, reconstructed with *zero* tokenisation, regex
work or posting sorts.

Layout (format 3) — eager head + lazy record section
----------------------------------------------------
::

    magic "XSACTSNAP\\0" | format=3 u16 | corpus version u64 | head crc32 u32
    | head length u64 | record section length u64 | name length u16
    | name utf-8 | header crc32 u32 | head | record section

The *head* is everything queries need before touching a document tree: the
tokenizer fingerprint, a **document directory** (per document: id, metadata,
record offset/length/checksum/compression flag, element count), per-document
**label tables** (each element's Dewey label, delta-encoded against
pre-order), the inverted index (its terms in sorted order, then run tables
resolved against those labels), the statistics (per tag, its count of
repeating groups, sorted by tag), and the structural section (per-element
tags for the pre-order encoding).  The *record section* is the bulk: one
varint-encoded tree record per document, offset-addressed, optionally
zlib-deflated per record.  Loads ``mmap`` the file, decode only the head, and
open a :class:`~repro.storage.document_store.DocumentStore` over the record
section that decodes trees on first access into a bounded LRU — cold start is
near-constant in the number of *touched* documents and a host can serve
corpora larger than RAM.

Checksums are layered to match what each load actually reads: the trailing
header checksum covers the fixed fields and name, the head checksum covers
the eager head only, and every record carries its own crc32 (verified on each
decode) — a load must not read the whole file just to validate it.

Integrity and staleness are rejected with typed errors, never a half-loaded
corpus:

* :class:`~repro.errors.SnapshotFormatError` — bad magic, unsupported format
  version, truncation (truncation inside the record section names the first
  document whose record is cut), CRC mismatch, trailing bytes, a head without
  its structural section, an index that lists a term twice, a statistics
  table with a repeated tag or a zero count, or a tokenizer configuration
  different from the one the snapshot was built with (postings bake in the
  tokenisation rules, so loading across a tokenizer change would silently
  disagree with query-side tokenisation).
* :class:`~repro.errors.SnapshotVersionError` — the snapshot's recorded
  :attr:`Corpus.version` differs from the version the caller expects, i.e.
  the corpus was mutated after the snapshot was taken.

Sharing mirrors a fresh build: each node posts **one** frozen
:class:`~repro.storage.inverted_index.Posting` object shared across all its
term buckets.  Posting labels come from the head's label tables — equal by
value to the labels of any later-decoded tree (labels compare by
components), which is all the search layer relies on.
"""

from __future__ import annotations

import gc
import mmap
import os
import struct
import sys
import tempfile
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, BinaryIO, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import (
    SnapshotError,
    SnapshotFormatError,
    SnapshotVersionError,
    StructureError,
)
from repro.storage.document_store import (
    DEFAULT_MAX_MATERIALISED,
    DocumentRecord,
    DocumentStore,
)
from repro.storage.inverted_index import InvertedIndex, Posting
from repro.storage.statistics import CorpusStatistics
from repro.storage.tokenizer import fingerprint as _tokenizer_fingerprint
from repro.structure.encoding import DocumentStructure, TagDictionary
from repro.structure.table import StructuralTable
from repro.xmlmodel.dewey import DeweyLabel
from repro.xmlmodel.node import NodeKind, XMLNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.storage.corpus import Corpus

__all__ = [
    "FORMAT_VERSION",
    "SnapshotHeader",
    "read_snapshot_header",
    "save_corpus",
    "load_corpus",
]

#: The one format version this build writes and reads.
FORMAT_VERSION = 3

_MAGIC = b"XSACTSNAP\x00"
# Format version u16, corpus version u64, head crc32 u32, head length u64,
# record-section length u64, corpus name length u16; the variable-length name
# follows.  The checksum/length pair covers the eager head only.
_HEADER = struct.Struct("<HQIQQH")

# Node records open with one varint header.  Bit 0 is the node kind; for text
# nodes the remaining bits carry the UTF-8 byte length (the whole record is
# header + raw bytes), for elements bit 1 flags the presence of attributes and
# the remaining bits carry the child-record count.  Packing kind, length and
# count into a single varint keeps the per-node decode to the bare minimum of
# byte reads — tree decoding is the hot path of every record decode.
_TEXT_BIT = 1
_ATTRS_BIT = 2

# Directory-entry flag bits.
_RECORD_ZLIB = 1

# Marker varint opening the structural section at the tail of the head ("ST"
# as a little integer).  Every save writes the section; a head that ends
# before it is rejected.
_STRUCTURE_MARKER = 0x5354


@dataclass(frozen=True)
class SnapshotHeader:
    """Decoded snapshot header (everything before the payload).

    :func:`read_snapshot_header` returns this without touching the payload,
    so callers can check staleness (``corpus_version``) or identity (``name``)
    before paying for a full load.  ``payload_length`` is the eager head and
    ``record_length`` the lazy record section that follows it.
    """

    format_version: int
    corpus_version: int
    checksum: int
    payload_length: int
    name: str
    record_length: int


# --------------------------------------------------------------------------- #
# Primitive encoding
# --------------------------------------------------------------------------- #
class _Writer:
    """Append-only payload buffer of varints, strings and u32 arrays."""

    __slots__ = ("buffer",)

    def __init__(self) -> None:
        self.buffer = bytearray()

    def varint(self, value: int) -> None:
        buffer = self.buffer
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                buffer.append(byte | 0x80)
            else:
                buffer.append(byte)
                return

    def string(self, text: str) -> None:
        data = text.encode("utf-8")
        self.varint(len(data))
        self.buffer += data

    def u32_array(self, values: List[int]) -> None:
        data = array("I", values)
        if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
            data.byteswap()
        encoded = data.tobytes()
        self.varint(len(values))
        self.buffer += encoded

    def getvalue(self) -> bytes:
        return bytes(self.buffer)


class _Reader:
    """Cursor over a payload; every underrun raises a typed format error."""

    __slots__ = ("data", "offset")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def varint(self) -> int:
        data = self.data
        offset = self.offset
        result = 0
        shift = 0
        while True:
            if offset >= len(data):
                raise SnapshotFormatError("truncated snapshot: varint runs past payload end")
            byte = data[offset]
            offset += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 63:
                raise SnapshotFormatError("malformed snapshot: varint wider than 64 bits")
        self.offset = offset
        return result

    def string(self) -> str:
        length = self.varint()
        end = self.offset + length
        if end > len(self.data):
            raise SnapshotFormatError("truncated snapshot: string runs past payload end")
        try:
            text = self.data[self.offset:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotFormatError(f"malformed snapshot: invalid UTF-8 string ({exc})") from None
        self.offset = end
        return text

    def u32_array(self) -> List[int]:
        count = self.varint()
        end = self.offset + 4 * count
        if end > len(self.data):
            raise SnapshotFormatError("truncated snapshot: u32 array runs past payload end")
        values = array("I")
        values.frombytes(self.data[self.offset:end])
        if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
            values.byteswap()
        self.offset = end
        return values.tolist()

    def at_end(self) -> bool:
        return self.offset == len(self.data)


# --------------------------------------------------------------------------- #
# Document trees
# --------------------------------------------------------------------------- #
def _encode_tree(writer: _Writer, root: XMLNode, tag_names: List[str]) -> Dict[DeweyLabel, int]:
    """Serialise one document tree in pre-order; return label → element index.

    The mapping numbers the *element* nodes in document order — the index
    section refers to posting nodes by this dense per-document index, which is
    both smaller than a Dewey label and free to resolve at load time (the
    directory stores the same list as its label table).  The element tags are
    appended to ``tag_names`` in the same pre-order — the structural section
    persists them so loads can rebuild each
    :class:`~repro.structure.encoding.DocumentStructure` from the label table
    without touching the record section.
    """
    label_index: Dict[DeweyLabel, int] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_element:
            label_index[node.label] = len(label_index)
            tag_names.append(node.tag or "")
            attributes = node.attributes
            writer.varint(len(node.children) << 2 | (_ATTRS_BIT if attributes else 0))
            writer.string(node.tag or "")
            if attributes:
                writer.varint(len(attributes))
                for key, value in attributes.items():
                    writer.string(key)
                    writer.string(value)
            stack.extend(reversed(node.children))
        else:
            data = (node.text or "").encode("utf-8")
            writer.varint(len(data) << 1 | _TEXT_BIT)
            writer.buffer += data
    return label_index


def _decode_tree(reader: _Reader) -> Tuple[XMLNode, List[XMLNode]]:
    """Decode one document tree; returns the root and its pre-order elements.

    This is the single hottest loop of a load — a 1000-document IMDB corpus
    decodes ~170k nodes — so it reads the payload bytes directly with inlined
    varint/string decoding (one attribute access per byte instead of one
    method call per field) and materialises nodes and labels through
    ``__new__`` with every slot assigned in place.  The constructor's
    validation is a per-node cost the decoder does not need: the writer only
    ever emits trees that satisfy the :class:`XMLNode` invariants, and any
    byte-level damage is caught by the per-record checksum before decoding
    starts.  Bounds overruns surface as :class:`IndexError`/short slices and
    are converted to typed errors here.
    """
    data = reader.data
    limit = len(data)
    offset = reader.offset
    node_new = XMLNode.__new__
    label_new = DeweyLabel.__new__
    element_kind = NodeKind.ELEMENT
    text_kind = NodeKind.TEXT
    elements: List[XMLNode] = []
    append_element = elements.append
    root: Optional[XMLNode] = None
    # Each frame is [node, remaining_child_records, next_child_offset,
    # label_components, children_list].
    stack: List[List] = []
    try:
        while True:
            if root is None:
                parent = None
                components: Tuple[int, ...] = ()
            elif stack:
                frame = stack[-1]
                remaining = frame[1]
                if remaining == 0:
                    stack.pop()
                    continue
                frame[1] = remaining - 1
                child_offset = frame[2]
                frame[2] = child_offset + 1
                parent = frame[0]
                components = frame[3] + (child_offset,)
            else:
                break
            header = data[offset]
            offset += 1
            if header & 0x80:
                header &= 0x7F
                shift = 7
                while True:
                    byte = data[offset]
                    offset += 1
                    header |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
            if header & _TEXT_BIT:
                if parent is None:
                    raise SnapshotFormatError(
                        "malformed snapshot: document root must be an element node"
                    )
                end = offset + (header >> 1)
                if end > limit:
                    # Internal control flow only: caught by the except below
                    # and converted to a typed SnapshotFormatError.
                    raise IndexError  # repro: ignore[error-discipline]
                label = label_new(DeweyLabel)
                label._components = components
                node = node_new(XMLNode)
                node.tag = None
                node.text = data[offset:end].decode("utf-8")
                offset = end
                node.attributes = {}
                node.kind = text_kind
                node.parent = parent
                node.children = []
                node.label = label
                frame[4].append(node)
            else:
                # Inlined string read: tag.
                length = data[offset]
                offset += 1
                if length & 0x80:
                    length &= 0x7F
                    shift = 7
                    while True:
                        byte = data[offset]
                        offset += 1
                        length |= (byte & 0x7F) << shift
                        if not byte & 0x80:
                            break
                        shift += 7
                end = offset + length
                if end > limit:
                    # Internal control flow only: caught by the except below
                    # and converted to a typed SnapshotFormatError.
                    raise IndexError  # repro: ignore[error-discipline]
                tag = data[offset:end].decode("utf-8")
                offset = end
                attributes: Dict[str, str] = {}
                if header & _ATTRS_BIT:
                    # Attribute keys and values go through the generic reader.
                    reader.offset = offset
                    for _ in range(reader.varint()):
                        key = reader.string()
                        attributes[key] = reader.string()
                    offset = reader.offset
                children: List[XMLNode] = []
                label = label_new(DeweyLabel)
                label._components = components
                node = node_new(XMLNode)
                node.tag = tag
                node.text = None
                node.attributes = attributes
                node.kind = element_kind
                node.parent = parent
                node.children = children
                node.label = label
                append_element(node)
                if parent is None:
                    root = node
                else:
                    frame[4].append(node)
                child_count = header >> 2
                if child_count:
                    stack.append([node, child_count, 0, components, children])
    except IndexError:
        raise SnapshotFormatError(
            "truncated snapshot: document tree runs past payload end"
        ) from None
    except UnicodeDecodeError as exc:
        raise SnapshotFormatError(f"malformed snapshot: invalid UTF-8 string ({exc})") from None
    reader.offset = offset
    assert root is not None  # the first record always creates the root
    return root, elements


def _decode_record(data, record: DocumentRecord, base: int = 0) -> XMLNode:
    """Decode one record from ``data`` (bytes or mmap) at ``base`` offset.

    Verifies the record's own crc32 before decoding — this is the only
    integrity check the record ever gets, and it runs on the exact bytes
    about to be trusted by the fast-path tree decoder.
    """
    start = base + record.offset
    stored = bytes(data[start:start + record.stored_length])
    if len(stored) != record.stored_length:
        raise SnapshotFormatError(
            f"truncated snapshot: document {record.doc_id!r} record runs past end of file"
        )
    if zlib.crc32(stored) != record.checksum:
        raise SnapshotFormatError(
            f"corrupt snapshot: checksum mismatch in document {record.doc_id!r} record"
        )
    if record.compressed:
        try:
            raw = zlib.decompress(stored)
        except zlib.error as exc:
            raise SnapshotFormatError(
                f"corrupt snapshot: document {record.doc_id!r} record fails to inflate ({exc})"
            ) from None
    else:
        raw = stored
    if len(raw) != record.raw_length:
        raise SnapshotFormatError(
            f"corrupt snapshot: document {record.doc_id!r} record inflates to "
            f"{len(raw)} bytes, directory promises {record.raw_length}"
        )
    reader = _Reader(raw)
    root, elements = _decode_tree(reader)
    if not reader.at_end() or len(elements) != record.element_count:
        raise SnapshotFormatError(
            f"malformed snapshot: document {record.doc_id!r} record does not decode cleanly"
        )
    return root


# --------------------------------------------------------------------------- #
# Shared sections (index, statistics)
# --------------------------------------------------------------------------- #
def _write_index(
    writer: _Writer,
    index: InvertedIndex,
    doc_refs: Dict[str, int],
    label_indices: Dict[str, Dict[DeweyLabel, int]],
) -> None:
    """Inverted-index section: the terms, then three flat u32 tables.

    The terms are written in sorted order, so the bytes do not depend on the
    order buckets were created in.  The tables hold the run count per term,
    per-run metadata (document ref, posting count) and the posting element
    indices themselves — bucket order is preserved, so the loader rebuilds
    identical posting lists and offset maps without a single comparison.
    """
    postings_map = index._postings
    ranges_map = index._doc_ranges
    terms = sorted(postings_map)
    run_counts: List[int] = []
    run_meta: List[int] = []
    element_refs: List[int] = []
    writer.varint(len(terms))
    for term in terms:
        writer.string(term)
    for term in terms:
        bucket = postings_map[term]
        runs = sorted(ranges_map[term].items(), key=lambda item: item[1][0])
        run_counts.append(len(runs))
        for doc_id, (start, end) in runs:
            run_meta.append(doc_refs[doc_id])
            run_meta.append(end - start)
            label_index = label_indices[doc_id]
            element_refs.extend(label_index[posting.label] for posting in bucket[start:end])
    writer.u32_array(run_counts)
    writer.u32_array(run_meta)
    writer.u32_array(element_refs)


def _read_index(
    reader: _Reader,
    doc_ids: List[str],
    doc_labels: Dict[str, List[DeweyLabel]],
) -> InvertedIndex:
    """Rebuild the inverted index against per-document pre-order label lists.

    ``doc_labels`` comes from the head's label tables (equal by value to any
    later-decoded tree's labels).
    """
    terms = [reader.string() for _ in range(reader.varint())]
    run_counts = reader.u32_array()
    run_meta = reader.u32_array()
    element_refs = reader.u32_array()
    if len(run_counts) != len(terms) or len(run_meta) % 2:
        raise SnapshotFormatError("malformed snapshot: index table sizes disagree")
    postings_map: Dict[str, List[Posting]] = {}
    ranges_map: Dict[str, Dict[str, Tuple[int, int]]] = {}
    doc_term_lists: Dict[str, List[str]] = {doc_id: [] for doc_id in doc_ids}
    # One shared Posting per (document, element) across every bucket it
    # appears in, mirroring add_document's per-node sharing.
    posting_cache: Dict[str, List[Optional[Posting]]] = {
        doc_id: [None] * len(labels) for doc_id, labels in doc_labels.items()
    }
    run_cursor = 0
    element_cursor = 0
    try:
        for term, run_count in zip(terms, run_counts):
            if term in postings_map:
                raise SnapshotFormatError(f"malformed snapshot: index lists term {term!r} twice")
            bucket: List[Posting] = []
            ranges: Dict[str, Tuple[int, int]] = {}
            for _ in range(run_count):
                doc_id = doc_ids[run_meta[run_cursor]]
                posting_count = run_meta[run_cursor + 1]
                run_cursor += 2
                cache = posting_cache[doc_id]
                labels = doc_labels[doc_id]
                start = len(bucket)
                for ref in element_refs[element_cursor:element_cursor + posting_count]:
                    posting = cache[ref]
                    if posting is None:
                        posting = cache[ref] = Posting(doc_id=doc_id, label=labels[ref])
                    bucket.append(posting)
                element_cursor += posting_count
                ranges[doc_id] = (start, len(bucket))
                doc_term_lists[doc_id].append(term)
            postings_map[term] = bucket
            ranges_map[term] = ranges
    except IndexError:
        raise SnapshotFormatError("malformed snapshot: index refers to unknown documents or nodes") from None
    if run_cursor != len(run_meta) or element_cursor != len(element_refs):
        raise SnapshotFormatError("malformed snapshot: index tables have unread entries")
    doc_terms = {doc_id: tuple(sorted(posted)) for doc_id, posted in doc_term_lists.items()}
    return InvertedIndex._restore(
        postings=postings_map, doc_ranges=ranges_map, doc_terms=doc_terms
    )


def _write_statistics(writer: _Writer, statistics: CorpusStatistics) -> None:
    """Statistics section: (tag, group count) pairs sorted by tag."""
    groups = statistics.groups
    writer.varint(len(groups))
    for tag in sorted(groups):
        writer.string(tag)
        writer.varint(groups[tag])


def _read_statistics(reader: _Reader) -> CorpusStatistics:
    groups: Dict[str, int] = {}
    for _ in range(reader.varint()):
        tag = reader.string()
        count = reader.varint()
        if tag in groups:
            raise SnapshotFormatError(f"malformed snapshot: statistics list tag {tag!r} twice")
        if not count:
            raise SnapshotFormatError(f"malformed snapshot: statistics give tag {tag!r} no groups")
        groups[tag] = count
    return CorpusStatistics(groups)


# --------------------------------------------------------------------------- #
# Structural section (pre-order encoding tag tables)
# --------------------------------------------------------------------------- #
def _write_structure(
    writer: _Writer,
    doc_ids: List[str],
    doc_tag_ids: Dict[str, List[int]],
    tag_names: List[str],
) -> None:
    """Append the structural section: one tag dictionary + per-doc tag arrays.

    Everything else a :class:`~repro.structure.encoding.DocumentStructure`
    needs — pre, level, parent links and subtree windows — derives in
    ``O(n)`` from the label tables the directory already stores, so the
    section only persists what the labels cannot express: which *tag* each
    element carries.  Tag ids are section-local (first-seen order over the
    save's document iteration); the reader re-interns them in the same
    order, so ids round-trip without a remap.
    """
    writer.varint(_STRUCTURE_MARKER)
    writer.varint(len(tag_names))
    for tag in tag_names:
        writer.string(tag)
    for doc_id in doc_ids:
        writer.u32_array(doc_tag_ids[doc_id])


def _read_structure_section(
    reader: _Reader,
    doc_ids: List[str],
    doc_labels: Dict[str, List[DeweyLabel]],
    loader: "Callable[[str], XMLNode]",
) -> StructuralTable:
    """Decode the structural section into a ready
    :class:`~repro.structure.table.StructuralTable`.

    Every error names the structural table section so a damaged file is
    attributable: a head that ends before the section, truncation inside
    the section, a per-document tag array whose length disagrees with the
    directory's label table, and tag ids pointing past the stored dictionary
    (a stale tag dictionary) are all :class:`SnapshotFormatError`.
    """
    if reader.at_end():
        raise SnapshotFormatError(
            "malformed snapshot: head ends without the structural table section"
        )
    try:
        marker = reader.varint()
        if marker != _STRUCTURE_MARKER:
            raise SnapshotFormatError(
                f"malformed snapshot: structural table section has marker "
                f"{marker:#x}, expected {_STRUCTURE_MARKER:#x}"
            )
        tag_count = reader.varint()
        tag_names = [reader.string() for _ in range(tag_count)]
        doc_tag_ids = [reader.u32_array() for _ in doc_ids]
    except SnapshotFormatError as exc:
        raise SnapshotFormatError(
            f"truncated snapshot: structural table section is damaged ({exc})"
        ) from None

    tags = TagDictionary()
    for tag in tag_names:
        tags.intern(tag)
    documents: Dict[str, DocumentStructure] = {}
    for doc_id, tag_ids in zip(doc_ids, doc_tag_ids):
        labels = doc_labels[doc_id]
        if len(tag_ids) != len(labels):
            raise SnapshotFormatError(
                f"malformed snapshot: structural table of document {doc_id!r} has "
                f"{len(tag_ids)} tags for {len(labels)} elements"
            )
        for tag_id in tag_ids:
            if tag_id >= tag_count:
                raise SnapshotFormatError(
                    f"corrupt snapshot: structural table of document {doc_id!r} refers "
                    f"to tag id {tag_id}, but its tag dictionary is stale "
                    f"(holds {tag_count} tags)"
                )
        try:
            documents[doc_id] = DocumentStructure.from_labels(labels, tag_ids)
        except StructureError as exc:
            raise SnapshotFormatError(
                f"malformed snapshot: structural table of document {doc_id!r} is "
                f"inconsistent ({exc})"
            ) from None
    return StructuralTable.restore(loader, tags, documents)


# --------------------------------------------------------------------------- #
# Document directory
# --------------------------------------------------------------------------- #
def _read_directory_entry(reader: _Reader) -> Tuple[DocumentRecord, List[DeweyLabel]]:
    """Decode one directory entry plus its label table.

    The label table stores each element's Dewey label delta-encoded against
    pre-order: a varint depth plus the label's last component.  Pre-order
    guarantees the previous element's components are a superset-prefix of the
    parent path, so ``prev[:depth-1] + (last,)`` reconstructs every label with
    two varints per element instead of re-serialising whole component tuples.
    """
    doc_id = reader.string()
    metadata: Dict[str, str] = {}
    for _ in range(reader.varint()):
        key = reader.string()
        metadata[key] = reader.string()
    flags = reader.varint()
    if flags & ~_RECORD_ZLIB:
        raise SnapshotFormatError(
            f"malformed snapshot: document {doc_id!r} directory entry has unknown flags {flags:#x}"
        )
    offset = reader.varint()
    stored_length = reader.varint()
    raw_length = reader.varint()
    checksum = reader.varint()
    element_count = reader.varint()
    labels: List[DeweyLabel] = []
    label_new = DeweyLabel.__new__
    prev: Tuple[int, ...] = ()
    for _ in range(element_count):
        depth = reader.varint()
        if depth == 0:
            components: Tuple[int, ...] = ()
        else:
            if depth > len(prev) + 1:
                raise SnapshotFormatError(
                    f"malformed snapshot: label table of document {doc_id!r} jumps past its parent"
                )
            components = prev[:depth - 1] + (reader.varint(),)
        label = label_new(DeweyLabel)
        label._components = components
        labels.append(label)
        prev = components
    record = DocumentRecord(
        doc_id=doc_id,
        offset=offset,
        stored_length=stored_length,
        raw_length=raw_length,
        checksum=checksum,
        compressed=bool(flags & _RECORD_ZLIB),
        element_count=element_count,
        metadata=MappingProxyType(metadata),
    )
    return record, labels


def _record_truncation_error(head: bytes, header: SnapshotHeader, available: int) -> SnapshotFormatError:
    """Name the first document whose record a truncated file cuts off.

    Only called when the file ends inside the record section, so the head is
    complete; it is re-validated and its directory walked to find the record
    whose extent runs past the bytes actually present.
    """
    if zlib.crc32(head) != header.checksum:
        return SnapshotFormatError(
            "truncated snapshot: record section is short and the head checksum mismatches"
        )
    try:
        reader = _Reader(head)
        reader.varint()  # tokenizer fingerprint
        for _ in range(reader.varint()):
            record, _ = _read_directory_entry(reader)
            if record.offset + record.stored_length > available:
                return SnapshotFormatError(
                    f"truncated snapshot: record section holds {available} bytes but "
                    f"document {record.doc_id!r} record spans bytes "
                    f"{record.offset}..{record.offset + record.stored_length}"
                )
    except SnapshotError as exc:
        return SnapshotFormatError(f"truncated snapshot: record section is short ({exc})")
    return SnapshotFormatError(
        "truncated snapshot: record section is shorter than the header promises"
    )


# --------------------------------------------------------------------------- #
# Save
# --------------------------------------------------------------------------- #
def save_corpus(corpus: "Corpus", path: Union[str, Path], *, compress: bool = False) -> Path:
    """Write ``corpus`` as one binary snapshot file at ``path``.

    The index is finalized first (snapshots always store ordered posting
    lists plus their offset maps), the file is written atomically via a
    temporary sibling, and the returned path is the final location.

    Parameters
    ----------
    compress:
        zlib-deflate each document record individually, keeping a record
        uncompressed when deflation does not shrink it.  Per-record
        compression preserves random access, trading decode CPU for file
        size.
    """
    corpus.index.finalize()
    name_bytes = corpus.name.encode("utf-8")
    payload, records = _build_payload(corpus, compress=compress)
    header = _MAGIC + _HEADER.pack(
        FORMAT_VERSION,
        corpus.version,
        zlib.crc32(payload),
        len(payload),
        len(records),
        len(name_bytes),
    ) + name_bytes
    header += struct.pack("<I", zlib.crc32(header))

    # Atomic, concurrency-safe write: a uniquely named temporary in the target
    # directory (so os.replace stays a same-filesystem rename), removed on any
    # failure so aborted saves leave nothing behind.  File-system errors
    # surface as typed snapshot errors like on the read side.
    target = Path(path)
    try:
        handle = tempfile.NamedTemporaryFile(
            mode="wb", dir=target.parent, prefix=target.name + ".", suffix=".tmp", delete=False
        )
    except OSError as exc:
        raise SnapshotError(f"cannot write snapshot {target}: {exc}") from exc
    temporary = Path(handle.name)
    try:
        with handle:
            handle.write(header)
            handle.write(payload)
            if records:
                handle.write(records)
        os.replace(temporary, target)
    except OSError as exc:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise SnapshotError(f"cannot write snapshot {target}: {exc}") from exc
    return target


def _build_payload(corpus: "Corpus", *, compress: bool) -> Tuple[bytes, bytes]:
    """The eager head plus the offset-addressed record section.

    Iterating the store decodes records transiently, so re-saving a loaded
    corpus streams record-by-record instead of materialising everything at
    once.
    """
    writer = _Writer()
    writer.varint(_tokenizer_fingerprint())

    doc_ids = corpus.store.document_ids()
    doc_refs = {doc_id: position for position, doc_id in enumerate(doc_ids)}
    label_indices: Dict[str, Dict[DeweyLabel, int]] = {}
    section_tags: Dict[str, int] = {}
    doc_tag_ids: Dict[str, List[int]] = {}
    records = bytearray()
    writer.varint(len(doc_ids))
    for document in corpus.store:
        tree_writer = _Writer()
        tag_names: List[str] = []
        label_index = _encode_tree(tree_writer, document.root, tag_names)
        doc_tag_ids[document.doc_id] = [
            section_tags.setdefault(tag, len(section_tags)) for tag in tag_names
        ]
        raw = tree_writer.getvalue()
        stored = raw
        flags = 0
        if compress:
            deflated = zlib.compress(raw, 6)
            if len(deflated) < len(raw):
                stored = deflated
                flags = _RECORD_ZLIB
        writer.string(document.doc_id)
        writer.varint(len(document.metadata))
        for key, value in document.metadata.items():
            writer.string(key)
            writer.string(value)
        writer.varint(flags)
        writer.varint(len(records))
        writer.varint(len(stored))
        writer.varint(len(raw))
        writer.varint(zlib.crc32(stored))
        writer.varint(len(label_index))
        for label in label_index:
            components = label._components
            writer.varint(len(components))
            if components:
                writer.varint(components[-1])
        records += stored
        label_indices[document.doc_id] = label_index

    _write_index(writer, corpus.index, doc_refs, label_indices)
    _write_statistics(writer, corpus.statistics)
    _write_structure(writer, doc_ids, doc_tag_ids, list(section_tags))
    return writer.getvalue(), bytes(records)


# --------------------------------------------------------------------------- #
# Load
# --------------------------------------------------------------------------- #
def _parse_header(data: bytes) -> Tuple[SnapshotHeader, int]:
    """Decode the header; returns it plus the payload's byte offset."""
    magic_size = len(_MAGIC)
    if len(data) < magic_size + 2:
        raise SnapshotFormatError(
            f"truncated snapshot: {len(data)} bytes is shorter than the smallest header"
        )
    if data[:magic_size] != _MAGIC:
        raise SnapshotFormatError("not a corpus snapshot (bad magic bytes)")
    (format_version,) = struct.unpack_from("<H", data, magic_size)
    if format_version != FORMAT_VERSION:
        raise SnapshotFormatError(
            f"unsupported snapshot format version {format_version} (this build reads "
            f"version {FORMAT_VERSION})"
        )
    fixed_size = magic_size + _HEADER.size
    if len(data) < fixed_size:
        raise SnapshotFormatError(
            f"truncated snapshot: {len(data)} bytes is shorter than the {fixed_size}-byte header"
        )
    (
        _,
        corpus_version,
        checksum,
        payload_length,
        record_length,
        name_length,
    ) = _HEADER.unpack_from(data, magic_size)
    checksum_offset = fixed_size + name_length
    payload_offset = checksum_offset + 4
    if len(data) < payload_offset:
        raise SnapshotFormatError("truncated snapshot: header runs past end of file")
    (header_checksum,) = struct.unpack_from("<I", data, checksum_offset)
    if zlib.crc32(data[:checksum_offset]) != header_checksum:
        raise SnapshotFormatError("corrupt snapshot: header checksum mismatch")
    try:
        name = data[fixed_size:checksum_offset].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotFormatError(f"malformed snapshot: corpus name is not UTF-8 ({exc})") from None
    header = SnapshotHeader(
        format_version=format_version,
        corpus_version=corpus_version,
        checksum=checksum,
        payload_length=payload_length,
        name=name,
        record_length=record_length,
    )
    return header, payload_offset


# Longest possible header: fixed part + 0xFFFF name bytes + trailing crc.
_HEADER_PEEK = len(_MAGIC) + _HEADER.size + 0xFFFF + 4


def read_snapshot_header(path: Union[str, Path]) -> SnapshotHeader:
    """Read and validate only the snapshot header (cheap staleness checks).

    The promised extents are additionally checked against the file size — a
    file truncated inside the record section is rejected here, naming the
    first document whose record is cut, instead of surfacing as a decode
    failure on some later record access.
    """
    try:
        with open(Path(path), "rb") as handle:
            data = handle.read(_HEADER_PEEK)
            file_size = os.fstat(handle.fileno()).st_size
            header, payload_offset = _parse_header(data)
            _check_extents(handle, header, payload_offset, file_size)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    return header


def _check_extents(
    handle: BinaryIO, header: SnapshotHeader, payload_offset: int, file_size: int
) -> None:
    """Reject a file whose size disagrees with the header's extents."""
    head_end = payload_offset + header.payload_length
    expected = head_end + header.record_length
    if file_size < head_end:
        raise SnapshotFormatError(
            f"truncated snapshot: eager head ends at byte {head_end}, file has {file_size}"
        )
    if file_size > expected:
        raise SnapshotFormatError("malformed snapshot: trailing bytes after record section")
    if file_size < expected:
        handle.seek(payload_offset)
        head = handle.read(header.payload_length)
        raise _record_truncation_error(head, header, available=file_size - head_end)


def load_corpus(
    path: Union[str, Path],
    *,
    expected_version: Optional[int] = None,
    max_materialised: Optional[int] = None,
) -> "Corpus":
    """Reconstruct a :class:`Corpus` from a snapshot file.

    The loaded corpus answers every query exactly like a fresh build over the
    same documents — same postings, frequencies, repeat table and ranked
    results — and carries the saved :attr:`Corpus.version`.  What differs is
    *residency*: trees stay in the ``mmap``-ed record section and the
    :class:`~repro.storage.document_store.DocumentStore` decodes them on
    first access into a bounded LRU, so cold start reads only the eager
    head.

    Parameters
    ----------
    path:
        Snapshot file written by :func:`save_corpus`.
    expected_version:
        When given, the snapshot's recorded corpus version must match it;
        a mismatch raises :class:`~repro.errors.SnapshotVersionError` before
        any decoding work.
    max_materialised:
        LRU bound on decoded records: ``None`` picks the default
        (:data:`~repro.storage.document_store.DEFAULT_MAX_MATERIALISED`),
        ``0`` disables eviction entirely.

    Raises
    ------
    SnapshotFormatError
        If the file is not a snapshot, has an unsupported format version, is
        truncated (naming the cut record when the cut lands in the record
        section) or corrupt, or was built under a different tokenizer
        configuration.
    SnapshotVersionError
        If ``expected_version`` is given and does not match.
    """
    target = Path(path)
    try:
        handle = open(target, "rb")
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    try:
        try:
            prefix = handle.read(_HEADER_PEEK)
            file_size = os.fstat(handle.fileno()).st_size
        except OSError as exc:
            raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
        header, payload_offset = _parse_header(prefix)
        if expected_version is not None and header.corpus_version != expected_version:
            raise SnapshotVersionError(
                f"snapshot records corpus version {header.corpus_version}, "
                f"expected {expected_version}: the corpus was mutated after this snapshot was taken"
            )
        # Decoding allocates hundreds of thousands of objects in cyclic graphs
        # (tree nodes point at parents and children), which makes the
        # generational collector fire repeatedly over an ever-growing,
        # all-live heap — ~35% of load wall time for nothing collectable.
        # Pause it for the bulk allocation burst; the ``finally`` restores the
        # caller's setting even on a malformed snapshot.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return _load(handle, header, payload_offset, file_size, max_materialised)
        finally:
            if gc_was_enabled:
                gc.enable()
    finally:
        handle.close()


def _load(
    handle: BinaryIO,
    header: SnapshotHeader,
    payload_offset: int,
    file_size: int,
    max_materialised: Optional[int],
) -> "Corpus":
    """Decode the head and open the store over the record section."""
    from repro.storage.corpus import Corpus

    try:
        _check_extents(handle, header, payload_offset, file_size)
        handle.seek(payload_offset)
        head = handle.read(header.payload_length)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot: {exc}") from exc
    if zlib.crc32(head) != header.checksum:
        raise SnapshotFormatError("corrupt snapshot: head checksum mismatch")

    reader = _Reader(head)
    _check_fingerprint(reader)

    records: List[DocumentRecord] = []
    doc_ids: List[str] = []
    doc_labels: Dict[str, List[DeweyLabel]] = {}
    for _ in range(reader.varint()):
        record, labels = _read_directory_entry(reader)
        if record.offset + record.stored_length > header.record_length:
            raise SnapshotFormatError(
                f"malformed snapshot: document {record.doc_id!r} record extends past the record section"
            )
        records.append(record)
        doc_ids.append(record.doc_id)
        doc_labels[record.doc_id] = labels

    store = _open_store(handle, records, payload_offset + header.payload_length, max_materialised)

    index = _read_index(reader, doc_ids, doc_labels)
    statistics = _read_statistics(reader)

    def document_root(doc_id: str) -> XMLNode:
        return store.get(doc_id).root

    structure = _read_structure_section(reader, doc_ids, doc_labels, document_root)
    if not reader.at_end():
        raise SnapshotFormatError("malformed snapshot: trailing bytes inside payload")
    return Corpus._restore(
        store=store,
        index=index,
        statistics=statistics,
        name=header.name,
        version=header.corpus_version,
        structure=structure,
    )


def _open_store(
    handle: BinaryIO,
    records: List[DocumentRecord],
    record_base: int,
    max_materialised: Optional[int],
) -> DocumentStore:
    """Map the snapshot and open the document store over its record section.

    The mapping covers the whole file (the record base is added per access),
    so it is never empty and stays valid after the caller closes its file
    handle.  Only the loader holds it: the mapping is freed together with the
    last store (or clone) holding the loader.
    """
    if max_materialised is None:
        bound: Optional[int] = DEFAULT_MAX_MATERIALISED
    elif max_materialised == 0:
        bound = None
    else:
        bound = max_materialised
    try:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"cannot map snapshot record section: {exc}") from exc

    def loader(record: DocumentRecord) -> XMLNode:
        return _decode_record(mapped, record, base=record_base)

    return DocumentStore(records, loader, max_materialised=bound)


def _check_fingerprint(reader: _Reader) -> None:
    if reader.varint() != _tokenizer_fingerprint():
        raise SnapshotFormatError(
            "stale snapshot: it was built with a different tokenizer configuration"
        )
