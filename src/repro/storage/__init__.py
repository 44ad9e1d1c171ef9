"""Storage substrate: document store, inverted index and corpus statistics.

XSACT sits on top of a keyword search engine for structured data (XSeek in the
paper).  That engine needs three storage-level services, all provided here:

* :class:`~repro.storage.document_store.DocumentStore` — the corpus of XML
  documents addressable by id: resident trees, or snapshot records decoded on
  demand into a bounded LRU, with optional persistence to a directory of
  ``.xml`` files.
* :class:`~repro.storage.inverted_index.InvertedIndex` — keyword → posting-list
  index, where each posting identifies a node by ``(document id, Dewey label)``;
  this is the structure the SLCA / ELCA algorithms consume, and the one owner
  of term statistics (the document frequencies ranking reads).
* :class:`~repro.storage.statistics.CorpusStatistics` — per tag, the number
  of elements with two or more children of that tag: the repeating-tag
  signal XSeek and the entity classifier read; it never tokenises.
* :mod:`repro.storage.snapshot` — one-file binary persistence of a whole
  :class:`~repro.storage.corpus.Corpus` (store + index + statistics), so
  cold start is a sequential read instead of re-parsing and
  re-tokenising the corpus; see :meth:`Corpus.save` / :meth:`Corpus.load`.
"""

from repro.storage.corpus import Corpus
from repro.storage.document_store import (
    DEFAULT_MAX_MATERIALISED,
    DocumentRecord,
    DocumentStore,
    StoredDocument,
)
from repro.storage.inverted_index import InvertedIndex, Posting
from repro.storage.snapshot import FORMAT_VERSION, SnapshotHeader, read_snapshot_header
from repro.storage.statistics import CorpusStatistics
from repro.storage.tokenizer import STOPWORDS, tokenize, tokenize_many

__all__ = [
    "DocumentStore",
    "DocumentRecord",
    "DEFAULT_MAX_MATERIALISED",
    "StoredDocument",
    "InvertedIndex",
    "Posting",
    "CorpusStatistics",
    "Corpus",
    "SnapshotHeader",
    "read_snapshot_header",
    "FORMAT_VERSION",
    "tokenize",
    "tokenize_many",
    "STOPWORDS",
]
