"""Structural index subsystem: the XPath-accelerator encoding.

Keeps every document as integer lists indexed by pre number (``parent``,
``end``, ``last``, ``tag_ids``), so that ancestor/descendant tests are two
integer comparisons, axis scans are binary searches over per-tag occurrence
lists and a Dewey label is climbed only when a page serves it — see
:mod:`repro.structure.encoding` for the encoding and
:mod:`repro.structure.table` for the corpus-level table, built with the
inverted index, whose postings are its pre numbers.  The SLCA/ELCA merge,
XSeek's return-node climb and ranking read it
(:mod:`repro.search.linear_merge`, :mod:`repro.search.xseek`,
:mod:`repro.search.ranking`), and the structured match semantics built on
top (``slca_struct``, axis constraints, tag-path filters) lives in
:mod:`repro.search.structural`; snapshot persistence of the tag tables
lives in :mod:`repro.storage.snapshot`.  ``docs/structure.md`` has the full
story.
"""

from repro.structure.encoding import DocumentStructure, TagDictionary
from repro.structure.table import StructuralTable

__all__ = ["DocumentStructure", "TagDictionary", "StructuralTable"]
