"""Exclusive Lowest Common Ancestor (ELCA) computation.

A node is an ELCA match if its subtree contains every query keyword *after*
excluding the subtrees of its descendant LCA matches.  ELCA is a superset of
SLCA; XSeek-style engines expose it when users want the broader semantics.
The XSACT experiments run on SLCA results (the engine default), but the ELCA
module completes the search substrate and is exercised by its own tests and an
ablation benchmark.

:func:`compute_elca` is a stack-based linear merge over the Dewey labels
(Indexed-Stack style, see :mod:`repro.search.linear_merge`).  All posting
lists are merged in document order; a stack mirroring the root-to-current
path accumulates one keyword bitmask per subtree plus the set of keyword
occurrences not captured by a deeper LCA match.  When an entry is popped its
subtree is complete, so contains-all and exclusive-witness checks are O(1)
bitmask tests.  Total cost is ``O(N log N)`` for the merge plus ``O(N * d)``
stack work for ``N`` postings of maximum depth ``d``.  The property tests pin
it against a brute-force scan oracle.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.search.linear_merge import collect_per_document, stack_merge_document
from repro.storage.inverted_index import Posting

__all__ = ["compute_elca"]


def compute_elca(keyword_postings: Sequence[Sequence[Posting]]) -> List[Posting]:
    """Return the ELCA nodes for the given per-keyword posting lists.

    The result is a list of :class:`Posting` (document id + Dewey label of the
    ELCA node) sorted in global document order.  If any keyword has an empty
    posting list the result is empty (conjunctive semantics).
    """
    return collect_per_document(
        keyword_postings, lambda label_lists: stack_merge_document(label_lists, exclusive=True)
    )
