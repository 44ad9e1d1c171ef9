"""Smallest Lowest Common Ancestor (SLCA) computation.

Given one posting list per query keyword, a node is an *LCA match* if its
subtree contains at least one occurrence of every keyword.  The SLCA semantics
keeps only the smallest such subtrees: an LCA match is an SLCA iff none of its
descendants is also an LCA match.  SLCA is the result semantics used by XSeek
and most XML keyword-search engines, and it is what feeds XSACT with results.

:func:`compute_slca` is a single stack-based pass per document over all
posting lists merged in document order (see
:mod:`repro.search.linear_merge`); ``O(N log N + N * d)`` for ``N`` postings
of maximum label depth ``d``, independent of how the postings split across
keywords.  The test suite pins it against a brute-force scan oracle.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.search.linear_merge import collect_per_document, stack_merge_document
from repro.storage.inverted_index import Posting

__all__ = ["compute_slca"]


def compute_slca(keyword_postings: Sequence[Sequence[Posting]]) -> List[Posting]:
    """Return the SLCA nodes for the given per-keyword posting lists.

    The result is a list of :class:`Posting` (document id + Dewey label of the
    SLCA node) sorted in global document order.  If any keyword has an empty
    posting list the result is empty (conjunctive semantics).  The lists need
    not be sorted: the merge orders each document's occurrences itself.
    """
    return collect_per_document(
        keyword_postings, lambda label_lists: stack_merge_document(label_lists, exclusive=False)
    )
