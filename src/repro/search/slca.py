"""Smallest Lowest Common Ancestor (SLCA) computation.

Given the runs of every query keyword, a node is an *LCA match* if its
subtree contains at least one occurrence of every keyword.  The SLCA semantics
keeps only the smallest such subtrees: an LCA match is an SLCA iff none of its
descendants is also an LCA match.  SLCA is the result semantics used by XSeek
and most XML keyword-search engines, and it is what feeds XSACT with results.

:func:`compute_slca` is a single stack-based pass per shared document over
the keywords' pre numbers merged in document order (see
:mod:`repro.search.linear_merge`); ``O(N log N + N * d)`` for ``N``
occurrences of maximum depth ``d``, independent of how the occurrences split
across keywords.  The test suite pins it against a brute-force scan oracle.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.search.linear_merge import Match, collect_per_document, stack_merge_document
from repro.storage.inverted_index import Runs
from repro.structure.table import StructuralTable

__all__ = ["compute_slca"]


def compute_slca(keyword_runs: Sequence[Runs], table: StructuralTable) -> List[Match]:
    """Return the SLCA nodes for the given per-keyword runs.

    The result is a list of ``(doc_id, pre)`` matches sorted in global
    document order.  A document matches only where every keyword has a run
    (conjunctive semantics).  The runs need not be sorted: the merge orders
    each document's occurrences itself.
    """
    return collect_per_document(
        keyword_runs,
        table,
        lambda structure, runs: stack_merge_document(structure, runs, exclusive=False),
    )
