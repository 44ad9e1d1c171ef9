"""Exclusive Lowest Common Ancestor (ELCA) computation.

A node is an ELCA match if its subtree contains every query keyword *after*
excluding the subtrees of its descendant LCA matches.  ELCA is a superset of
SLCA; XSeek-style engines expose it when users want the broader semantics.
The XSACT experiments run on SLCA results (the engine default), but the ELCA
module completes the search substrate and is exercised by its own tests and an
ablation benchmark.

:func:`compute_elca` is a stack-based linear merge over the keywords' pre
numbers (Indexed-Stack style, see :mod:`repro.search.linear_merge`).  Each
shared document's occurrences are merged in document order; a stack
mirroring the root-to-current path accumulates one keyword bitmask per
subtree plus the set of keyword occurrences not captured by a deeper LCA
match.  When an entry is popped its subtree is complete, so contains-all and
exclusive-witness checks are O(1) bitmask tests.  Total cost is
``O(N log N)`` for the merge plus ``O(N * d)`` stack work for ``N``
occurrences of maximum depth ``d``.  The property tests pin it against a
brute-force scan oracle.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.search.linear_merge import Match, collect_per_document, stack_merge_document
from repro.storage.inverted_index import Runs
from repro.structure.table import StructuralTable

__all__ = ["compute_elca"]


def compute_elca(keyword_runs: Sequence[Runs], table: StructuralTable) -> List[Match]:
    """Return the ELCA nodes for the given per-keyword runs.

    The result is a list of ``(doc_id, pre)`` matches sorted in global
    document order.  A document matches only where every keyword has a run
    (conjunctive semantics).
    """
    return collect_per_document(
        keyword_runs,
        table,
        lambda structure, runs: stack_merge_document(structure, runs, exclusive=True),
    )
