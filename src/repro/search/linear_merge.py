"""Stack-based linear merge over per-document runs of pre numbers.

The fast SLCA and ELCA algorithms share one primitive: a single pass over the
keyword occurrences of one document in document order, maintaining a stack that
mirrors the root-to-current-node path (Indexed-Stack style).  Occurrences are
pre numbers of the document's :class:`~repro.structure.encoding.DocumentStructure`
(the XPath-accelerator encoding), so a node's subtree is the contiguous window
``[pre, end[pre])`` of the merged occurrence stream: by the time a stack entry
is popped its subtree has been seen in full and the entry's keyword bitmask is
final.  Before an occurrence is pushed, every entry whose window ends at or
before it is popped; the ``parent`` chain from the occurrence up to the
remaining top is then pushed, so the stack always holds the path to the
current occurrence.

Each stack entry tracks three facts about the subtree rooted at its node:

``all_seen``
    Bitmask of keywords occurring anywhere in the subtree.  An entry whose
    mask is full is a *contains-all* node (an LCA match).
``uncaptured``
    Bitmask of keywords with at least one occurrence that is not inside any
    contains-all proper descendant.  A contains-all node "captures" all of its
    uncaptured occurrences when popped, so an occurrence propagates upwards
    exactly until its lowest contains-all ancestor-or-self.
``contains_all_below``
    Whether any proper descendant was a contains-all node.

On pop, a contains-all entry is:

* an **SLCA** iff ``contains_all_below`` is false (no smaller match inside), and
* an **ELCA** iff ``uncaptured`` is full (for every keyword it owns a witness
  occurrence that no deeper LCA match claims — the XRank exclusivity rule).

The pass costs ``O(N * d)`` stack operations for ``N`` occurrences of maximum
depth ``d``, after an ``O(N log N)`` sort of the document's occurrences — versus
the quadratic candidate-by-candidate containment checks of a brute-force scan.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.storage.inverted_index import Runs
from repro.structure.encoding import DocumentStructure
from repro.structure.table import StructuralTable

__all__ = ["Match", "collect_per_document", "stack_merge_document"]

#: A match node: its document id and its pre number in that document.
Match = Tuple[str, int]

_NODE = 0
_ALL_SEEN = 1
_UNCAPTURED = 2
_CONTAINS_ALL_BELOW = 3


def collect_per_document(
    keyword_runs: Sequence[Runs],
    table: StructuralTable,
    single_document: Callable[[DocumentStructure, List[Sequence[int]]], List[int]],
) -> List[Match]:
    """Run a per-document match algorithm over every keyword's runs.

    This is the driver shared by every SLCA/ELCA variant: apply conjunctive
    semantics (a document matches only if every keyword has a run there),
    call ``single_document`` on each shared document's structure and runs,
    and return its pre numbers as ``(doc_id, pre)`` matches in global
    document order (``single_document`` must return pre numbers sorted).
    Only the documents every keyword shares are visited.
    """
    if not keyword_runs:
        return []
    rarest = min(keyword_runs, key=len)
    shared = sorted(
        doc_id for doc_id in rarest if all(doc_id in runs for runs in keyword_runs)
    )
    matches: List[Match] = []
    for doc_id in shared:
        pres = single_document(table.get(doc_id), [runs[doc_id] for runs in keyword_runs])
        matches.extend((doc_id, pre) for pre in pres)
    return matches


def stack_merge_document(
    structure: DocumentStructure, runs: Sequence[Sequence[int]], *, exclusive: bool
) -> List[int]:
    """Run the stack merge over one document's keyword occurrences.

    Parameters
    ----------
    structure:
        The document's structural encoding (``parent`` and ``end``).
    runs:
        One run of pre numbers per query keyword.
    exclusive:
        ``False`` computes SLCA (deepest contains-all nodes); ``True`` computes
        ELCA (contains-all nodes with an exclusive witness per keyword).

    Returns the result pre numbers in document order.
    """
    full = (1 << len(runs)) - 1
    masks: Dict[int, int] = {}
    for position, run in enumerate(runs):
        bit = 1 << position
        for pre in run:
            masks[pre] = masks.get(pre, 0) | bit
    parent = structure.parent
    end = structure.end

    stack: List[list] = []
    results: List[int] = []

    def pop() -> None:
        node, all_seen, uncaptured, contains_all_below = stack.pop()
        contains_all = all_seen == full
        if contains_all and (uncaptured == full if exclusive else not contains_all_below):
            results.append(node)
        if stack:
            top = stack[-1]
            top[_ALL_SEEN] |= all_seen
            if contains_all:
                top[_CONTAINS_ALL_BELOW] = True
            else:
                top[_UNCAPTURED] |= uncaptured
                top[_CONTAINS_ALL_BELOW] |= contains_all_below

    for pre, mask in sorted(masks.items()):
        while stack and end[stack[-1][_NODE]] <= pre:
            pop()
        top_node = stack[-1][_NODE] if stack else -1
        path: List[list] = []
        node = pre
        while node != top_node:
            path.append([node, 0, 0, False])
            node = parent[node]
        stack.extend(reversed(path))
        entry = stack[-1]
        entry[_ALL_SEEN] |= mask
        entry[_UNCAPTURED] |= mask
    while stack:
        pop()
    results.sort()
    return results
