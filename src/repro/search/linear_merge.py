"""Stack-based linear merge over Dewey-labelled posting lists.

The fast SLCA and ELCA algorithms share one primitive: a single pass over the
keyword occurrences of one document in document order, maintaining a stack that
mirrors the root-to-current-node path (Indexed-Stack style).  Because Dewey
labels sort in document order, every node's subtree occupies a contiguous run
of the merged occurrence stream, so by the time a stack entry is popped its
subtree has been seen in full and the entry's keyword bitmask is final.

Each stack entry tracks three facts about the subtree rooted at its label:

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
depth ``d``, after an ``O(N log N)`` merge of the per-keyword lists — versus
the quadratic candidate-by-candidate containment checks of a brute-force scan.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Sequence

from repro.storage.inverted_index import Posting
from repro.xmlmodel.dewey import DeweyLabel

__all__ = ["collect_per_document", "group_labels_by_document", "stack_merge_document"]

_ALL_SEEN = 0
_UNCAPTURED = 1
_CONTAINS_ALL_BELOW = 2


def collect_per_document(
    keyword_postings: Sequence[Sequence[Posting]],
    single_document: Callable[[List[List[DeweyLabel]]], Sequence[DeweyLabel]],
) -> List[Posting]:
    """Run a per-document match algorithm over per-keyword posting lists.

    This is the driver shared by every SLCA/ELCA variant: apply conjunctive
    semantics (any keyword with an empty posting list — globally or within a
    document — yields no matches there), group the postings by document, call
    ``single_document`` on each document's label lists, and re-wrap the
    returned labels as :class:`Posting` results in global document order
    (``single_document`` must return labels sorted in document order).

    The input lists are only iterated, never copied — the stack merge orders
    the occurrence stream itself, so zero-copy index buckets pass straight
    through.
    """
    lists = list(keyword_postings)
    if not lists or any(not postings for postings in lists):
        return []

    per_document = group_labels_by_document(lists)
    results: List[Posting] = []
    for doc_id in sorted(per_document):
        label_lists = per_document[doc_id]
        if any(not labels for labels in label_lists):
            continue
        results.extend(
            Posting(doc_id=doc_id, label=label) for label in single_document(label_lists)
        )
    return results


def group_labels_by_document(
    keyword_postings: Sequence[Sequence[Posting]],
) -> Dict[str, List[List[DeweyLabel]]]:
    """Split per-keyword posting lists into per-document label lists.

    Returns a mapping ``doc_id -> [labels of keyword 0, labels of keyword 1,
    ...]``; a document missing one of the keywords keeps an empty inner list,
    which callers drop under conjunctive semantics.
    """
    count = len(keyword_postings)
    per_document: Dict[str, List[List[DeweyLabel]]] = defaultdict(
        lambda: [[] for _ in range(count)]
    )
    for index, postings in enumerate(keyword_postings):
        for posting in postings:
            per_document[posting.doc_id][index].append(posting.label)
    return per_document


def stack_merge_document(
    label_lists: Sequence[Sequence[DeweyLabel]], *, exclusive: bool
) -> List[DeweyLabel]:
    """Run the stack merge over one document's keyword occurrences.

    Parameters
    ----------
    label_lists:
        One non-empty list of Dewey labels per query keyword.
    exclusive:
        ``False`` computes SLCA (deepest contains-all nodes); ``True`` computes
        ELCA (contains-all nodes with an exclusive witness per keyword).

    Returns the result labels sorted in document order.
    """
    full = (1 << len(label_lists)) - 1
    occurrences = sorted(
        (label.components, 1 << index)
        for index, labels in enumerate(label_lists)
        for label in labels
    )

    path: List[int] = []
    # stack[d] covers the label path[:d]; stack[0] is the document root.
    stack: List[List] = [[0, 0, False]]
    results: List[DeweyLabel] = []

    def pop() -> None:
        all_seen, uncaptured, contains_all_below = stack.pop()
        contains_all = all_seen == full
        if contains_all:
            emit = uncaptured == full if exclusive else not contains_all_below
            if emit:
                results.append(DeweyLabel(tuple(path)))
        if path:
            path.pop()
        if stack:
            parent = stack[-1]
            parent[_ALL_SEEN] |= all_seen
            if contains_all:
                parent[_CONTAINS_ALL_BELOW] = True
            else:
                parent[_UNCAPTURED] |= uncaptured
                parent[_CONTAINS_ALL_BELOW] |= contains_all_below

    for components, bit in occurrences:
        shared = 0
        limit = min(len(components), len(path))
        while shared < limit and components[shared] == path[shared]:
            shared += 1
        while len(path) > shared:
            pop()
        for component in components[shared:]:
            path.append(component)
            stack.append([0, 0, False])
        top = stack[-1]
        top[_ALL_SEEN] |= bit
        top[_UNCAPTURED] |= bit
    while stack:
        pop()
    results.sort()
    return results
