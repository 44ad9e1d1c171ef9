"""Brute-force reference implementations for the differential tests.

The SLCA/ELCA oracles follow the definitions directly — enumerate every
ancestor-or-self candidate of the keyword occurrences and re-check
containment per keyword — so they are quadratic and only suitable for small
inputs, but they share no logic with the stack merge in
:mod:`repro.search.linear_merge` that :func:`~repro.search.slca.compute_slca`
and :func:`~repro.search.elca.compute_elca` run.  They work on Dewey labels,
through their own ``(doc_id, label)`` postings: :func:`labelled_postings`
turns the index's runs of pre numbers into such postings, and
:func:`labelled_matches` does the same for the ``(doc_id, pre)`` matches of
the fast algorithms, both through the structural table's
:meth:`~repro.structure.encoding.DocumentStructure.label_of`, and
:func:`pre_order_labels` lists one document's labels in pre order, so a
test can turn a label back into its pre number with ``index``.
:func:`tag_repeats_scan` re-reads whole trees for the repeating-tag signal
that :class:`~repro.storage.statistics.CorpusStatistics` keeps
incrementally.  :func:`infer_return_subtree_walk` is XSeek's return-node
rule on the tree (root-to-match path, element children), the oracle of
:func:`~repro.search.xseek.infer_return_subtree`, which climbs the
structural table's ``parent`` and ``end`` arrays instead.
:func:`node_labels` gives every node of a tree its Dewey label from the
children offsets, the tree's own account of what
:meth:`~repro.structure.encoding.DocumentStructure.label_of` derives.
"""

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.storage.statistics import CorpusStatistics
from repro.structure.encoding import DocumentStructure
from repro.structure.table import StructuralTable
from repro.xmlmodel.dewey import DeweyLabel
from repro.xmlmodel.node import XMLNode

#: A keyword occurrence or a match node: its document id and Dewey label.
LabelledPosting = Tuple[str, DeweyLabel]


def node_labels(root: XMLNode) -> Dict[XMLNode, DeweyLabel]:
    """Every node of ``root``'s tree, text nodes included, to its Dewey label.

    A node's label is its parent's plus its offset among the parent's
    children, so the walk reads nothing but the children lists.
    """
    labels = {root: DeweyLabel.root()}
    stack = [root]
    while stack:
        node = stack.pop()
        label = labels[node]
        for offset, child in enumerate(node.children):
            labels[child] = label.child(offset)
            stack.append(child)
    return labels


def pre_order_labels(structure: DocumentStructure) -> List[DeweyLabel]:
    """Every element's Dewey label, indexed by pre number."""
    return [structure.label_of(pre) for pre in range(len(structure))]


def labelled_postings(
    keyword_runs: Sequence[Mapping[str, Sequence[int]]], table: StructuralTable
) -> List[List[LabelledPosting]]:
    """Each keyword's runs as ``(doc_id, label)`` postings in document order."""
    return [
        sorted(
            (doc_id, table.get(doc_id).label_of(pre))
            for doc_id, run in runs.items()
            for pre in run
        )
        for runs in keyword_runs
    ]


def labelled_matches(
    matches: Iterable[Tuple[str, int]], table: StructuralTable
) -> List[LabelledPosting]:
    """``(doc_id, pre)`` matches as ``(doc_id, label)`` postings, in their order."""
    return [(doc_id, table.get(doc_id).label_of(pre)) for doc_id, pre in matches]


def compute_slca_scan(
    keyword_postings: Sequence[Sequence[LabelledPosting]],
) -> List[LabelledPosting]:
    """Brute-force SLCA.

    A node is an LCA match iff for every keyword list some posting lies in its
    subtree; the SLCAs are the LCA matches with no LCA-match descendant.
    """
    lists = [list(postings) for postings in keyword_postings]
    if not lists or any(not postings for postings in lists):
        return []

    # Candidate LCAs: every ancestor-or-self of every posting of the first list.
    candidates: set = set()
    for doc_id, label in lists[0]:
        candidates.add((doc_id, label))
        for ancestor in label.ancestors():
            candidates.add((doc_id, ancestor))

    def contains_keyword(candidate: LabelledPosting, postings: List[LabelledPosting]) -> bool:
        return any(
            doc_id == candidate[0] and candidate[1].is_ancestor_or_self_of(label)
            for doc_id, label in postings
        )

    lca_matches = [
        candidate
        for candidate in candidates
        if all(contains_keyword(candidate, postings) for postings in lists)
    ]
    return _remove_ancestors(lca_matches)


def _remove_ancestors(postings: List[LabelledPosting]) -> List[LabelledPosting]:
    """Sort, deduplicate and drop postings that are proper ancestors of another.

    In document order an ancestor immediately precedes its descendants, so a
    single linear pass suffices.
    """
    result: List[LabelledPosting] = []
    for posting in sorted(set(postings)):
        while result and _is_ancestor_posting(result[-1], posting):
            result.pop()
        result.append(posting)
    return result


def _is_ancestor_posting(a: LabelledPosting, b: LabelledPosting) -> bool:
    return a[0] == b[0] and a[1].is_ancestor_of(b[1])


def compute_elca_scan(
    keyword_postings: Sequence[Sequence[LabelledPosting]],
) -> List[LabelledPosting]:
    """Brute-force ELCA.

    Start from all LCA candidates (ancestors-or-self of keyword matches), and
    keep a candidate if, for every keyword, it has a witness occurrence that
    is not inside any *deeper* LCA candidate that itself contains all keywords.
    """
    per_document: Dict[str, List[List[DeweyLabel]]] = {}
    for position, postings in enumerate(keyword_postings):
        for doc_id, label in postings:
            lists = per_document.setdefault(doc_id, [[] for _ in keyword_postings])
            lists[position].append(label)
    return [
        (doc_id, label)
        for doc_id in sorted(per_document)
        if all(per_document[doc_id])
        for label in _elca_single_document(per_document[doc_id])
    ]


def _elca_single_document(label_lists: List[List[DeweyLabel]]) -> List[DeweyLabel]:
    # All candidate nodes: ancestors-or-self of any match.
    candidates: Set[DeweyLabel] = set()
    for labels in label_lists:
        for label in labels:
            candidates.add(label)
            candidates.update(label.ancestors())

    def contains_all(node: DeweyLabel) -> bool:
        return all(
            any(node.is_ancestor_or_self_of(label) for label in labels)
            for labels in label_lists
        )

    lca_matches = sorted(candidate for candidate in candidates if contains_all(candidate))

    elcas: List[DeweyLabel] = []
    for node in lca_matches:
        # Child LCA matches strictly below this node.
        descendants = [other for other in lca_matches if node.is_ancestor_of(other)]
        witness_for_every_keyword = True
        for labels in label_lists:
            has_exclusive_witness = any(
                node.is_ancestor_or_self_of(label)
                and not any(descendant.is_ancestor_or_self_of(label) for descendant in descendants)
                for label in labels
            )
            if not has_exclusive_witness:
                witness_for_every_keyword = False
                break
        if witness_for_every_keyword:
            elcas.append(node)
    elcas.sort()
    return elcas


def tag_repeats_scan(roots: Iterable[XMLNode], tag: str) -> bool:
    """Brute-force repeat test: some element has two or more children tagged ``tag``."""
    for root in roots:
        for node in root.walk():
            same_tag = [child for child in node.children if child.is_element and child.tag == tag]
            if len(same_tag) > 1:
                return True
    return False


def is_entity_node_walk(node: XMLNode, statistics: Optional[CorpusStatistics]) -> bool:
    """XSeek's entity test on a tree node.

    An element is an entity when its tag repeats under one parent somewhere
    in the corpus, or when it has at least two distinct child tags; a leaf
    element never is.
    """
    if not node.is_element or node.is_leaf_element:
        return False
    if statistics is not None and node.tag and statistics.tag_is_repeating(node.tag):
        return True
    child_tags = {child.tag for child in node.element_children()}
    return len(child_tags) >= 2


def infer_return_subtree_walk(
    root: XMLNode,
    match_label: DeweyLabel,
    statistics: Optional[CorpusStatistics] = None,
    max_climb: int = 10,
) -> XMLNode:
    """XSeek's return node, climbing the root-to-match path of the tree.

    The lowest ancestor-or-self entity within ``max_climb`` levels of the
    match; failing that, the highest non-root node of the window (the match
    itself when it is the root).
    """
    path = root.path_to(match_label)
    highest_non_root = path[-1]
    lowest = max(len(path) - 1 - max_climb, 0)
    for depth in reversed(range(lowest, len(path))):
        current = path[depth]
        if is_entity_node_walk(current, statistics):
            return current
        if depth > 0:
            highest_non_root = current
    return highest_non_root
