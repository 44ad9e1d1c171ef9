"""Brute-force reference implementations for the differential tests.

The SLCA/ELCA oracles follow the definitions directly — enumerate every
ancestor-or-self candidate of the keyword occurrences and re-check
containment per keyword — so they are quadratic and only suitable for small
inputs, but they share no logic with the stack merge in
:mod:`repro.search.linear_merge` that :func:`~repro.search.slca.compute_slca`
and :func:`~repro.search.elca.compute_elca` run.  :func:`tag_repeats_scan`
re-reads whole trees for the repeating-tag signal that
:class:`~repro.storage.statistics.CorpusStatistics` keeps incrementally.
"""

from typing import Iterable, List, Sequence, Set

from repro.search.linear_merge import collect_per_document
from repro.storage.inverted_index import Posting
from repro.xmlmodel.dewey import DeweyLabel
from repro.xmlmodel.node import XMLNode


def compute_slca_scan(keyword_postings: Sequence[Sequence[Posting]]) -> List[Posting]:
    """Brute-force SLCA.

    A node is an LCA match iff for every keyword list some posting lies in its
    subtree; the SLCAs are the LCA matches with no LCA-match descendant.
    """
    lists = [list(postings) for postings in keyword_postings]
    if not lists or any(not postings for postings in lists):
        return []

    # Candidate LCAs: every ancestor-or-self of every posting of the first list.
    candidates: set = set()
    for posting in lists[0]:
        candidates.add(posting)
        for ancestor in posting.label.ancestors():
            candidates.add(Posting(doc_id=posting.doc_id, label=ancestor))

    def contains_keyword(candidate: Posting, postings: List[Posting]) -> bool:
        return any(
            posting.doc_id == candidate.doc_id
            and candidate.label.is_ancestor_or_self_of(posting.label)
            for posting in postings
        )

    lca_matches = [
        candidate
        for candidate in candidates
        if all(contains_keyword(candidate, postings) for postings in lists)
    ]
    return _remove_ancestors(lca_matches)


def _remove_ancestors(postings: List[Posting]) -> List[Posting]:
    """Sort, deduplicate and drop postings that are proper ancestors of another.

    In document order an ancestor immediately precedes its descendants, so a
    single linear pass suffices.
    """
    result: List[Posting] = []
    for posting in sorted(set(postings)):
        while result and _is_ancestor_posting(result[-1], posting):
            result.pop()
        result.append(posting)
    return result


def _is_ancestor_posting(a: Posting, b: Posting) -> bool:
    return a.doc_id == b.doc_id and a.label.is_ancestor_of(b.label)


def compute_elca_scan(keyword_postings: Sequence[Sequence[Posting]]) -> List[Posting]:
    """Brute-force ELCA.

    Start from all LCA candidates (ancestors-or-self of keyword matches), and
    keep a candidate if, for every keyword, it has a witness occurrence that
    is not inside any *deeper* LCA candidate that itself contains all keywords.
    """
    return collect_per_document(keyword_postings, _elca_single_document)


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
