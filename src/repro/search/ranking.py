"""TF-IDF ranking of search results.

XSACT itself is agnostic to ranking — the user picks which results to compare —
but the engine still orders results so that result ids (R1, R2, ...) are stable
and the "top n results" experiments are well defined.  The score is a standard
TF-IDF sum over the query keywords, computed against the result subtree, with a
mild size normalisation so that gigantic subtrees do not win on raw term count
alone.

The per-query work is resolved once, up front: :func:`query_idf_weights` turns
the normalised keywords into a keyword→idf table (one index lookup per
keyword per *query*, not per result).  A keyword's term frequency in a result
is the number of its posting nodes — read from the inverted index's
per-document offset map, one slice per (keyword, document) — that fall inside
the returned subtree (descendant-or-self of the return label).  A node posts
once per term however often the term repeats in its texts, so that is the
multiplicity scored.  The size normaliser is the return node's element
count, ``end - pre`` in the document's structural table.  Ranking therefore
reads the index and the table only: no node text is re-tokenised and no
document tree is touched.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, NamedTuple, Tuple

from repro.search.query import KeywordQuery
from repro.storage.inverted_index import InvertedIndex
from repro.xmlmodel.dewey import DeweyLabel

__all__ = ["RankedResult", "query_idf_weights", "rank_results"]

#: A result to rank: document id, match label, return label, and the return
#: node's element count.
Candidate = Tuple[str, DeweyLabel, DeweyLabel, int]


class RankedResult(NamedTuple):
    """A ranked result: where its subtree lives in the corpus, and its score."""

    doc_id: str
    match_label: DeweyLabel
    return_label: DeweyLabel
    score: float


def query_idf_weights(query: KeywordQuery, index: InvertedIndex) -> Dict[str, float]:
    """Resolve a query's keywords to their idf weights, once per query.

    ``idf`` is computed from the inverted index's document frequencies; the
    returned mapping is the entire query-dependent part of the score, so
    ranking a result list performs exactly one index lookup per keyword.
    """
    document_count = max(index.documents_indexed, 1)
    weights: Dict[str, float] = {}
    for keyword in query.normalized_keywords:
        document_frequency = index.document_frequency(keyword)
        weights[keyword] = (
            math.log((document_count + 1) / (document_frequency + 1)) + 1.0
        )
    return weights


def _score_from_postings(
    doc_id: str,
    return_label: DeweyLabel,
    element_count: int,
    weights: Dict[str, float],
    index: InvertedIndex,
) -> float:
    """Score a result from the index's posting spans, without re-tokenising.

    A keyword's term frequency is the number of its posting nodes inside the
    returned subtree, i.e. postings of ``(keyword, doc)`` whose label is a
    descendant-or-self of the result's return label.  The per-document offset
    map makes the posting span one dictionary lookup plus a slice, so scoring
    cost tracks the number of *matching* nodes, not subtree size.
    """
    score = 0.0
    for keyword, idf in weights.items():
        term_frequency = 0
        for posting in index.postings_for_document(keyword, doc_id):
            if return_label.is_ancestor_or_self_of(posting.label):
                term_frequency += 1
        if term_frequency:
            score += (1.0 + math.log(term_frequency)) * idf
    normaliser = math.log(2 + element_count)
    return score / normaliser if normaliser else score


def rank_results(
    candidates: Iterable[Candidate],
    query: KeywordQuery,
    index: InvertedIndex,
) -> List[RankedResult]:
    """Score the candidates and return them sorted by descending score.

    Each candidate is ``(doc_id, match_label, return_label, element_count)``.
    Document and term frequencies both come from ``index`` (the corpus's
    inverted index).  Ties are broken by (document id, match label) so the
    ordering is total and deterministic across runs.
    """
    weights = query_idf_weights(query, index)
    ranked = [
        RankedResult(
            doc_id,
            match_label,
            return_label,
            _score_from_postings(doc_id, return_label, element_count, weights, index),
        )
        for doc_id, match_label, return_label, element_count in candidates
    ]
    ranked.sort(key=lambda result: (-result.score, result.doc_id, result.match_label))
    return ranked
