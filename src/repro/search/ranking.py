"""TF-IDF ranking of search results.

XSACT itself is agnostic to ranking — the user picks which results to compare —
but the engine still orders results so that result ids (R1, R2, ...) are stable
and the "top n results" experiments are well defined.  The score is a standard
TF-IDF sum over the query keywords, computed against the result subtree, with a
mild size normalisation so that gigantic subtrees do not win on raw term count
alone.

Ranking reads only the runs the engine already fetched for matching: a
keyword's document frequency is the number of documents in its runs, and its
term frequency in a result is the number of its pre numbers in the result's
document that fall inside the returned subtree's window
``[return_pre, return_end)`` of the structural table.  A node posts once per
term however often the term repeats in its texts, so that is the multiplicity
scored.  The size normaliser is the return node's element count,
``return_end - return_pre``.  No node text is re-tokenised and no document
tree is touched.
"""

from __future__ import annotations

import math
from typing import Iterable, List, NamedTuple, Sequence, Tuple

from repro.storage.inverted_index import Runs

__all__ = ["Candidate", "RankedResult", "rank_results"]

#: A result to rank: document id, match pre number, return pre number, and
#: the end of the return node's window.
Candidate = Tuple[str, int, int, int]


class RankedResult(NamedTuple):
    """A ranked result: where its subtree lives in the corpus, and its score."""

    doc_id: str
    match_pre: int
    return_pre: int
    score: float


def rank_results(
    candidates: Iterable[Candidate],
    keyword_runs: Sequence[Runs],
    document_count: int,
) -> List[RankedResult]:
    """Score the candidates and return them sorted by descending score.

    Each candidate is ``(doc_id, match_pre, return_pre, return_end)``;
    ``keyword_runs`` holds one keyword's runs per query keyword, and
    ``document_count`` is the number of indexed documents the inverse
    document frequencies are taken over.  Ties are broken by (document id,
    match pre number), which is document order, so the ordering is total and
    deterministic across runs.
    """
    corpus_size = max(document_count, 1)
    weighted = [
        (runs, math.log((corpus_size + 1) / (len(runs) + 1)) + 1.0) for runs in keyword_runs
    ]
    ranked: List[RankedResult] = []
    for doc_id, match_pre, return_pre, return_end in candidates:
        score = 0.0
        for runs, idf in weighted:
            term_frequency = sum(
                1 for pre in runs.get(doc_id, ()) if return_pre <= pre < return_end
            )
            if term_frequency:
                score += (1.0 + math.log(term_frequency)) * idf
        normaliser = math.log(2 + return_end - return_pre)
        ranked.append(RankedResult(doc_id, match_pre, return_pre, score / normaliser))
    ranked.sort(key=lambda result: (-result.score, result.doc_id, result.match_pre))
    return ranked
