"""Search result model.

A search result is the subtree that the return-node inference decided to show
for one SLCA/ELCA match, together with enough provenance (document id, the
match node's Dewey label, the matched keywords) for downstream modules — the
entity identifier, the feature extractor and the comparison table — to do
their work and for the UI to link back to the source document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence

from repro.errors import ResultNotFoundError, SearchError
from repro.search.query import KeywordQuery
from repro.xmlmodel.dewey import DeweyLabel
from repro.xmlmodel.node import XMLNode

__all__ = ["SearchResult", "SearchResultSet"]


@dataclass
class SearchResult:
    """One result of a keyword query.

    Attributes
    ----------
    result_id:
        Stable identifier, unique within a result set (``"R1"``, ``"R2"``, ...).
    doc_id:
        Identifier of the document the result was extracted from.
    match_label:
        Dewey label of the SLCA/ELCA match node inside the source document.
    return_label:
        Dewey label of the inferred return node (root of the displayed subtree).
    subtree:
        The return node inside the stored document, shared with the corpus:
        read it, and edit only a ``subtree.copy()``.
    score:
        Ranking score (higher is better).
    title:
        A short human-readable name for the result (e.g. the product name),
        filled in by the engine for display purposes.
    """

    result_id: str
    doc_id: str
    match_label: DeweyLabel
    return_label: DeweyLabel
    subtree: XMLNode
    score: float = 0.0
    title: str = ""

    def root_tag(self) -> str:
        """Tag of the result's root element."""
        return self.subtree.tag or ""

    def __repr__(self) -> str:
        return (
            f"SearchResult(id={self.result_id!r}, doc={self.doc_id!r}, "
            f"root=<{self.root_tag()}>, score={self.score:.3f})"
        )


@dataclass
class SearchResultSet:
    """The ordered list of results returned for one query."""

    query: KeywordQuery
    results: List[SearchResult] = field(default_factory=list)

    def __iter__(self) -> Iterator[SearchResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> SearchResult:
        return self.results[index]

    def top(self, count: int) -> List[SearchResult]:
        """Return the first ``count`` results.

        Raises
        ------
        SearchError
            If ``count`` is negative — ``results[:-n]`` would silently drop
            results from the *end* instead of selecting from the top.
        """
        if count < 0:
            raise SearchError(f"top() count must be non-negative, got {count}")
        return self.results[:count]

    def by_id(self, result_id: str) -> SearchResult:
        """Return the result with the given id.

        Raises
        ------
        ResultNotFoundError
            If no result carries that id (also catchable as
            :class:`KeyError`).
        """
        for result in self.results:
            if result.result_id == result_id:
                return result
        raise ResultNotFoundError(result_id)

    def select(self, result_ids: Sequence[str]) -> List[SearchResult]:
        """Return the results with the given ids, in the requested order.

        This mirrors the demo UI interaction where the user ticks checkboxes
        next to the results they want to compare.
        """
        return [self.by_id(result_id) for result_id in result_ids]

    def titles(self) -> List[str]:
        """Return the display titles of all results."""
        return [result.title for result in self.results]
