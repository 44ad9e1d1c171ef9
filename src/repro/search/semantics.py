"""The fixed table of match semantics the engine and the service serve.

A *match semantics* maps one posting list per query keyword to the list of
match postings,

    fn(keyword_postings: Sequence[Sequence[Posting]]) -> List[Posting]

and the table names the three this system implements: ``"slca"`` and
``"elca"``, the classic XML keyword-search semantics, and ``"slca_struct"``,
SLCA filtered through a :class:`~repro.search.structural.StructuredQuery`'s
structural constraints.  The service exposes the name per request, and
:func:`available_semantics` lists the names in ``/stats``.

A semantics that needs more than the posting lists — ``slca_struct``
consults the corpus's structural table and the query's constraints — is
marked ``accepts_context=True`` and receives a :class:`MatchContext` as a
second argument:

    fn(keyword_postings, context: MatchContext) -> List[Posting]

The engine resolves the entry (not just the function) per query through
:func:`get_registration` and passes the context only to semantics that
declared the appetite.  Every function is pure and thread-safe (the service
evaluates queries concurrently), never mutates the posting lists it is given
(the engine hands out zero-copy views of the index), and returns postings
sorted in global document order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.errors import SearchError
from repro.search.elca import compute_elca
from repro.search.query import KeywordQuery
from repro.search.slca import compute_slca
from repro.search.structural import compute_slca_struct
from repro.storage.corpus import Corpus
from repro.storage.inverted_index import Posting

__all__ = [
    "MatchSemantics",
    "MatchContext",
    "SemanticsRegistration",
    "get_registration",
    "available_semantics",
]

MatchSemantics = Callable[..., List[Posting]]


@dataclass(frozen=True)
class MatchContext:
    """Evaluation context handed to ``accepts_context`` semantics.

    Attributes
    ----------
    corpus:
        The corpus under evaluation.  Context-aware semantics may rely on
        ``corpus.structure`` (the
        :class:`~repro.structure.table.StructuralTable`), ``corpus.index``
        and ``corpus.statistics``.
    query:
        The query being evaluated; a
        :class:`~repro.search.structural.StructuredQuery` carries axis
        constraints and tag-path filters on top of the keywords.
    """

    corpus: Corpus
    query: KeywordQuery


@dataclass(frozen=True)
class SemanticsRegistration:
    """One table entry: the match function plus its calling convention."""

    name: str
    fn: MatchSemantics
    accepts_context: bool = False


_SEMANTICS: Dict[str, SemanticsRegistration] = {
    "slca": SemanticsRegistration("slca", compute_slca),
    "elca": SemanticsRegistration("elca", compute_elca),
    "slca_struct": SemanticsRegistration(
        "slca_struct", compute_slca_struct, accepts_context=True
    ),
}


def get_registration(name: str) -> SemanticsRegistration:
    """Resolve a semantics name to its table entry.

    Raises
    ------
    SearchError
        If ``name`` is not in the table.  The message lists the available
        names, so a typo in an HTTP request gets a self-explaining 400
        instead of a bare "unknown" error.
    """
    registration = _SEMANTICS.get(name)
    if registration is None:
        raise SearchError(
            f"unknown result semantics: {name!r}; available: {available_semantics()}"
        )
    return registration


def available_semantics() -> List[str]:
    """Names of every semantics, sorted."""
    return sorted(_SEMANTICS)
