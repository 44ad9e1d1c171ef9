"""The fixed table of match semantics the engine and the service serve.

A *match semantics* maps the runs of every query keyword (per document, the
pre numbers of the elements that post it) and the corpus's structural table
to the match nodes,

    fn(keyword_runs: Sequence[Runs], table: StructuralTable) -> List[Match]

where a :data:`~repro.search.linear_merge.Match` is a ``(doc_id, pre)``
pair, and the table names the three this system implements: ``"slca"`` and
``"elca"``, the classic XML keyword-search semantics, and ``"slca_struct"``,
SLCA filtered through a :class:`~repro.search.structural.StructuredQuery`'s
structural constraints.  The service exposes the name per request, and
:func:`available_semantics` lists the names in ``/stats``.

A semantics that evaluates the query's structural constraints —
``slca_struct`` — is marked ``structural=True`` and receives the query as a
third argument:

    fn(keyword_runs, table, query: KeywordQuery) -> List[Match]

The engine resolves the entry (not just the function) per query through
:func:`get_registration`, passes the query only to structural semantics and
refuses a constrained query for the others.  Every function is pure and
thread-safe (the service evaluates queries concurrently), reads the runs
through the index's read-only views, and returns matches sorted in global
document order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.errors import SearchError
from repro.search.elca import compute_elca
from repro.search.linear_merge import Match
from repro.search.slca import compute_slca
from repro.search.structural import compute_slca_struct

__all__ = [
    "MatchSemantics",
    "SemanticsRegistration",
    "get_registration",
    "available_semantics",
]

MatchSemantics = Callable[..., List[Match]]


@dataclass(frozen=True)
class SemanticsRegistration:
    """One table entry: the match function plus its calling convention."""

    name: str
    fn: MatchSemantics
    structural: bool = False


_SEMANTICS: Dict[str, SemanticsRegistration] = {
    "slca": SemanticsRegistration("slca", compute_slca),
    "elca": SemanticsRegistration("elca", compute_elca),
    "slca_struct": SemanticsRegistration("slca_struct", compute_slca_struct, structural=True),
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
