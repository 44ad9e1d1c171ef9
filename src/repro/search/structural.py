"""Structured queries and the ``slca_struct`` match semantics.

This module turns the structural index (:mod:`repro.structure`) into a user-
visible query capability.  A :class:`StructuredQuery` is a keyword query plus
optional structural constraints:

* ``within`` — a tag path filter.  Every keyword match is re-anchored to its
  innermost enclosing element whose root-to-node tag path *ends with* the
  given path (e.g. ``within=("movie", "cast")`` keeps only matches inside a
  ``cast`` that is a child of a ``movie``, and returns those ``cast``
  elements).  Matches with no such enclosing element are dropped.
* ``axis`` + ``axis_tag`` — an XPath-style axis step applied to each match:
  ``descendant::actor`` returns the ``actor`` elements below each match,
  ``child::actor`` only direct children, ``ancestor::movie`` the nearest
  enclosing ``movie``.  The degenerate ``axis="self"`` keeps the matches
  themselves (useful to force the structural evaluation path in tests).

The ``"slca_struct"`` semantics computes the SLCA matches with
:func:`~repro.search.slca.compute_slca` and then evaluates the constraints on
the pre/post encoding — window-bounded integer interval tests instead of
Dewey label walks.  On a pure keyword query (no constraints) it returns
``compute_slca``'s matches unchanged.  It is a context-aware semantics
(``accepts_context=True``): the engine hands it a
:class:`~repro.search.semantics.MatchContext` carrying the corpus (for its
:class:`~repro.structure.table.StructuralTable`) and the query (for the
constraints).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.errors import QueryError, SearchError
from repro.search.query import KeywordQuery
from repro.search.slca import compute_slca
from repro.storage.inverted_index import Posting
from repro.structure.encoding import DocumentStructure
from repro.structure.table import StructuralTable

if TYPE_CHECKING:  # semantics.py imports this module to build its table
    from repro.search.semantics import MatchContext

__all__ = ["StructuredQuery", "parse_tag_path", "compute_slca_struct", "AXES"]

#: The supported axis steps, in wire-format spelling.
AXES: Tuple[str, ...] = ("self", "child", "descendant", "ancestor")


def parse_tag_path(text: str) -> Tuple[str, ...]:
    """Parse a slash-separated tag path like ``"movie/cast"``.

    Raises
    ------
    QueryError
        If the path is empty or contains an empty step (``"movie//cast"``,
        a leading or trailing slash).  Tag names are matched verbatim against
        element tags — no normalisation, XML tags are case-sensitive.
    """
    steps = text.split("/")
    if not text or any(not step for step in steps):
        raise QueryError(
            f"invalid tag path {text!r}: expected slash-separated non-empty tag names"
        )
    return tuple(steps)


@dataclass(frozen=True)
class StructuredQuery(KeywordQuery):
    """A keyword query with structural constraints.

    Attributes
    ----------
    within:
        Tag-path filter (possibly empty = no filter); see the module
        docstring.  The path is a *suffix* of the root-to-node tag path.
    axis:
        One of :data:`AXES`, or ``None`` for no axis step.
    axis_tag:
        The tag name the axis step selects; required for ``child``,
        ``descendant`` and ``ancestor``, forbidden for ``self``.
    """

    within: Tuple[str, ...] = ()
    axis: Optional[str] = None
    axis_tag: Optional[str] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if any(not step for step in self.within):
            raise QueryError(f"within path {self.within!r} contains an empty tag name")
        if self.axis is not None:
            if self.axis not in AXES:
                raise QueryError(
                    f"unknown axis {self.axis!r}; expected one of {', '.join(AXES)}"
                )
            if self.axis == "self":
                if self.axis_tag is not None:
                    raise QueryError("axis 'self' does not take an axis tag")
            elif not self.axis_tag:
                raise QueryError(f"axis {self.axis!r} requires an axis tag")
        elif self.axis_tag is not None:
            raise QueryError("axis_tag given without an axis")

    @classmethod
    def from_parts(
        cls,
        query_text: str,
        *,
        within: Sequence[str] = (),
        axis: Optional[str] = None,
        axis_tag: Optional[str] = None,
    ) -> "StructuredQuery":
        """Build from a raw keyword string plus constraint parts."""
        base = KeywordQuery.parse(query_text)
        return cls(
            keywords=base.keywords,
            raw=base.raw,
            within=tuple(within),
            axis=axis,
            axis_tag=axis_tag,
        )

    @property
    def has_constraints(self) -> bool:
        """Whether any structural constraint is set (else = plain keywords)."""
        return bool(self.within) or self.axis is not None

    @property
    def cache_key(self) -> Tuple[str, ...]:
        """Keyword cache key extended with constraint markers.

        The ``@``-prefixed markers cannot collide with keywords: the
        tokenizer only emits lowercase alphanumeric tokens.  A constraint-free
        structured query shares its key with the equivalent plain query, so
        the engine cache treats them as the same computation (they are).
        """
        key = list(super().cache_key)
        for step in self.within:
            key.append(f"@within:{step}")
        if self.axis is not None:
            key.append(f"@axis:{self.axis}:{self.axis_tag or ''}")
        return tuple(key)


# --------------------------------------------------------------------- #
# The slca_struct semantics
# --------------------------------------------------------------------- #
def compute_slca_struct(
    keyword_postings: Sequence[Sequence[Posting]], context: MatchContext
) -> List[Posting]:
    """SLCA matches filtered through the query's structural constraints.

    Contract mirrors :func:`~repro.search.slca.compute_slca` (conjunctive
    semantics, postings sorted in global document order); without
    constraints the output *is* ``compute_slca``'s.  Constraints are applied
    per document on the pre numbers of the SLCA matches: first the
    ``within`` re-anchoring, then the axis step.

    Raises
    ------
    SearchError
        If the corpus in ``context`` carries no structural table (a corpus
        type that never wired one up).
    """
    lists = list(keyword_postings)
    if not lists or any(not postings for postings in lists):
        return []
    table = getattr(context.corpus, "structure", None)
    if table is None:
        raise SearchError(
            "semantics 'slca_struct' needs a corpus with a structural table "
            f"(corpus {getattr(context.corpus, 'name', context.corpus)!r} has none)"
        )
    query = context.query
    slca = compute_slca(lists)
    if not isinstance(query, StructuredQuery) or not query.has_constraints:
        return slca

    matches: List[Posting] = []
    for doc_id, postings in groupby(slca, key=lambda posting: posting.doc_id):
        structure = table.get(doc_id)
        result = [structure.pre_of(posting.label) for posting in postings]
        if query.within:
            result = _apply_within(structure, table, result, query.within)
        if query.axis is not None:
            result = _apply_axis(structure, table, result, query.axis, query.axis_tag)
        matches.extend(
            Posting(doc_id=doc_id, label=structure.labels[pre]) for pre in result
        )
    return matches


def _apply_within(
    structure: DocumentStructure,
    table: StructuralTable,
    matches: List[int],
    within: Tuple[str, ...],
) -> List[int]:
    """Re-anchor each match to its innermost enclosing ``within`` path element."""
    path_tag_ids = []
    for step in within:
        tag_id = table.tags.lookup(step)
        if tag_id is None:
            return []  # the tag occurs nowhere in the (indexed) corpus
        path_tag_ids.append(tag_id)
    anchored = set()
    for pre in matches:
        anchor = structure.anchor_for(pre, path_tag_ids)
        if anchor is not None:
            anchored.add(anchor)
    return sorted(anchored)


def _apply_axis(
    structure: DocumentStructure,
    table: StructuralTable,
    matches: List[int],
    axis: str,
    axis_tag: Optional[str],
) -> List[int]:
    """Apply one axis step to every match, returning the union in pre order."""
    if axis == "self":
        return matches
    assert axis_tag is not None  # guaranteed by StructuredQuery validation
    tag_id = table.tags.lookup(axis_tag)
    if tag_id is None:
        return []
    selected = set()
    for pre in matches:
        if axis == "descendant":
            selected.update(structure.descendants_with_tag(pre, tag_id))
        elif axis == "child":
            selected.update(structure.children_with_tag(pre, tag_id))
        else:  # ancestor
            ancestor = structure.nearest_ancestor_with_tag(pre, tag_id)
            if ancestor is not None:
                selected.add(ancestor)
    return sorted(selected)
