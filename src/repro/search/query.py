"""Keyword query model.

A query is an ordered list of keywords; the engine applies conjunctive
("AND") semantics, as XML keyword search systems such as XSeek do.  The query
object also remembers the raw user text so that reports and the comparison
table UI can echo it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.errors import QueryError
from repro.storage.tokenizer import tokenize, tokenize_many

__all__ = ["KeywordQuery"]


def _flatten_and_dedupe(keywords: Sequence[str]) -> List[str]:
    """Tokenise each keyword and deduplicate, keeping first occurrences.

    The single source of truth for keyword normalisation: construction via
    :meth:`KeywordQuery.of` and the cache identity in
    :attr:`KeywordQuery.normalized_keywords` must always agree.  Uses the
    batch tokeniser: one regex pass over all keywords, order preserved.
    """
    return list(dict.fromkeys(tokenize_many(keywords)))


@dataclass(frozen=True)
class KeywordQuery:
    """A parsed keyword query.

    Attributes
    ----------
    keywords:
        The tokenised keywords, in the order given by the user, duplicates
        removed (keeping the first occurrence).
    raw:
        The original query string (or a reconstruction when built from a list).
    """

    keywords: Tuple[str, ...]
    raw: str = ""

    def __post_init__(self) -> None:
        if not self.keywords:
            raise QueryError("a keyword query needs at least one keyword")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def parse(cls, text: str) -> "KeywordQuery":
        """Parse a raw query string, e.g. ``"TomTom, GPS"``.

        Commas and whitespace both separate keywords; tokens are lowercased
        and stopwords removed by the shared tokenizer.
        """
        tokens = tokenize(text)
        deduplicated = list(dict.fromkeys(tokens))
        if not deduplicated:
            raise QueryError(f"query {text!r} contains no searchable keywords")
        return cls(keywords=tuple(deduplicated), raw=text)

    @classmethod
    def of(cls, keywords: Sequence[str]) -> "KeywordQuery":
        """Build a query from an explicit keyword sequence."""
        deduplicated = _flatten_and_dedupe(keywords)
        if not deduplicated:
            raise QueryError("keyword list contains no searchable keywords")
        return cls(keywords=tuple(deduplicated), raw=" ".join(keywords))

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    @property
    def normalized_keywords(self) -> Tuple[str, ...]:
        """The tokenised, deduplicated keywords regardless of construction.

        Queries built via :meth:`parse` or :meth:`of` are already normalised,
        so this usually just returns :attr:`keywords`; direct construction
        with un-tokenised keywords is normalised here.  Every query-evaluation
        stage (posting lookup, ranking, caching) works off this view, so two
        queries with equal normalised keywords evaluate identically.
        """
        cached = self.__dict__.get("_normalized_keywords")
        if cached is None:
            cached = tuple(_flatten_and_dedupe(self.keywords))
            # Memoised because ranking consults this once per scored result;
            # object.__setattr__ sidesteps the frozen-dataclass guard and is
            # safe as the value is a pure function of the immutable keywords.
            object.__setattr__(self, "_normalized_keywords", cached)
        return cached

    @property
    def cache_key(self) -> Tuple[str, ...]:
        """Canonical identity of the query, used by the engine's result cache.

        Two queries that tokenise to the same keyword *set* — regardless of
        raw spelling, separators, case, stopwords, duplicates or keyword
        order — share a cache key.  Order-insensitivity is safe because match
        computation and the TF-IDF sum are both keyword-order independent, so
        permuted spellings provably return identical result lists.
        """
        return tuple(sorted(self.normalized_keywords))

    # ------------------------------------------------------------------ #
    # Protocol
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[str]:
        return iter(self.keywords)

    def __len__(self) -> int:
        return len(self.keywords)

    def __str__(self) -> str:
        return self.raw or " ".join(self.keywords)
