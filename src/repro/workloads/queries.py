"""Workload definitions: named keyword queries per dataset.

The paper does not list the text of QM1-QM8; following the substitution policy
they are defined here as eight keyword queries over the synthetic IMDB corpus
that mirror the character of typical exploratory movie searches (a genre plus a
plot keyword), each returning a healthy handful of results.  The product and
outdoor workloads reproduce the queries the demo walkthrough names explicitly
("TomTom, GPS" and "men, jackets") plus companions in the same spirit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.search.query import KeywordQuery
from repro.storage.corpus import Corpus

__all__ = [
    "QuerySpec",
    "Workload",
    "IMDB_QUERIES",
    "PRODUCT_QUERIES",
    "OUTDOOR_QUERIES",
    "imdb_workload",
    "product_reviews_workload",
    "outdoor_workload",
]


@dataclass(frozen=True)
class QuerySpec:
    """One named query of a workload.

    Attributes
    ----------
    name:
        Short identifier used on figure axes (``"QM1"``, ...).
    text:
        The raw keyword query text.
    max_results:
        Optional cap on how many results of the query are compared (``None``
        compares all results, as the Figure 4 experiment does).
    """

    name: str
    text: str
    max_results: Optional[int] = None

    def query(self) -> KeywordQuery:
        """Parse the query text."""
        return KeywordQuery.parse(self.text)


@dataclass
class Workload:
    """A named set of queries bound to a corpus factory."""

    name: str
    queries: List[QuerySpec]
    corpus_factory: Callable[[], Corpus]

    def __post_init__(self) -> None:
        if not self.queries:
            raise WorkloadError(f"workload {self.name!r} has no queries")
        names = [spec.name for spec in self.queries]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate query names in workload {self.name!r}: {names}")

    def query_names(self) -> List[str]:
        """The query names, in workload order."""
        return [spec.name for spec in self.queries]

    def build_corpus(self) -> Corpus:
        """Materialise the corpus this workload runs against."""
        return self.corpus_factory()


IMDB_QUERIES: Tuple[QuerySpec, ...] = (
    QuerySpec("QM1", "action revenge", max_results=8),
    QuerySpec("QM2", "comedy family", max_results=8),
    QuerySpec("QM3", "drama war", max_results=8),
    QuerySpec("QM4", "thriller undercover", max_results=8),
    QuerySpec("QM5", "romance betrayal", max_results=8),
    QuerySpec("QM6", "horror monster", max_results=8),
    QuerySpec("QM7", "science fiction space", max_results=8),
    QuerySpec("QM8", "western redemption", max_results=8),
)
"""The eight IMDB queries of Figure 4 (QM1-QM8).

The synthetic corpus returns more matches per query than the paper's IMDB
extract did, so each query compares its top eight results; this keeps the
number of result pairs (and therefore the DoD magnitude) in the same regime as
Figure 4 while still comparing "all" results a user would realistically select.
"""


PRODUCT_QUERIES: Tuple[QuerySpec, ...] = (
    QuerySpec("QP1", "tomtom gps", max_results=4),
    QuerySpec("QP2", "garmin gps", max_results=4),
    QuerySpec("QP3", "samsung mobile phone", max_results=4),
    QuerySpec("QP4", "canon digital camera", max_results=4),
)
"""Product Reviews queries; QP1 is the paper's running example {TomTom, GPS}."""


OUTDOOR_QUERIES: Tuple[QuerySpec, ...] = (
    QuerySpec("QR1", "men jackets", max_results=4),
    QuerySpec("QR2", "women footwear", max_results=4),
    QuerySpec("QR3", "mountain bike", max_results=4),
)
"""Outdoor Retailer queries; QR1 is the demo's "men, jackets" walkthrough."""


def imdb_workload(corpus_factory: Optional[Callable[[], Corpus]] = None) -> Workload:
    """The Figure 4 workload: QM1-QM8 over the IMDB corpus."""
    from repro.datasets.imdb import generate_imdb_corpus

    return Workload(
        name="imdb",
        queries=list(IMDB_QUERIES),
        corpus_factory=corpus_factory or generate_imdb_corpus,
    )


def product_reviews_workload(corpus_factory: Optional[Callable[[], Corpus]] = None) -> Workload:
    """The Product Reviews workload (demo scenario E3/E4)."""
    from repro.datasets.product_reviews import generate_product_reviews_corpus

    return Workload(
        name="product_reviews",
        queries=list(PRODUCT_QUERIES),
        corpus_factory=corpus_factory or generate_product_reviews_corpus,
    )


def outdoor_workload(corpus_factory: Optional[Callable[[], Corpus]] = None) -> Workload:
    """The Outdoor Retailer workload (demo scenario E5)."""
    from repro.datasets.outdoor_retailer import generate_outdoor_corpus

    return Workload(
        name="outdoor_retailer",
        queries=list(OUTDOOR_QUERIES),
        corpus_factory=corpus_factory or generate_outdoor_corpus,
    )
