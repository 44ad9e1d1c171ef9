"""repro — a reproduction of XSACT (VLDB 2010).

XSACT ("A Comparison Tool for Structured Search Results", Liu et al., VLDB 2010
demo) helps users *compare* keyword-search results over structured data: for a
set of selected results it generates one Differentiation Feature Set (DFS) per
result — a small, faithful selection of features chosen so that, jointly, the
DFSs maximise the degree of differentiation (DoD) between the results — and
lays them out as a comparison table.

This package implements the complete system described by the paper:

* an XML data model, storage layer and keyword search engine (the XSeek
  substrate XSACT runs on),
* the result processor (entity identification and feature extraction),
* the DFS construction algorithms (single-swap and multi-swap local
  optimality) plus baselines,
* the comparison-table front end and an end-to-end pipeline,
* synthetic substitutes for the paper's datasets and the Figure 4 evaluation
  harness.

Quickstart
----------
>>> from repro import Xsact, generate_product_reviews_corpus
>>> corpus = generate_product_reviews_corpus()
>>> xsact = Xsact(corpus)
>>> outcome = xsact.search_and_compare("tomtom gps", top=2)
>>> print(outcome.to_text())  # doctest: +SKIP
"""

from repro.comparison import ComparisonOutcome, ComparisonTable, Xsact
from repro.core import (
    ALGORITHMS,
    DFS,
    DFSConfig,
    DFSGenerator,
    DFSProblem,
    DFSSet,
    GenerationOutcome,
    exhaustive_dfs,
    greedy_dfs,
    multi_swap_dfs,
    pairwise_dod,
    random_dfs,
    single_swap_dfs,
    top_significance_dfs,
    total_dod,
)
from repro.datasets import (
    ImdbConfig,
    OutdoorRetailerConfig,
    ProductReviewsConfig,
    generate_imdb_corpus,
    generate_outdoor_corpus,
    generate_product_reviews_corpus,
)
from repro.errors import ReproError
from repro.features import Feature, FeatureExtractor, FeatureStatistics, FeatureType, ResultFeatures
from repro.search import (
    KeywordQuery,
    SearchEngine,
    SearchResult,
    SearchResultSet,
    available_semantics,
)
from repro.service import (
    CompareRequest,
    CompareResponse,
    ResultItem,
    SearchRequest,
    SearchResponse,
    SearchService,
)
from repro.snippets import SnippetGenerator, snippet_dod
from repro.storage import Corpus, DocumentStore
from repro.xmlmodel import XMLNode, parse_xml

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # Pipeline / front end
    "Xsact",
    "ComparisonOutcome",
    "ComparisonTable",
    # Core DFS machinery
    "DFSConfig",
    "DFS",
    "DFSSet",
    "DFSProblem",
    "DFSGenerator",
    "GenerationOutcome",
    "ALGORITHMS",
    "total_dod",
    "pairwise_dod",
    "top_significance_dfs",
    "random_dfs",
    "greedy_dfs",
    "single_swap_dfs",
    "multi_swap_dfs",
    "exhaustive_dfs",
    # Features
    "Feature",
    "FeatureType",
    "FeatureStatistics",
    "ResultFeatures",
    "FeatureExtractor",
    # Search substrate
    "KeywordQuery",
    "SearchEngine",
    "SearchResult",
    "SearchResultSet",
    "available_semantics",
    # Service layer
    "SearchService",
    "SearchRequest",
    "SearchResponse",
    "ResultItem",
    "CompareRequest",
    "CompareResponse",
    # Storage / XML substrate
    "Corpus",
    "DocumentStore",
    "XMLNode",
    "parse_xml",
    # Baselines
    "SnippetGenerator",
    "snippet_dod",
    # Datasets
    "ProductReviewsConfig",
    "generate_product_reviews_corpus",
    "OutdoorRetailerConfig",
    "generate_outdoor_corpus",
    "ImdbConfig",
    "generate_imdb_corpus",
    # Errors
    "ReproError",
]
