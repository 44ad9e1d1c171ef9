"""Shared fixtures for the test suite.

The dataset fixtures use deliberately small configurations so the whole suite
stays fast; the full-size defaults are exercised by the benchmark harness.
All fixtures are session-scoped because the corpora are immutable once built.
"""

from __future__ import annotations

import pytest

from repro.core.config import DFSConfig
from repro.datasets.imdb import ImdbConfig, generate_imdb_corpus
from repro.datasets.outdoor_retailer import OutdoorRetailerConfig, generate_outdoor_corpus
from repro.datasets.product_reviews import ProductReviewsConfig, generate_product_reviews_corpus
from repro.experiments.instances import micro_instance
from repro.features.extractor import FeatureExtractor
from repro.search.engine import SearchEngine
from repro.xmlmodel.builder import TreeBuilder
from repro.xmlmodel.parser import parse_xml


PRODUCT_EXAMPLE_XML = """
<product>
  <name>TomTom Go 630 Portable GPS</name>
  <brand>TomTom</brand>
  <category>GPS</category>
  <rating>4.2</rating>
  <reviews>
    <review>
      <reviewer>
        <reviewer_name>Alex</reviewer_name>
        <location>Phoenix</location>
      </reviewer>
      <review_rating>5</review_rating>
      <pros>
        <compact>yes</compact>
        <easy_to_read>yes</easy_to_read>
      </pros>
      <best_uses>
        <auto>yes</auto>
      </best_uses>
    </review>
    <review>
      <reviewer>
        <reviewer_name>Jordan</reviewer_name>
        <location>Seattle</location>
      </reviewer>
      <review_rating>4</review_rating>
      <pros>
        <easy_to_read>yes</easy_to_read>
        <large_screen>yes</large_screen>
      </pros>
      <best_uses>
        <auto>yes</auto>
      </best_uses>
    </review>
    <review>
      <reviewer>
        <reviewer_name>Taylor</reviewer_name>
        <location>Austin</location>
      </reviewer>
      <review_rating>3</review_rating>
      <pros>
        <compact>yes</compact>
      </pros>
      <cons>
        <short_battery_life>yes</short_battery_life>
      </cons>
    </review>
  </reviews>
</product>
"""


@pytest.fixture(scope="session")
def product_example_tree():
    """A hand-written product tree shaped like Figure 1 of the paper."""
    return parse_xml(PRODUCT_EXAMPLE_XML)


@pytest.fixture(scope="session")
def small_product_corpus():
    """A small Product Reviews corpus (fast to generate and search)."""
    config = ProductReviewsConfig(products_per_category=3, min_reviews=5, max_reviews=25, seed=11)
    return generate_product_reviews_corpus(config)


@pytest.fixture(scope="session")
def small_outdoor_corpus():
    """A small Outdoor Retailer corpus."""
    config = OutdoorRetailerConfig(products_per_brand=20, seed=5)
    return generate_outdoor_corpus(config)


@pytest.fixture(scope="session")
def small_imdb_corpus():
    """A small IMDB corpus."""
    config = ImdbConfig(num_movies=120, min_cast=3, max_cast=8, max_awards=5, seed=7)
    return generate_imdb_corpus(config)


@pytest.fixture(scope="session")
def product_engine(small_product_corpus):
    """A search engine over the small product corpus."""
    return SearchEngine(small_product_corpus)


@pytest.fixture(scope="session")
def product_extractor(small_product_corpus):
    """A feature extractor wired to the small product corpus statistics."""
    return FeatureExtractor(statistics=small_product_corpus.statistics)


@pytest.fixture(scope="session")
def gps_result_features(small_product_corpus):
    """Feature statistics of the GPS results of the query "gps" (>= 2 results)."""
    engine = SearchEngine(small_product_corpus)
    extractor = FeatureExtractor(statistics=small_product_corpus.statistics)
    results = engine.search("gps")
    return [extractor.extract(result) for result in results]


@pytest.fixture
def tiny_problem():
    """A deterministic micro DFS problem (3 results, L=3)."""
    return micro_instance(num_results=3, size_limit=3, seed=0)


@pytest.fixture
def default_config():
    """The default DFS configuration (L=5, x=10%)."""
    return DFSConfig()


def build_flat_tree(tag: str = "root", leaves: int = 3) -> "TreeBuilder":
    """Helper used by several tests to build simple trees."""
    builder = TreeBuilder(tag)
    for index in range(leaves):
        builder.leaf(f"leaf{index}", f"value{index}")
    return builder
