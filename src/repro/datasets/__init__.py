"""Synthetic datasets standing in for the paper's crawled corpora.

The demo uses three real data sources that are no longer obtainable (the
buzzillions.com *Product Reviews* crawl, the REI.com *Outdoor Retailer* crawl,
and the IMDB plain-text dump used for Figure 4).  Per the substitution policy
in DESIGN.md, each is replaced by a seeded synthetic generator that reproduces
the *schema* and the *statistical shape* that drive XSACT's behaviour: skewed
feature-occurrence distributions, tens of feature types per result, and result
populations large enough that comparison by hand would be tedious — which is
the paper's motivation in the first place.

All generators are deterministic given their seed, so experiments and tests are
reproducible bit for bit.
"""

from repro.datasets.imdb import ImdbConfig, generate_imdb_corpus
from repro.datasets.outdoor_retailer import OutdoorRetailerConfig, generate_outdoor_corpus
from repro.datasets.product_reviews import ProductReviewsConfig, generate_product_reviews_corpus
from repro.datasets.vocabulary import MovieVocabulary, OutdoorVocabulary, ProductVocabulary

__all__ = [
    "ProductReviewsConfig",
    "generate_product_reviews_corpus",
    "OutdoorRetailerConfig",
    "generate_outdoor_corpus",
    "ImdbConfig",
    "generate_imdb_corpus",
    "ProductVocabulary",
    "MovieVocabulary",
    "OutdoorVocabulary",
]
