"""Synthetic Product Reviews corpus (buzzillions.com substitute).

One document per product.  Each product carries the schema of Figure 1 of the
paper: name, brand, category, price, aggregated rating, and a set of reviews;
each review has a reviewer (name, location, type), a rating, and opinion flags
grouped into pros, cons and best uses.

Two properties of the real data matter to XSACT and are reproduced here:

* every product has its own *opinion profile* — a per-product probability for
  each pro/con/use — so occurrence rates of the same feature type differ across
  products (that is what differentiation feeds on);
* review counts vary widely across products (a paper-cited pain point: "a
  product can have hundreds of reviews"), so occurrence counts alone are not
  comparable and rates must be used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.datasets.vocabulary import ProductVocabulary
from repro.errors import DatasetError
from repro.storage.corpus import Corpus
from repro.storage.document_store import DocumentStore
from repro.xmlmodel.builder import TreeBuilder
from repro.xmlmodel.node import XMLNode

__all__ = ["ProductReviewsConfig", "generate_product_reviews_corpus"]


@dataclass(frozen=True)
class ProductReviewsConfig:
    """Parameters of the Product Reviews generator.

    Attributes
    ----------
    products_per_category:
        Number of products generated for each category (GPS, phone, camera).
    min_reviews / max_reviews:
        Range of the per-product review count (drawn log-uniformly so a few
        products get very many reviews, as on the real site).
    seed:
        Seed of the generator's private random stream.
    """

    products_per_category: int = 8
    min_reviews: int = 5
    max_reviews: int = 120
    seed: int = 42

    def __post_init__(self) -> None:
        if self.products_per_category < 1:
            raise DatasetError("products_per_category must be >= 1")
        if not (1 <= self.min_reviews <= self.max_reviews):
            raise DatasetError("review count range must satisfy 1 <= min <= max")


def generate_product_reviews_corpus(
    config: Optional[ProductReviewsConfig] = None,
    vocabulary: Optional[ProductVocabulary] = None,
) -> Corpus:
    """Generate the Product Reviews corpus.

    Returns a fully indexed :class:`~repro.storage.corpus.Corpus` whose
    documents are ``product_0001`` ... in generation order.
    """
    config = config or ProductReviewsConfig()
    vocabulary = vocabulary or ProductVocabulary()
    rng = random.Random(config.seed)
    store = DocumentStore()

    product_number = 0
    for category in vocabulary.categories:
        for _ in range(config.products_per_category):
            product_number += 1
            doc_id = f"product_{product_number:04d}"
            root = _build_product(category, product_number, config, vocabulary, rng)
            store.add(doc_id, root, metadata={"dataset": "product_reviews", "category": category})
    return Corpus(store, name="product_reviews")


# ---------------------------------------------------------------------- #
# Document construction
# ---------------------------------------------------------------------- #
def _build_product(
    category: str,
    product_number: int,
    config: ProductReviewsConfig,
    vocabulary: ProductVocabulary,
    rng: random.Random,
) -> XMLNode:
    brand = rng.choice(vocabulary.brands[category])
    line = rng.choice(vocabulary.model_lines[category])
    model_number = rng.choice([230, 330, 630, 730, 920, 1240, 1450])
    suffix = rng.choice(vocabulary.suffixes)
    name = f"{brand} {line} {model_number} {suffix} {category}"

    review_count = _log_uniform_int(rng, config.min_reviews, config.max_reviews)
    profile = _opinion_profile(category, vocabulary, rng)

    builder = TreeBuilder("product")
    builder.leaf("name", name)
    builder.leaf("brand", brand)
    builder.leaf("category", category)
    builder.leaf("price", f"{rng.uniform(49, 899):.2f}")
    builder.leaf("rating", f"{rng.uniform(2.8, 4.9):.1f}")
    with builder.element("reviews"):
        for _ in range(review_count):
            _build_review(builder, category, profile, vocabulary, rng)
    return builder.finish()


def _build_review(
    builder: TreeBuilder,
    category: str,
    profile: Dict[str, Dict[str, float]],
    vocabulary: ProductVocabulary,
    rng: random.Random,
) -> None:
    with builder.element("review"):
        with builder.element("reviewer"):
            builder.leaf("reviewer_name", rng.choice(vocabulary.first_names))
            builder.leaf("location", rng.choice(vocabulary.locations))
            builder.leaf("reviewer_type", rng.choice(vocabulary.reviewer_types))
        builder.leaf("review_rating", rng.randint(1, 5))
        _build_flag_group(builder, "pros", profile["pros"], rng)
        _build_flag_group(builder, "cons", profile["cons"], rng)
        _build_flag_group(builder, "best_uses", profile["best_uses"], rng)


def _build_flag_group(
    builder: TreeBuilder,
    group_tag: str,
    probabilities: Dict[str, float],
    rng: random.Random,
) -> None:
    flags = [name for name, probability in probabilities.items() if rng.random() < probability]
    if not flags:
        return
    with builder.element(group_tag):
        for flag in flags:
            builder.leaf(flag, "yes")


def _opinion_profile(
    category: str,
    vocabulary: ProductVocabulary,
    rng: random.Random,
) -> Dict[str, Dict[str, float]]:
    """Draw a per-product probability for each opinion flag.

    Each product emphasises a few flags strongly (probability 0.5-0.9) and the
    rest weakly (0.02-0.25); which flags are emphasised differs per product,
    which is what produces differentiable occurrence rates across products.
    """
    def draw(options: Sequence[str], strong_count: int) -> Dict[str, float]:
        strong = set(rng.sample(list(options), min(strong_count, len(options))))
        return {
            option: rng.uniform(0.5, 0.9) if option in strong else rng.uniform(0.02, 0.25)
            for option in options
        }

    return {
        "pros": draw(vocabulary.pros[category], strong_count=3),
        "cons": draw(vocabulary.cons[category], strong_count=2),
        "best_uses": draw(vocabulary.best_uses[category], strong_count=2),
    }


def _log_uniform_int(rng: random.Random, low: int, high: int) -> int:
    """Integer drawn log-uniformly in [low, high] (skewed towards low values)."""
    import math

    value = math.exp(rng.uniform(math.log(low), math.log(high)))
    return max(low, min(high, int(round(value))))
