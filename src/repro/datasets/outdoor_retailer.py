"""Synthetic Outdoor Retailer corpus (REI.com substitute).

One document per brand.  Each brand has a set of products; each product has a
category, subcategory, gender and a handful of technical attributes (number of
gears, tires, frame material, waterproofing flags, ...), matching the schema
the paper describes for the REI crawl.

The generator gives every brand a *focus*: a preferred subcategory per category
that most of its products fall into (e.g. one jacket brand mostly sells rain
jackets, another mostly insulated ski jackets).  That skew is what the demo's
"men, jackets" walkthrough relies on — the comparison table should reveal the
different focuses of the selected brands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.datasets.vocabulary import OutdoorVocabulary
from repro.errors import DatasetError
from repro.storage.corpus import Corpus
from repro.storage.document_store import DocumentStore
from repro.xmlmodel.builder import TreeBuilder
from repro.xmlmodel.node import XMLNode

__all__ = ["OutdoorRetailerConfig", "generate_outdoor_corpus"]


@dataclass(frozen=True)
class OutdoorRetailerConfig:
    """Parameters of the Outdoor Retailer generator.

    Attributes
    ----------
    products_per_brand:
        Number of products listed under each brand document.
    focus_strength:
        Probability that a product of the brand's focused category uses the
        brand's preferred subcategory (the remaining probability is spread over
        the other subcategories).  Higher values make brands more sharply
        focused and the comparison table more telling.
    seed:
        Seed of the generator's private random stream.
    """

    products_per_brand: int = 60
    focus_strength: float = 0.7
    seed: int = 7

    def __post_init__(self) -> None:
        if self.products_per_brand < 1:
            raise DatasetError("products_per_brand must be >= 1")
        if not (0.0 < self.focus_strength <= 1.0):
            raise DatasetError("focus_strength must be in (0, 1]")


def generate_outdoor_corpus(
    config: Optional[OutdoorRetailerConfig] = None,
    vocabulary: Optional[OutdoorVocabulary] = None,
) -> Corpus:
    """Generate the Outdoor Retailer corpus (one document per brand)."""
    config = config or OutdoorRetailerConfig()
    vocabulary = vocabulary or OutdoorVocabulary()
    rng = random.Random(config.seed)
    store = DocumentStore()

    for brand_number, brand in enumerate(vocabulary.brands, start=1):
        doc_id = f"brand_{brand_number:03d}"
        root = _build_brand(brand, config, vocabulary, rng)
        store.add(doc_id, root, metadata={"dataset": "outdoor_retailer", "brand": brand})
    return Corpus(store, name="outdoor_retailer")


# ---------------------------------------------------------------------- #
# Document construction
# ---------------------------------------------------------------------- #
def _build_brand(
    brand: str,
    config: OutdoorRetailerConfig,
    vocabulary: OutdoorVocabulary,
    rng: random.Random,
) -> XMLNode:
    # The brand's focus: one preferred subcategory per category.
    focus = {
        category: rng.choice(vocabulary.subcategories[category])
        for category in vocabulary.categories
    }

    builder = TreeBuilder("brand")
    builder.leaf("brand_name", brand)
    builder.leaf("founded", rng.randint(1950, 2005))
    builder.leaf("headquarters", rng.choice(["Seattle", "Boulder", "Portland", "Burlington"]))
    with builder.element("products"):
        for product_number in range(config.products_per_brand):
            _build_product(builder, brand, product_number, focus, config, vocabulary, rng)
    return builder.finish()


def _build_product(
    builder: TreeBuilder,
    brand: str,
    product_number: int,
    focus: Dict[str, str],
    config: OutdoorRetailerConfig,
    vocabulary: OutdoorVocabulary,
    rng: random.Random,
) -> None:
    category = rng.choice(vocabulary.categories)
    if rng.random() < config.focus_strength:
        subcategory = focus[category]
    else:
        subcategory = rng.choice(vocabulary.subcategories[category])
    gender = rng.choice(vocabulary.genders)

    with builder.element("item"):
        builder.leaf("item_name", f"{brand} {subcategory.replace('_', ' ')} {product_number + 1}")
        builder.leaf("category", category)
        builder.leaf("subcategory", subcategory)
        builder.leaf("gender", gender)
        builder.leaf("price", f"{rng.uniform(20, 1200):.2f}")
        builder.leaf("material", rng.choice(vocabulary.materials))
        numeric_attributes = vocabulary.features_numeric.get(category, ())
        for attribute in numeric_attributes:
            builder.leaf(attribute, rng.randint(1, 30) if "gears" in attribute or "capacity" in attribute else rng.randint(150, 2500))
        flags = vocabulary.attributes[category]
        chosen = rng.sample(list(flags), k=min(len(flags), rng.randint(1, 3)))
        with builder.element("features"):
            for flag in chosen:
                builder.leaf(flag, "yes")
