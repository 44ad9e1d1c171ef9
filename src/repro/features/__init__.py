"""Feature model and extraction (the "Feature Extractor" of Figure 3).

A **feature** is a triplet ``(entity, attribute, value)`` such as
``(Product, Name, "TomTom Go 630")`` and a **feature type** is the
``(entity, attribute)`` pair (paper, Section 2).  For each search result the
extractor produces the statistics table shown on the right of Figure 1: every
feature together with its number of occurrences in the result (e.g.
``pro: compact: 8`` meaning 8 of the 11 reviews list "compact" as a pro) and
the total number of occurrences of its feature type within the owning entity,
which is what the validity desideratum's significance ordering is computed
from.
"""

from repro.features.extractor import FeatureExtractor, extract_features
from repro.features.feature import Feature, FeatureType
from repro.features.statistics import FeatureStatistics, ResultFeatures

__all__ = [
    "Feature",
    "FeatureType",
    "FeatureStatistics",
    "ResultFeatures",
    "FeatureExtractor",
    "extract_features",
]
