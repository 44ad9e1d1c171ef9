"""Feature extraction from result subtrees.

The extractor turns a search result's XML subtree into the statistics table of
Figure 1.  The rules follow the paper's reading of the data:

* Every leaf element is a potential feature: its nearest entity ancestor gives
  the *entity*, its own tag gives the *attribute*, and its text gives the
  *value*.
* Features are aggregated per (entity, attribute, value) with an occurrence
  count (``pro: compact`` appearing in 8 of 11 reviews yields count 8) and a
  *population* equal to the number of instances of the owning entity in the
  result (11 reviews), so occurrence counts can be normalised into rates.
* Flag-style leaves whose value is a bare yes/true marker
  (``<compact>yes</compact>`` inside ``<pros>``) are normalised into the
  paper's ``pro: compact`` form: the attribute is the leaf tag (``compact``)
  and the value is the flag, while the *entity scope* of the feature becomes
  ``<owner>.<group>`` (``review.pro``).  Scoping validity per opinion group
  reproduces the behaviour of the paper's examples: the significance ordering
  of Desideratum 2 ranks pros against pros and best-uses against best-uses, so
  a DFS may show the top pros *and* the top best-use without having to exhaust
  every more-frequent pro first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.entity.classifier import NodeCategory, NodeClassifier, owned_leaves
from repro.errors import FeatureExtractionError
from repro.features.feature import Feature
from repro.features.statistics import FeatureStatistics, ResultFeatures
from repro.search.result import SearchResult
from repro.storage.statistics import CorpusStatistics
from repro.xmlmodel.node import XMLNode

__all__ = ["FeatureExtractor", "extract_features"]

_FLAG_VALUES = {"yes", "true", "1", "y"}


@dataclass
class FeatureExtractor:
    """Extracts :class:`~repro.features.statistics.ResultFeatures` from results.

    Parameters
    ----------
    statistics:
        Optional corpus statistics, forwarded to the entity classifier so that
        entity inference can use corpus-wide repetition evidence.
    normalise_flags:
        Whether to apply the yes/no flag normalisation described in the module
        docstring (on by default; the paper's datasets rely on it).
    singularise_entities:
        Whether group tags are reported in singular-ish form by stripping a
        trailing ``s`` when the flag rule fires (``pros`` → ``pro``), matching
        the paper's ``pro: compact`` notation.
    """

    statistics: Optional[CorpusStatistics] = None
    normalise_flags: bool = True
    singularise_entities: bool = True

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def extract(self, result: SearchResult) -> ResultFeatures:
        """Extract the feature statistics of one search result."""
        return self.extract_from_tree(result.subtree, result_id=result.result_id)

    def extract_from_tree(self, root: XMLNode, result_id: str = "") -> ResultFeatures:
        """Extract feature statistics from a bare result tree."""
        if not root.is_element:
            raise FeatureExtractionError("feature extraction requires an element-rooted tree")

        classifier = NodeClassifier(statistics=self.statistics)
        categories = classifier.classify(root)

        # Count entity instances per entity tag: this is the population that
        # occurrence counts are reported against (e.g. the number of reviews).
        entity_instances: Dict[str, int] = {}
        for node in root.iter_elements():
            if categories[node] is NodeCategory.ENTITY:
                entity_instances[node.tag] = entity_instances.get(node.tag, 0) + 1

        # Aggregate occurrences per feature, remembering the owning entity tag
        # of each feature so its population can be looked up afterwards.
        occurrence_counts: Dict[Feature, int] = {}
        owner_tags: Dict[Feature, str] = {}
        for leaf, parent, owner in owned_leaves(root, categories):
            extracted = self._leaf_to_feature(leaf, parent, owner or root)
            if extracted is None:
                continue
            feature, owner_tag = extracted
            occurrence_counts[feature] = occurrence_counts.get(feature, 0) + 1
            owner_tags.setdefault(feature, owner_tag)

        features = ResultFeatures(result_id=result_id)
        for feature, count in occurrence_counts.items():
            population = max(entity_instances.get(owner_tags[feature], 1), count)
            features.add(
                FeatureStatistics(feature=feature, occurrences=count, population=population)
            )
        return features

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _leaf_to_feature(
        self,
        leaf: XMLNode,
        parent: Optional[XMLNode],
        owner: XMLNode,
    ) -> Optional[Tuple[Feature, str]]:
        value = leaf.direct_text()
        owner_tag = owner.tag or ""
        entity = owner_tag

        attribute = leaf.tag or ""
        if self.normalise_flags and value.lower() in _FLAG_VALUES and parent is not None:
            # <pros><compact>yes</compact></pros> under a review entity becomes
            # the feature (review.pro, compact, yes): "pro: compact" in the
            # paper's notation, scoped to the review's pros group.
            if parent is not owner and parent.tag:
                entity = f"{owner_tag}.{self._singular(parent.tag)}"
            value = "yes"
        if not value:
            return None
        return Feature(entity=entity, attribute=attribute, value=value), owner_tag

    def _singular(self, tag: str) -> str:
        if not self.singularise_entities:
            return tag
        if tag.endswith("ses") or tag.endswith("xes"):
            return tag[:-2]
        if tag.endswith("ies"):
            return tag[:-3] + "y"
        if tag.endswith("s") and not tag.endswith("ss"):
            return tag[:-1]
        return tag


def extract_features(
    result: SearchResult,
    statistics: Optional[CorpusStatistics] = None,
) -> ResultFeatures:
    """Extract feature statistics from a result with default settings."""
    return FeatureExtractor(statistics=statistics).extract(result)
