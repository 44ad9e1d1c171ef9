"""Node-category classification for result trees.

The classification drives feature extraction: features are (entity, attribute,
value) triplets, so the extractor needs to know, for every leaf value, which
ancestor is its attribute name and which higher ancestor is the owning entity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import EntityInferenceError
from repro.storage.statistics import CorpusStatistics, repeating_groups
from repro.xmlmodel.dewey import DeweyLabel
from repro.xmlmodel.node import XMLNode

__all__ = ["NodeCategory", "NodeClassifier", "classify_result_tree"]


class NodeCategory(enum.Enum):
    """Role a node plays in the Entity-Relationship reading of a result tree."""

    ENTITY = "entity"
    ATTRIBUTE = "attribute"
    VALUE = "value"
    CONNECTION = "connection"


@dataclass
class NodeClassifier:
    """Classifies the nodes of one result tree.

    Parameters
    ----------
    statistics:
        Corpus statistics; when available, the DTD-star (repeating sibling)
        signal is taken from the whole corpus rather than the single result,
        which matches how XSeek infers node categories.  When ``None`` the
        classifier falls back to per-tree repetition only.
    """

    statistics: Optional[CorpusStatistics] = None

    def classify(self, root: XMLNode) -> Dict[DeweyLabel, NodeCategory]:
        """Return a category for every element node in the subtree of ``root``.

        Raises
        ------
        EntityInferenceError
            If ``root`` is not an element node.
        """
        if not root.is_element:
            raise EntityInferenceError("can only classify element-rooted trees")

        local_repeating = repeating_groups(root)
        categories: Dict[DeweyLabel, NodeCategory] = {}
        for node in root.iter_elements():
            categories[node.label] = self._classify_node(node, root, local_repeating)
        return categories

    # ------------------------------------------------------------------ #
    # Per-node rules
    # ------------------------------------------------------------------ #
    def _classify_node(
        self,
        node: XMLNode,
        root: XMLNode,
        local_repeating: Dict[str, int],
    ) -> NodeCategory:
        if node.is_leaf_element:
            # A leaf element names an attribute and carries its value.  We
            # classify it as ATTRIBUTE; the value is its text content.  Leaf
            # elements that repeat (e.g. several <genre> children) still act as
            # attribute carriers for feature extraction.
            return NodeCategory.ATTRIBUTE
        if node is root:
            # The result root is the entity the user asked about.
            return NodeCategory.ENTITY
        if self._tag_repeats(node.tag, local_repeating):
            return NodeCategory.ENTITY
        child_tags = {child.tag for child in node.element_children()}
        has_structured_child = any(
            not child.is_leaf_element for child in node.element_children()
        )
        if len(child_tags) >= 2 and has_structured_child:
            # Groups heterogeneous content including nested structure: behaves
            # like an entity even without the repetition signal (e.g. a
            # <product> document root with <name>, <rating> and <reviews>).
            return NodeCategory.ENTITY
        # Pure grouping / wrapper nodes such as <reviews>, <pros> or <reviewer>:
        # they connect an entity to its attributes or sub-entities.
        return NodeCategory.CONNECTION

    def _tag_repeats(self, tag: Optional[str], local_repeating: Dict[str, int]) -> bool:
        if tag is None:
            return False
        if self.statistics is not None and self.statistics.tag_is_repeating(tag):
            return True
        return tag in local_repeating

    # ------------------------------------------------------------------ #
    # Convenience queries
    # ------------------------------------------------------------------ #
    def owning_entity(self, node: XMLNode, categories: Dict[DeweyLabel, NodeCategory]) -> Optional[XMLNode]:
        """Return the nearest ancestor-or-self classified as an entity."""
        current: Optional[XMLNode] = node
        while current is not None:
            if categories.get(current.label) is NodeCategory.ENTITY:
                return current
            current = current.parent
        return None


def classify_result_tree(
    root: XMLNode,
    statistics: Optional[CorpusStatistics] = None,
) -> Dict[DeweyLabel, NodeCategory]:
    """Classify every element of a result tree in one call."""
    return NodeClassifier(statistics=statistics).classify(root)
