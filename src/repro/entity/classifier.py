"""Node-category classification for result trees.

The classification drives feature extraction: features are (entity, attribute,
value) triplets, so the extractor needs to know, for every leaf value, which
ancestor is its attribute name and which higher ancestor is the owning entity.
Nodes hold no parent pointer, so :func:`owned_leaves` finds both on one
top-down walk of the result tree, which also keeps them inside the result
when the tree is a node of a larger stored document.  Categories are keyed
by the node itself (an identity hash): a node stores no label.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import EntityInferenceError
from repro.storage.statistics import CorpusStatistics, repeating_groups
from repro.xmlmodel.node import XMLNode

__all__ = ["NodeCategory", "NodeClassifier", "classify_result_tree", "owned_leaves"]


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

    def classify(self, root: XMLNode) -> Dict[XMLNode, NodeCategory]:
        """Return a category for every element node in the subtree of ``root``.

        Raises
        ------
        EntityInferenceError
            If ``root`` is not an element node.
        """
        if not root.is_element:
            raise EntityInferenceError("can only classify element-rooted trees")

        local_repeating = repeating_groups(root)
        return {
            node: self._classify_node(node, root, local_repeating)
            for node in root.iter_elements()
        }

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


def owned_leaves(
    root: XMLNode, categories: Dict[XMLNode, NodeCategory]
) -> Iterator[Tuple[XMLNode, Optional[XMLNode], Optional[XMLNode]]]:
    """Yield ``(leaf, parent, owner)`` for every leaf element of ``root``.

    Leaves come in document order.  ``parent`` is the leaf's parent element,
    ``None`` when the leaf is ``root`` itself; ``owner`` is the leaf's nearest
    ancestor classified as an entity in ``categories``, looking no higher
    than ``root``, or ``None`` when there is none.
    """
    stack: List[Tuple[XMLNode, Optional[XMLNode], Optional[XMLNode]]] = [(root, None, None)]
    while stack:
        node, parent, owner = stack.pop()
        if node.is_leaf_element:
            yield node, parent, owner
            continue
        if categories.get(node) is NodeCategory.ENTITY:
            owner = node
        for child in reversed(node.children):
            if child.is_element:
                stack.append((child, node, owner))


def classify_result_tree(
    root: XMLNode,
    statistics: Optional[CorpusStatistics] = None,
) -> Dict[XMLNode, NodeCategory]:
    """Classify every element of a result tree in one call."""
    return NodeClassifier(statistics=statistics).classify(root)
