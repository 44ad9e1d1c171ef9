"""XSeek-style return-node inference.

An SLCA match node is rarely what a user wants to *see*: for the query
``{TomTom, GPS}`` the match may be the ``<name>`` leaf, while the meaningful
result is the whole ``<product>`` subtree around it.  XSeek [3, 4] infers the
return node from the data: it walks from the match node towards the root and
stops at the lowest ancestor-or-self node that denotes an *entity* — a node
whose tag occurs as a repeating sibling somewhere in the corpus (the ``*``
signal of a DTD), or failing that a node that groups multiple attribute
children.  This module reproduces that inference on top of
:class:`~repro.storage.statistics.CorpusStatistics`.
"""

from __future__ import annotations

from typing import Optional

from repro.storage.statistics import CorpusStatistics
from repro.xmlmodel.dewey import DeweyLabel
from repro.xmlmodel.node import XMLNode

__all__ = ["infer_return_subtree", "is_entity_node"]


def is_entity_node(node: XMLNode, statistics: Optional[CorpusStatistics]) -> bool:
    """Decide whether ``node`` denotes an entity in the XSeek sense.

    A node is treated as an entity when

    * its tag repeats under a single parent somewhere in the corpus (the
      DTD-star signal), or
    * it is an internal node with at least two *distinct* child tags (it groups
      several attributes, as ``<product>`` groups name, rating, price, ...).

    Leaf elements are never entities — they are attribute/value carriers.
    """
    if not node.is_element or node.is_leaf_element:
        return False
    if statistics is not None and node.tag and statistics.tag_is_repeating(node.tag):
        return True
    child_tags = {child.tag for child in node.element_children()}
    return len(child_tags) >= 2


def infer_return_subtree(
    root: XMLNode,
    match_label: DeweyLabel,
    statistics: Optional[CorpusStatistics] = None,
    max_climb: int = 10,
) -> XMLNode:
    """Return the node whose subtree should be presented as the result.

    Walks from the match node towards the root looking for the lowest
    ancestor-or-self entity node, climbing at most ``max_climb`` levels.  When
    no entity node is found the match node's highest non-root ancestor-or-self
    within the climb window is returned (the match node itself when it is the
    document root), so the caller always gets a displayable subtree.

    Parameters
    ----------
    root:
        The root of the source document.
    match_label:
        The Dewey label of the SLCA/ELCA match node inside ``root``; the climb
        follows the root-to-match path that the label names.
    statistics:
        Corpus statistics used for the repeating-sibling test; optional so the
        function also works on standalone trees (tests, ad-hoc usage).
    max_climb:
        Safety bound on how far towards the root the inference may walk.
    """
    path = root.path_to(match_label)
    highest_non_root = path[-1]
    lowest = max(len(path) - 1 - max_climb, 0)
    for depth in reversed(range(lowest, len(path))):
        current = path[depth]
        if is_entity_node(current, statistics):
            return current
        if depth > 0:
            highest_non_root = current
    # No entity found within the window: fall back to the highest non-root
    # node visited, so the result keeps as much context around the match as
    # the climb window allows without ever returning the whole document.
    # (When the match itself is the document root there is nothing below it
    # to prefer, so the match is returned as-is.)
    return highest_non_root
