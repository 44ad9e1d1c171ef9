"""XSeek-style return-node inference over the structural table.

An SLCA match node is rarely what a user wants to *see*: for the query
``{TomTom, GPS}`` the match may be the ``<name>`` leaf, while the meaningful
result is the whole ``<product>`` subtree around it.  XSeek [3, 4] infers the
return node from the data: it walks from the match node towards the root and
stops at the lowest ancestor-or-self node that denotes an *entity* — a node
whose tag occurs as a repeating sibling somewhere in the corpus (the ``*``
signal of a DTD), or failing that a node that groups multiple attribute
children.

The walk runs on a document's
:class:`~repro.structure.encoding.DocumentStructure` (the XPath-accelerator
encoding), never on its tree: the climb follows ``parent``, a node is a leaf
when ``end[pre] == pre + 1``, and its element children are found by stepping
``c = end[c]`` through its window ``(pre, end[pre])``.  The repeating-sibling
signal comes from :class:`~repro.storage.statistics.CorpusStatistics`.
Evaluating a query therefore decodes no document of a snapshot-loaded
corpus.
"""

from __future__ import annotations

from typing import Optional

from repro.storage.statistics import CorpusStatistics
from repro.structure.encoding import DocumentStructure, TagDictionary

__all__ = ["infer_return_subtree", "is_entity_node"]


def is_entity_node(
    structure: DocumentStructure,
    tags: TagDictionary,
    pre: int,
    statistics: Optional[CorpusStatistics] = None,
) -> bool:
    """Decide whether the element at ``pre`` denotes an entity in the XSeek sense.

    An element is treated as an entity when

    * its tag repeats under a single parent somewhere in the corpus (the
      DTD-star signal), or
    * it is an internal node with at least two *distinct* child tags (it groups
      several attributes, as ``<product>`` groups name, rating, price, ...).

    Leaf elements are never entities — they are attribute/value carriers.
    """
    end = structure.end
    window_end = end[pre]
    if window_end == pre + 1:
        return False
    tag_ids = structure.tag_ids
    if statistics is not None and statistics.tag_is_repeating(tags.tag(tag_ids[pre])):
        return True
    child = pre + 1
    first_tag = tag_ids[child]
    while child < window_end:
        if tag_ids[child] != first_tag:
            return True
        child = end[child]
    return False


def infer_return_subtree(
    structure: DocumentStructure,
    tags: TagDictionary,
    match_pre: int,
    statistics: Optional[CorpusStatistics] = None,
    max_climb: int = 10,
) -> int:
    """Return the pre number of the node whose subtree is presented as the result.

    Walks from the match node towards the root looking for the lowest
    ancestor-or-self entity node, climbing at most ``max_climb`` levels.  When
    no entity node is found the match node's highest non-root ancestor-or-self
    within the climb window is returned (the match node itself when it is the
    document root), so the caller always gets a displayable subtree.

    Parameters
    ----------
    structure:
        The structural index of the source document.
    tags:
        The tag dictionary ``structure``'s tag ids refer to.
    match_pre:
        The pre number of the SLCA/ELCA match node inside ``structure``.
    statistics:
        Corpus statistics used for the repeating-sibling test; optional so the
        function also works on standalone documents (tests, ad-hoc usage).
    max_climb:
        Safety bound on how far towards the root the inference may walk.
    """
    parent = structure.parent
    highest_non_root = match_pre
    node = match_pre
    for _ in range(max_climb + 1):
        if is_entity_node(structure, tags, node, statistics):
            return node
        up = parent[node]
        if up == -1:
            break
        highest_non_root = node
        node = up
    # No entity found within the window: fall back to the highest non-root
    # node visited, so the result keeps as much context around the match as
    # the climb window allows without ever returning the whole document.
    # (When the match itself is the document root there is nothing below it
    # to prefer, so the match is returned as-is.)
    return highest_non_root
