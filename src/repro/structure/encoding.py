"""Pre-order interval encoding of one document tree.

The search layer works on this encoding, not on Dewey labels: the inverted
index posts pre numbers, the SLCA/ELCA stack merge and XSeek climb
``parent``, ranking counts postings inside ``[pre, end)``, and Dewey labels
are derived only for the results a page serves.  A label ancestor test
compares component prefixes (``O(depth)``) and "all descendants with tag t"
walks the subtree; the XPath-accelerator encoding replaces both with integer
arithmetic.  Every *element* node of a document gets

* ``pre`` — its position in the pre-order walk (0 is the root),
* ``parent`` — its parent's pre number (``-1`` for the root),
* ``end`` — the exclusive end of its subtree's pre-order window,
* ``last`` — the last component of its Dewey label,
* ``tag_id`` — its tag name interned through a :class:`TagDictionary`,

and, because ``b``'s subtree is exactly the contiguous pre range
``[pre_b, end_b)``, the interval characterisation holds:

    ``a`` is a proper descendant of ``b``  ⇔  ``pre_b < pre_a < end_b``

Containment becomes two integer comparisons, and "descendants of ``b`` with
tag ``t``" becomes a binary search over ``t``'s sorted occurrence list
restricted to the window ``(pre_b, end_b)`` — no tree walk, no label prefix
comparisons.

A document is integer lists only, with no object per element.  The
constructor takes each element's depth, ``last`` and tag id in pre-order,
and one stack pass over the depths reconstructs ``parent`` and the subtree
windows in ``O(n)``.  A snapshot directory's label table stores exactly the
depths and lasts, and the structural section the tag ids (see
:mod:`repro.storage.snapshot`), so a load restores every document's
structure without decoding its record or building a label.  A label is
derived when it is needed: :meth:`DocumentStructure.label_of` climbs
``parent`` and collects ``last``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import StructureError
from repro.xmlmodel.dewey import DeweyLabel
from repro.xmlmodel.node import XMLNode

__all__ = ["TagDictionary", "DocumentStructure"]


class TagDictionary:
    """Interns element tag names to dense integer ids.

    One dictionary is shared across all documents of a corpus (see
    :class:`~repro.structure.table.StructuralTable`), so equal tags compare
    as equal integers across documents.  Ids are assigned in first-seen
    order; they are an internal detail of the owning table, not stable
    across processes.  :meth:`intern` is lock-guarded because the
    dictionary is shared by every corpus generation, and a writer interns
    while readers of the published generation look tags up; :meth:`lookup`
    and :meth:`tag` are single atomic dict/list probes.
    """

    __slots__ = ("_ids", "_tags", "_lock")

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._tags: List[str] = []
        self._lock = threading.Lock()

    def intern(self, tag: str) -> int:
        """Return the id of ``tag``, assigning the next free id if new."""
        tag_id = self._ids.get(tag)
        if tag_id is not None:
            return tag_id
        with self._lock:
            tag_id = self._ids.get(tag)
            if tag_id is None:
                tag_id = len(self._tags)
                self._tags.append(tag)
                self._ids[tag] = tag_id
            return tag_id

    def lookup(self, tag: str) -> Optional[int]:
        """Return the id of ``tag``, or ``None`` if it was never interned."""
        return self._ids.get(tag)

    def tag(self, tag_id: int) -> str:
        """Return the tag name for an id.

        Raises
        ------
        StructureError
            If ``tag_id`` was never assigned.
        """
        if not 0 <= tag_id < len(self._tags):
            raise StructureError(
                f"tag id {tag_id} is not in the dictionary (it holds {len(self._tags)} tags)"
            )
        return self._tags[tag_id]

    def __len__(self) -> int:
        return len(self._tags)

    def __contains__(self, tag: str) -> bool:
        return tag in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._tags)


class DocumentStructure:
    """The structural index of one document's element nodes.

    Four integer lists, all indexed by ``pre`` (the pre-order element
    position, which equals the position in the snapshot label table):

    * ``parent[pre]`` — the parent's pre number, ``-1`` for the root;
    * ``end[pre]`` — exclusive end of the subtree's pre window;
    * ``last[pre]`` — the last component of the element's Dewey label: its
      offset among *all* of its parent's children, text nodes counted, as
      :meth:`~repro.xmlmodel.node.XMLNode.append_child` numbers them (0 for
      the root);
    * ``tag_ids[pre]`` — the tag id in the owning :class:`TagDictionary`.

    The constructor takes each element's depth, ``last`` and tag id in
    pre-order — what :meth:`from_tree` walks off a tree and what a snapshot
    directory's label table stores — and owns every check on their shape.
    Instances are immutable after construction and safe to share between
    threads (the one lazy cache, the per-tag occurrence lists, is built
    idempotently and published with an atomic assignment).
    """

    __slots__ = ("parent", "end", "last", "tag_ids", "_occurrences")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def __init__(
        self, depths: Sequence[int], lasts: Sequence[int], tag_ids: Sequence[int]
    ) -> None:
        """Derive ``parent`` and ``end`` from pre-order depths in one stack pass.

        Raises
        ------
        StructureError
            If the three sequences disagree in length, or if the depths are
            not one pre-order walk of a single-rooted tree: the table is
            empty, its first entry is not the root (depth 0), a later entry
            is a second root, or an entry sits more than one level below the
            entry before it.
        """
        count = len(depths)
        if len(lasts) != count or len(tag_ids) != count:
            raise StructureError(
                f"element table has {count} depths, {len(lasts)} lasts and "
                f"{len(tag_ids)} tag ids"
            )
        if not count:
            raise StructureError("element table is empty: a document has at least its root")
        if depths[0] != 0:
            raise StructureError(
                f"first entry must be the document root, got depth {depths[0]}"
            )
        parent = [-1] * count
        end = [count] * count
        # stack[d] is the open element at depth d, so len(stack) is the
        # depth a child of the top would have.
        stack: List[int] = []
        for pre, depth in enumerate(depths):
            if depth > len(stack):
                raise StructureError(
                    f"element {pre} at depth {depth} jumps past its parent at depth "
                    f"{len(stack) - 1}"
                )
            while len(stack) > depth:
                end[stack.pop()] = pre
            if stack:
                parent[pre] = stack[-1]
            elif pre:
                raise StructureError(f"element {pre} is a second root")
            stack.append(pre)
        self.parent = parent
        self.end = end
        self.last = list(lasts)
        self.tag_ids = list(tag_ids)
        self._occurrences: Optional[Dict[int, List[int]]] = None

    @classmethod
    def from_tree(cls, root: XMLNode, tags: TagDictionary) -> "DocumentStructure":
        """Index a live tree, interning its tags into ``tags``.

        One pre-order walk of the children lists: an element's ``last`` is
        its position in its parent's ``children``, text nodes counted.
        """
        depths: List[int] = []
        lasts: List[int] = []
        tag_ids: List[int] = []
        stack = [(root, 0, 0)]
        while stack:
            node, depth, last = stack.pop()
            depths.append(depth)
            lasts.append(last)
            tag_ids.append(tags.intern(node.tag or ""))
            children = node.children
            for offset in range(len(children) - 1, -1, -1):
                if children[offset].is_element:
                    stack.append((children[offset], depth + 1, offset))
        return cls(depths, lasts, tag_ids)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def label_of(self, pre: int) -> DeweyLabel:
        """The Dewey label of element ``pre``: climb ``parent``, collecting ``last``.

        ``root.node_at(label_of(pre))`` is therefore element ``pre`` of the
        tree the table describes.  Only a served page asks for labels.
        """
        components: List[int] = []
        while pre > 0:
            components.append(self.last[pre])
            pre = self.parent[pre]
        return DeweyLabel(reversed(components))

    def tag_occurrences(self, tag_id: int) -> Sequence[int]:
        """Sorted pre numbers of every element with tag ``tag_id``."""
        occurrences = self._occurrences
        if occurrences is None:
            occurrences = {}
            for pre, tag in enumerate(self.tag_ids):
                occurrences.setdefault(tag, []).append(pre)
            self._occurrences = occurrences
        return occurrences.get(tag_id, ())

    # ------------------------------------------------------------------ #
    # Axis scans (window-bounded — no tree walks)
    # ------------------------------------------------------------------ #
    def descendants_with_tag(self, pre: int, tag_id: int) -> List[int]:
        """Pre numbers of ``pre``'s proper descendants with tag ``tag_id``.

        Two binary searches bound the tag's occurrence list to the subtree
        window ``(pre, end[pre])`` — cost ``O(log occ + answer)`` instead of
        the ``O(subtree)`` Dewey prefix walk.
        """
        occurrences = self.tag_occurrences(tag_id)
        low = bisect_right(occurrences, pre)
        high = bisect_left(occurrences, self.end[pre])
        return list(occurrences[low:high])

    def children_with_tag(self, pre: int, tag_id: int) -> List[int]:
        """Like :meth:`descendants_with_tag` restricted to direct children."""
        parent = self.parent
        return [node for node in self.descendants_with_tag(pre, tag_id) if parent[node] == pre]

    def nearest_ancestor_with_tag(self, pre: int, tag_id: int) -> Optional[int]:
        """Pre number of the closest proper ancestor with tag ``tag_id``."""
        node = self.parent[pre]
        while node != -1:
            if self.tag_ids[node] == tag_id:
                return node
            node = self.parent[node]
        return None

    def path_ends_with(self, pre: int, path_tag_ids: Sequence[int]) -> bool:
        """Whether the root-to-``pre`` tag path ends with ``path_tag_ids``."""
        node = pre
        for tag_id in reversed(path_tag_ids):
            if node == -1 or self.tag_ids[node] != tag_id:
                return False
            node = self.parent[node]
        return True

    def anchor_for(self, pre: int, path_tag_ids: Sequence[int]) -> Optional[int]:
        """Innermost ancestor-or-self whose tag path ends with ``path_tag_ids``.

        This is the ``within`` tag-path filter of structured queries: a match
        inside ``movie/cast`` re-anchors to the enclosing ``cast`` element
        whose parent is a ``movie``.  Returns ``None`` when no ancestor-or-
        self satisfies the path.
        """
        node = pre
        while node != -1:
            if self.path_ends_with(node, path_tag_ids):
                return node
            node = self.parent[node]
        return None

    # ------------------------------------------------------------------ #
    # Protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.parent)

    def __repr__(self) -> str:
        return f"DocumentStructure(elements={len(self.parent)})"
