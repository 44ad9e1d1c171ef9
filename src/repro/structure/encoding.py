"""Pre-order interval encoding of one document tree.

The search layer climbs Dewey labels: an ancestor test compares component
prefixes (``O(depth)``) and "all descendants with tag t" walks the subtree.
The XPath-accelerator encoding replaces both with integer arithmetic.  Every
*element* node of a document gets

* ``pre`` — its position in the pre-order walk (0 is the root),
* ``end`` — the exclusive end of its subtree's pre-order window,
* ``level`` — its depth (``len(label)``),
* ``tag_id`` — its tag name interned through a :class:`TagDictionary`,

and, because ``b``'s subtree is exactly the contiguous pre range
``[pre_b, end_b)``, the interval characterisation holds:

    ``a`` is a proper descendant of ``b``  ⇔  ``pre_b < pre_a < end_b``

Containment becomes two integer comparisons, and "descendants of ``b`` with
tag ``t``" becomes a binary search over ``t``'s sorted occurrence list
restricted to the window ``(pre_b, end_b)`` — no tree walk, no label prefix
comparisons.

A key economy of this module: *everything except the tag ids derives from the
Dewey label table alone*.  The labels arrive in pre-order (document order), so
``pre`` is the list position and ``level`` the label length, and one stack
pass over the depths reconstructs ``parent`` and the subtree windows in
``O(n)``.  Snapshots therefore persist only the tag dictionary and
per-document tag-id arrays (see :mod:`repro.storage.snapshot`); the rest is
recomputed from the label tables that snapshots already store eagerly, keeping
lazy corpora lazy.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
    across processes.  :meth:`intern` is lock-guarded because lazily-built
    document structures may intern concurrently from service threads;
    :meth:`lookup` and :meth:`tag` are single atomic dict/list probes.
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

    All arrays are indexed by ``pre`` (the pre-order element position, which
    equals the position in the snapshot label table):

    * ``labels[pre]`` — the element's Dewey label (document order);
    * ``level[pre]`` — its depth (``len(label)``);
    * ``parent[pre]`` — the parent's pre number, ``-1`` for the root;
    * ``end[pre]`` — exclusive end of the subtree's pre window;
    * ``tag_ids[pre]`` — the tag id in the owning :class:`TagDictionary`.

    Instances are immutable after construction and safe to share between
    threads (the two lazy caches — label→pre and per-tag occurrence lists —
    are built idempotently and published with atomic assignments).
    """

    __slots__ = ("labels", "level", "parent", "end", "tag_ids", "_pre_by_label", "_occurrences")

    labels: List[DeweyLabel]
    level: List[int]
    parent: List[int]
    end: List[int]
    tag_ids: List[int]
    _pre_by_label: Optional[Dict[DeweyLabel, int]]
    _occurrences: Optional[Dict[int, List[int]]]

    def __init__(self) -> None:
        raise StructureError(
            "use DocumentStructure.from_tree or DocumentStructure.from_labels"
        )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_tree(cls, root: XMLNode, tags: TagDictionary) -> "DocumentStructure":
        """Index a live tree, interning its tags into ``tags``."""
        labels: List[DeweyLabel] = []
        tag_ids: List[int] = []
        for node in root.iter_elements():
            labels.append(node.label)
            tag_ids.append(tags.intern(node.tag or ""))
        return cls.from_labels(labels, tag_ids)

    @classmethod
    def from_labels(
        cls, labels: Sequence[DeweyLabel], tag_ids: Sequence[int]
    ) -> "DocumentStructure":
        """Derive the full encoding from a pre-order label table plus tag ids.

        This is the snapshot-restore path: the label table is exactly what a
        snapshot directory entry stores, so only the tag ids need to travel in the
        file.  One stack pass over the depths recovers parent links and
        subtree windows in ``O(n)``.

        Raises
        ------
        StructureError
            If the two sequences disagree in length, or if the labels are not
            a single-rooted pre-order walk (every non-root label must extend
            the label on top of the depth stack by exactly one component).
        """
        count = len(labels)
        if len(tag_ids) != count:
            raise StructureError(
                f"label table has {count} entries, tag table has {len(tag_ids)}"
            )
        structure = cls.__new__(cls)
        structure.labels = list(labels)
        structure.tag_ids = list(tag_ids)
        structure._pre_by_label = None
        structure._occurrences = None

        level = [0] * count
        parent = [-1] * count
        end = [count] * count
        stack: List[int] = []
        for pre, label in enumerate(structure.labels):
            depth = len(label)
            level[pre] = depth
            while stack and level[stack[-1]] >= depth:
                end[stack.pop()] = pre
            if stack:
                parent[pre] = stack[-1]
                top = structure.labels[stack[-1]]
                if depth != len(top) + 1 or label.components[:-1] != top.components:
                    raise StructureError(
                        f"label table is not a pre-order walk: {label} does not "
                        f"extend its parent {top}"
                    )
            elif pre != 0:
                raise StructureError(
                    f"label table is not single-rooted: {label} has no ancestor on the stack"
                )
            elif depth != 0:
                raise StructureError(f"first label must be the document root, got {label}")
            stack.append(pre)
        structure.level = level
        structure.parent = parent
        structure.end = end
        return structure

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def pre_of(self, label: DeweyLabel) -> int:
        """The pre number of the element at ``label``.

        Raises
        ------
        StructureError
            If no element carries ``label`` — the index is stale relative to
            the caller's view of the document.
        """
        mapping = self._pre_by_label
        if mapping is None:
            # Benign construction race: both builders produce the identical
            # dict and the attribute assignment is atomic.
            mapping = {label: pre for pre, label in enumerate(self.labels)}
            self._pre_by_label = mapping
        pre = mapping.get(label)
        if pre is None:
            raise StructureError(f"no element at label {label} in the structural index")
        return pre

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
        return len(self.labels)

    def signature(self) -> Tuple[Tuple[int, int, int, int], ...]:
        """The full per-element encoding, for equality checks in tests."""
        return tuple(
            (self.end[pre], self.level[pre], self.parent[pre], self.tag_ids[pre])
            for pre in range(len(self.labels))
        )

    def __repr__(self) -> str:
        return f"DocumentStructure(elements={len(self.labels)})"
