"""The :class:`XMLNode` tree type.

An :class:`XMLNode` is an ordered, labelled tree node.  Element nodes carry a
tag name and optional attributes; text nodes carry character data.  Every node
knows its parent and its :class:`~repro.xmlmodel.dewey.DeweyLabel`, which is
assigned when the node is attached to a tree and re-assigned by
:meth:`XMLNode.relabel` after structural edits.

The model intentionally stays close to what the XSACT paper needs:

* search results are XML subtrees (so nodes support subtree copies),
* the entity identifier reasons about tag names, sibling repetition and leaf
  text values,
* the feature extractor walks (entity, attribute, value) paths.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import ReproError
from repro.xmlmodel.dewey import DeweyLabel

__all__ = ["NodeKind", "XMLNode"]


class NodeKind(enum.Enum):
    """Kind of an :class:`XMLNode`."""

    ELEMENT = "element"
    TEXT = "text"


class XMLNode:
    """A node in an ordered XML tree.

    Parameters
    ----------
    tag:
        Element tag name.  ``None`` for text nodes.
    text:
        Character data.  ``None`` for element nodes without direct text; text
        nodes always have a (possibly empty) string.
    attributes:
        XML attributes of an element node.
    kind:
        Explicit node kind; inferred from ``tag`` when omitted.

    Notes
    -----
    Children are stored in document order.  Dewey labels are maintained lazily:
    construction via :class:`~repro.xmlmodel.builder.TreeBuilder` or the parser
    produces correctly-labelled trees, and :meth:`relabel` can be called after
    manual surgery.
    """

    __slots__ = ("tag", "text", "attributes", "kind", "parent", "children", "label")

    def __init__(
        self,
        tag: Optional[str] = None,
        text: Optional[str] = None,
        attributes: Optional[Dict[str, str]] = None,
        kind: Optional[NodeKind] = None,
    ):
        if kind is None:
            kind = NodeKind.ELEMENT if tag is not None else NodeKind.TEXT
        if kind is NodeKind.ELEMENT and tag is None:
            raise ReproError("element nodes require a tag name")
        if kind is NodeKind.TEXT and tag is not None:
            raise ReproError("text nodes must not have a tag name")
        self.tag = tag
        self.text = text if text is not None else ("" if kind is NodeKind.TEXT else None)
        self.attributes: Dict[str, str] = dict(attributes or {})
        self.kind = kind
        self.parent: Optional[XMLNode] = None
        self.children: List[XMLNode] = []
        self.label: DeweyLabel = DeweyLabel.root()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def element(cls, tag: str, attributes: Optional[Dict[str, str]] = None) -> "XMLNode":
        """Create a detached element node."""
        return cls(tag=tag, attributes=attributes, kind=NodeKind.ELEMENT)

    @classmethod
    def text_node(cls, text: str) -> "XMLNode":
        """Create a detached text node."""
        return cls(tag=None, text=text, kind=NodeKind.TEXT)

    def append_child(self, child: "XMLNode") -> "XMLNode":
        """Attach ``child`` as the last child and return it.

        The child's Dewey label (and its descendants') are updated.
        """
        if child.parent is not None:
            raise ReproError("node is already attached to a parent")
        child.parent = self
        self.children.append(child)
        child._assign_labels(self.label.child(len(self.children) - 1))
        return child

    def add_element(self, tag: str, attributes: Optional[Dict[str, str]] = None) -> "XMLNode":
        """Create, attach and return a new element child."""
        return self.append_child(XMLNode.element(tag, attributes))

    def add_text(self, text: str) -> "XMLNode":
        """Create, attach and return a new text child."""
        return self.append_child(XMLNode.text_node(text))

    def add_leaf(self, tag: str, value: str) -> "XMLNode":
        """Create and attach ``<tag>value</tag>`` and return the element."""
        leaf = self.add_element(tag)
        leaf.add_text(value)
        return leaf

    def detach(self) -> "XMLNode":
        """Remove this node from its parent and return it (labels reset)."""
        if self.parent is None:
            return self
        self.parent.children.remove(self)
        self.parent = None
        self._assign_labels(DeweyLabel.root())
        return self

    def _assign_labels(self, label: DeweyLabel) -> None:
        self.label = label
        for offset, child in enumerate(self.children):
            child._assign_labels(label.child(offset))

    def relabel(self, base: Optional[DeweyLabel] = None) -> None:
        """Recompute Dewey labels for this subtree.

        Parameters
        ----------
        base:
            Label to assign to this node; defaults to its current label when it
            still has a parent, or the root label otherwise.
        """
        if base is None:
            base = self.label if self.parent is not None else DeweyLabel.root()
        self._assign_labels(base)

    # ------------------------------------------------------------------ #
    # Predicates and accessors
    # ------------------------------------------------------------------ #
    @property
    def is_element(self) -> bool:
        """Whether this is an element node."""
        return self.kind is NodeKind.ELEMENT

    @property
    def is_text(self) -> bool:
        """Whether this is a text node."""
        return self.kind is NodeKind.TEXT

    @property
    def is_leaf_element(self) -> bool:
        """Whether this element's children are text nodes only (or none)."""
        return self.is_element and all(child.is_text for child in self.children)

    @property
    def is_root(self) -> bool:
        """Whether this node has no parent."""
        return self.parent is None

    @property
    def depth(self) -> int:
        """Number of edges from the tree root to this node."""
        return self.label.depth

    def element_children(self) -> List["XMLNode"]:
        """Return the element children in document order."""
        return [child for child in self.children if child.is_element]

    def text_content(self) -> str:
        """Concatenated text of all descendant text nodes, stripped."""
        parts: List[str] = []
        for node in self.walk():
            if node.is_text and node.text:
                parts.append(node.text)
        return " ".join(part.strip() for part in parts if part.strip())

    def direct_text(self) -> str:
        """Concatenated text of the node's *direct* text children, stripped."""
        parts = [child.text or "" for child in self.children if child.is_text]
        return " ".join(part.strip() for part in parts if part.strip())

    # ------------------------------------------------------------------ #
    # Navigation
    # ------------------------------------------------------------------ #
    def walk(self) -> Iterator["XMLNode"]:
        """Yield this node and all descendants in document order (pre-order)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_elements(self) -> Iterator["XMLNode"]:
        """Yield every element node of the subtree in document order."""
        for node in self.walk():
            if node.is_element:
                yield node

    def iter_leaves(self) -> Iterator["XMLNode"]:
        """Yield every leaf element (elements whose children are all text)."""
        for node in self.iter_elements():
            if node.is_leaf_element:
                yield node

    def find_children(self, tag: str) -> List["XMLNode"]:
        """Return direct element children with the given tag."""
        return [child for child in self.children if child.is_element and child.tag == tag]

    def find_child(self, tag: str) -> Optional["XMLNode"]:
        """Return the first direct element child with the given tag, if any."""
        for child in self.children:
            if child.is_element and child.tag == tag:
                return child
        return None

    def find_descendants(self, tag: str) -> List["XMLNode"]:
        """Return every descendant element (excluding self) with the tag."""
        return [node for node in self.iter_elements() if node is not self and node.tag == tag]

    def ancestors(self) -> Iterator["XMLNode"]:
        """Yield proper ancestors from the parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self) -> "XMLNode":
        """Return the root of the tree containing this node."""
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def node_at(self, label: DeweyLabel) -> "XMLNode":
        """Return the descendant node whose label is ``label``.

        The label must be relative to *this* node's label (i.e. this node's
        label must be a prefix of ``label``).
        """
        own = self.label.components
        target = label.components
        if target[: len(own)] != own:
            raise ReproError(f"label {label} is not under {self.label}")
        node = self
        for offset in target[len(own):]:
            try:
                node = node.children[offset]
            except IndexError as exc:
                raise ReproError(f"no node at label {label}") from exc
        return node

    # ------------------------------------------------------------------ #
    # Subtree operations
    # ------------------------------------------------------------------ #
    def copy(self) -> "XMLNode":
        """Return a deep copy of this subtree, detached and re-labelled.

        Labels are assigned in a single pass (each node's label is derived
        from its already-copied parent), avoiding the repeated subtree
        relabelling that per-child :meth:`append_child` calls would cost.
        """
        clone = self._shallow_clone(None, DeweyLabel.root())
        stack = [(self, clone)]
        while stack:
            source, target = stack.pop()
            label = target.label
            for offset, child in enumerate(source.children):
                child_clone = child._shallow_clone(target, label.child(offset))
                target.children.append(child_clone)
                if child.children:
                    stack.append((child, child_clone))
        return clone

    def _shallow_clone(self, parent: Optional["XMLNode"], label: DeweyLabel) -> "XMLNode":
        # A childless copy of a node that is already valid, so it skips
        # __init__'s kind checks and second attribute-dict copy, which would
        # double the cost of cloning every served search result.
        clone = XMLNode.__new__(XMLNode)
        clone.tag = self.tag
        clone.text = self.text
        clone.attributes = dict(self.attributes)
        clone.kind = self.kind
        clone.parent = parent
        clone.children = []
        clone.label = label
        return clone

    def size(self) -> int:
        """Number of nodes (elements and text) in this subtree."""
        return sum(1 for _ in self.walk())

    def count_elements(self) -> int:
        """Number of element nodes in this subtree."""
        # One stack loop without generators: ranking calls this for every
        # ranked result, so it is on the cold-query hot path.
        count = 0
        stack = [self]
        while stack:
            node = stack.pop()
            if node.kind is NodeKind.ELEMENT:
                count += 1
            stack.extend(node.children)
        return count

    def prune(self, keep: Callable[["XMLNode"], bool]) -> Optional["XMLNode"]:
        """Return a copy of the subtree keeping only nodes on paths to kept nodes.

        A node is retained if ``keep(node)`` is true for it or for any of its
        descendants; ancestors of kept nodes are retained to preserve structure.
        Returns ``None`` when nothing is kept.
        """
        kept_children = [child.prune(keep) for child in self.children]
        kept_children = [child for child in kept_children if child is not None]
        if not kept_children and not keep(self):
            return None
        clone = XMLNode(tag=self.tag, text=self.text, attributes=dict(self.attributes), kind=self.kind)
        for child in kept_children:
            clone.append_child(child)
        return clone

    def path_tags(self) -> List[str]:
        """Return the list of element tags from the root down to this node."""
        tags = [node.tag for node in self.ancestors() if node.is_element]
        tags.reverse()
        if self.is_element:
            tags.append(self.tag)
        return [tag for tag in tags if tag is not None]

    # ------------------------------------------------------------------ #
    # Dunder protocol
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        if self.is_text:
            snippet = (self.text or "")[:20]
            return f"XMLNode(text={snippet!r}, label='{self.label}')"
        return f"XMLNode(<{self.tag}>, label='{self.label}', children={len(self.children)})"

    def __len__(self) -> int:
        return len(self.children)

    def __iter__(self) -> Iterator["XMLNode"]:
        return iter(self.children)
