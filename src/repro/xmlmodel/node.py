"""The :class:`XMLNode` tree type.

An :class:`XMLNode` is an ordered tree node: its tag, text, attributes, kind
and children.  Element nodes carry a tag name and optional attributes; text
nodes carry character data.  A node stores neither its parent nor its
position.  The corpus's structural table owns every element's position and
derives its Dewey label on demand; :meth:`XMLNode.path_to` reads such a
label relative to the node it is called on, following the child offsets
down.  A tree built as one is acyclic, so reference counting frees a
dropped tree at once, without waiting for a garbage collection.

The model intentionally stays close to what the XSACT paper needs:

* search results are XML subtrees (so nodes support subtree copies),
* the entity identifier reasons about tag names, sibling repetition and leaf
  text values,
* the feature extractor walks (entity, attribute, value) paths.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Iterator, List, Optional

from repro.errors import ReproError

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
    Children are stored in document order.  A node's position is its offset
    in its parent's children list, so attaching, inserting or removing a
    child needs no bookkeeping elsewhere.
    """

    __slots__ = ("tag", "text", "attributes", "kind", "children")

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
        self.children: List[XMLNode] = []

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

        Nothing checks that ``child`` is detached: as in
        :mod:`xml.etree.ElementTree`, a node put under two parents is walked
        once under each.
        """
        self.children.append(child)
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

    def path_to(self, label: Iterable[int]) -> List["XMLNode"]:
        """Return the nodes from this node down to the one at ``label``.

        ``label`` is a Dewey label read relative to this node: each
        component picks a child of the node reached so far, so from a
        document root it is the label the structural table derives.  The
        list starts with this node and ends with the target: the target's
        ancestor-or-self chain within this subtree, read top-down.

        Raises
        ------
        ReproError
            If an offset runs past the children of the node it indexes.
        """
        node = self
        path = [node]
        for offset in label:
            try:
                node = node.children[offset]
            except IndexError as exc:
                raise ReproError(f"no node at label {label}") from exc
            path.append(node)
        return path

    def node_at(self, label: Iterable[int]) -> "XMLNode":
        """Return the descendant at ``label``, read relative to this node."""
        return self.path_to(label)[-1]

    # ------------------------------------------------------------------ #
    # Subtree operations
    # ------------------------------------------------------------------ #
    def copy(self) -> "XMLNode":
        """Return a deep copy of this subtree as a new root.

        This is the way to get an editable tree out of a shared one, such as
        a search result's subtree, which is the stored document's own node.
        """
        clone = self._shallow_clone()
        stack = [(self, clone)]
        while stack:
            source, target = stack.pop()
            for child in source.children:
                child_clone = child._shallow_clone()
                target.children.append(child_clone)
                if child.children:
                    stack.append((child, child_clone))
        return clone

    def _shallow_clone(self) -> "XMLNode":
        # A childless copy of a node that is already valid, so it skips
        # __init__'s kind checks and second attribute-dict copy, which would
        # double the cost of copying a large subtree.
        clone = XMLNode.__new__(XMLNode)
        clone.tag = self.tag
        clone.text = self.text
        clone.attributes = dict(self.attributes)
        clone.kind = self.kind
        clone.children = []
        return clone

    def size(self) -> int:
        """Number of nodes (elements and text) in this subtree."""
        return sum(1 for _ in self.walk())

    # ------------------------------------------------------------------ #
    # Dunder protocol
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        if self.is_text:
            snippet = (self.text or "")[:20]
            return f"XMLNode(text={snippet!r})"
        return f"XMLNode(<{self.tag}>, children={len(self.children)})"

    def __len__(self) -> int:
        return len(self.children)

    def __iter__(self) -> Iterator["XMLNode"]:
        return iter(self.children)
