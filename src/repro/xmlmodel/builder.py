"""Programmatic construction of XML trees.

The synthetic dataset generators build documents node by node; the
:class:`TreeBuilder` gives them a small, stack-based API so that generator code
reads like the document structure it produces::

    builder = TreeBuilder("product")
    with builder.element("reviews"):
        with builder.element("review"):
            builder.leaf("rating", "5")
    root = builder.finish()

The :func:`element` and :func:`text_element` helpers cover the simpler cases of
building subtrees from nested literals.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Union

from repro.errors import ReproError
from repro.xmlmodel.node import XMLNode

__all__ = ["TreeBuilder", "element", "text_element"]

_ChildSpec = Union[XMLNode, str]


class TreeBuilder:
    """Stack-based builder for :class:`XMLNode` trees."""

    def __init__(self, root_tag: str, attributes: Optional[Dict[str, str]] = None):
        self._root = XMLNode.element(root_tag, attributes)
        self._stack = [self._root]
        self._finished = False

    @property
    def current(self) -> XMLNode:
        """The element that new children are currently appended to."""
        return self._stack[-1]

    @contextmanager
    def element(self, tag: str, attributes: Optional[Dict[str, str]] = None) -> Iterator[XMLNode]:
        """Open an element as a context manager; children added inside nest under it."""
        node = self.start(tag, attributes)
        try:
            yield node
        finally:
            self.end()

    def start(self, tag: str, attributes: Optional[Dict[str, str]] = None) -> XMLNode:
        """Open an element without a context manager (pair with :meth:`end`)."""
        self._check_open()
        node = self.current.add_element(tag, attributes)
        self._stack.append(node)
        return node

    def end(self) -> None:
        """Close the most recently opened element."""
        self._check_open()
        if len(self._stack) == 1:
            raise ReproError("cannot close the root element with end(); call finish()")
        self._stack.pop()

    def leaf(self, tag: str, value: object, attributes: Optional[Dict[str, str]] = None) -> XMLNode:
        """Append ``<tag>value</tag>`` under the current element."""
        self._check_open()
        node = self.current.add_element(tag, attributes)
        node.add_text(str(value))
        return node

    def text(self, value: object) -> XMLNode:
        """Append a text node under the current element."""
        self._check_open()
        return self.current.add_text(str(value))

    def subtree(self, node: XMLNode) -> XMLNode:
        """Append a detached subtree under the current element."""
        self._check_open()
        return self.current.append_child(node)

    def finish(self) -> XMLNode:
        """Close the builder and return the completed root."""
        self._check_open()
        if len(self._stack) != 1:
            raise ReproError(f"{len(self._stack) - 1} element(s) left open at finish()")
        self._finished = True
        return self._root

    def _check_open(self) -> None:
        if self._finished:
            raise ReproError("builder has already been finished")


def element(tag: str, *children: _ChildSpec, attributes: Optional[Dict[str, str]] = None) -> XMLNode:
    """Build an element from nested literals.

    String children become text nodes; node children are attached as given.

    Examples
    --------
    >>> tree = element("product", element("name", "TomTom Go 630"))
    >>> tree.find_child("name").text_content()
    'TomTom Go 630'
    """
    node = XMLNode.element(tag, attributes)
    for child in children:
        if isinstance(child, XMLNode):
            node.append_child(child)
        else:
            node.add_text(str(child))
    return node


def text_element(tag: str, value: object) -> XMLNode:
    """Build ``<tag>value</tag>`` as a detached subtree."""
    return element(tag, str(value))
