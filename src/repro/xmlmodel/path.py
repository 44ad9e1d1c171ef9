"""Minimal path expressions over :class:`~repro.xmlmodel.node.XMLNode` trees.

The feature extractor and the dataset loaders navigate result trees with simple
slash-separated tag paths.  The supported grammar is intentionally tiny —
the goal is readable navigation code, not an XPath engine:

* ``a/b/c`` — child steps by tag name,
* ``*`` — any element child,
* ``//a`` prefix — descendant-or-self search for the first step,
* ``.`` — stay on the current node.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ReproError
from repro.xmlmodel.node import XMLNode

__all__ = ["PathExpression", "find_all", "find_first"]


class PathExpression:
    """A compiled path expression."""

    def __init__(self, expression: str):
        if not expression or not expression.strip():
            raise ReproError("empty path expression")
        self.expression = expression.strip()
        self.descendant_first = self.expression.startswith("//")
        body = self.expression[2:] if self.descendant_first else self.expression
        self.steps: List[str] = [step for step in body.split("/") if step and step != "."]
        if self.descendant_first and not self.steps:
            raise ReproError(f"descendant path needs at least one step: {expression!r}")

    def evaluate(self, node: XMLNode) -> List[XMLNode]:
        """Return every element matched by this path starting at ``node``."""
        if not self.steps:
            return [node]
        first, *rest = self.steps
        if self.descendant_first:
            frontier = [candidate for candidate in node.iter_elements() if _matches(candidate, first)]
        else:
            frontier = [child for child in node.element_children() if _matches(child, first)]
        for step in rest:
            next_frontier: List[XMLNode] = []
            for current in frontier:
                next_frontier.extend(
                    child for child in current.element_children() if _matches(child, step)
                )
            frontier = next_frontier
        return frontier

    def __repr__(self) -> str:
        return f"PathExpression({self.expression!r})"


def _matches(node: XMLNode, step: str) -> bool:
    return step == "*" or node.tag == step


def find_all(node: XMLNode, expression: str) -> List[XMLNode]:
    """Return all elements under ``node`` matching a path expression."""
    return PathExpression(expression).evaluate(node)


def find_first(node: XMLNode, expression: str) -> Optional[XMLNode]:
    """Return the first element matching a path expression, or ``None``."""
    matches = PathExpression(expression).evaluate(node)
    return matches[0] if matches else None
