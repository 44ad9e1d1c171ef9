"""XML tree substrate used throughout the XSACT reproduction.

XSACT operates on *structured* search results.  In the paper those results are
XML subtrees returned by the XSeek search engine, so the rest of the library is
built on a small, self-contained XML data model:

* :class:`~repro.xmlmodel.dewey.DeweyLabel` — hierarchical node labels that make
  ancestor tests and lowest-common-ancestor computation cheap, which the SLCA /
  ELCA search algorithms rely on.
* :class:`~repro.xmlmodel.node.XMLNode` — an ordered tree node with element /
  text distinction, navigation helpers and subtree utilities; it stores no
  label, so a label addresses a node by child offsets from a root.
* :func:`~repro.xmlmodel.parser.parse_xml` — a dependency-free XML parser for
  the subset of XML used by the datasets (elements, attributes, text, comments,
  CDATA, declarations, entity references).
* :func:`~repro.xmlmodel.serializer.serialize` — the inverse of the parser.
* :class:`~repro.xmlmodel.builder.TreeBuilder` — a programmatic builder used by
  the synthetic dataset generators.
* :mod:`~repro.xmlmodel.path` — minimal path expressions ("product/reviews/review")
  for navigating result trees.
"""

from repro.xmlmodel.builder import TreeBuilder, element, text_element
from repro.xmlmodel.dewey import DeweyLabel, common_ancestor_label
from repro.xmlmodel.node import NodeKind, XMLNode
from repro.xmlmodel.parser import parse_xml, parse_xml_file
from repro.xmlmodel.path import PathExpression, find_all, find_first
from repro.xmlmodel.serializer import serialize, to_pretty_xml

__all__ = [
    "DeweyLabel",
    "common_ancestor_label",
    "NodeKind",
    "XMLNode",
    "parse_xml",
    "parse_xml_file",
    "serialize",
    "to_pretty_xml",
    "TreeBuilder",
    "element",
    "text_element",
    "PathExpression",
    "find_all",
    "find_first",
]
