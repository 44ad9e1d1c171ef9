"""A dependency-free XML parser producing :class:`~repro.xmlmodel.node.XMLNode` trees.

The parser covers the XML subset that the XSACT datasets (Product Reviews,
Outdoor Retailer, IMDB) and the test corpora need:

* elements with attributes (single- or double-quoted),
* character data and the five predefined entity references,
* numeric character references (decimal and hexadecimal),
* comments, processing instructions and the XML declaration (skipped),
* CDATA sections,
* a DOCTYPE declaration without an internal subset (skipped).

It is deliberately strict about well-formedness — mismatched tags, unterminated
constructs and stray markup raise :class:`~repro.errors.XMLParseError` with the
character offset, because the search substrate indexes documents by position and
silently mis-parsed data would corrupt every downstream experiment.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Union

from repro.errors import XMLParseError
from repro.xmlmodel.node import XMLNode

__all__ = ["parse_xml", "parse_xml_file"]

_NAME_PATTERN = re.compile(r"[A-Za-z_][\w.\-]*")
_ENTITY_MAP = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}


def parse_xml(text: str) -> XMLNode:
    """Parse an XML document string and return its root element node.

    Raises
    ------
    XMLParseError
        If the document is not well formed, or nests elements deeper than the
        recursive-descent parser can follow.
    """
    try:
        return _Parser(text).parse_document()
    except RecursionError:
        raise XMLParseError("document nests too deeply to parse") from None


def parse_xml_file(path: Union[str, Path]) -> XMLNode:
    """Parse the XML document stored at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_xml(handle.read())


class _Parser:
    """Recursive-descent parser over a character buffer."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.length = len(text)

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def parse_document(self) -> XMLNode:
        self._skip_prolog()
        root = self._parse_element()
        self._skip_misc()
        if self.pos != self.length:
            raise XMLParseError(
                f"unexpected content after document element at offset {self.pos}",
                position=self.pos,
            )
        return root

    # ------------------------------------------------------------------ #
    # Prolog / misc
    # ------------------------------------------------------------------ #
    def _skip_prolog(self) -> None:
        self._skip_whitespace()
        while self.pos < self.length and self.text.startswith("<", self.pos):
            if self.text.startswith("<?", self.pos):
                self._skip_until("?>")
            elif self.text.startswith("<!--", self.pos):
                self._skip_until("-->")
            elif self.text.startswith("<!DOCTYPE", self.pos):
                self._skip_doctype()
            else:
                break
            self._skip_whitespace()
        if self.pos >= self.length:
            raise XMLParseError("document has no root element", position=self.pos)

    def _skip_misc(self) -> None:
        self._skip_whitespace()
        while self.pos < self.length:
            if self.text.startswith("<?", self.pos):
                self._skip_until("?>")
            elif self.text.startswith("<!--", self.pos):
                self._skip_until("-->")
            else:
                break
            self._skip_whitespace()

    def _skip_doctype(self) -> None:
        # Skip "<!DOCTYPE ... >" allowing a bracketed internal subset.
        depth = 0
        start = self.pos
        while self.pos < self.length:
            char = self.text[self.pos]
            if char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
            elif char == ">" and depth <= 0:
                self.pos += 1
                return
            self.pos += 1
        raise XMLParseError("unterminated DOCTYPE declaration", position=start)

    # ------------------------------------------------------------------ #
    # Elements
    # ------------------------------------------------------------------ #
    def _parse_element(self) -> XMLNode:
        if not self.text.startswith("<", self.pos):
            raise XMLParseError(f"expected '<' at offset {self.pos}", position=self.pos)
        start = self.pos
        self.pos += 1
        tag = self._parse_name()
        attributes = self._parse_attributes()
        self._skip_whitespace()
        if self.text.startswith("/>", self.pos):
            self.pos += 2
            return XMLNode.element(tag, attributes)
        if not self.text.startswith(">", self.pos):
            raise XMLParseError(f"malformed start tag <{tag}> at offset {start}", position=start)
        self.pos += 1
        node = XMLNode.element(tag, attributes)
        self._parse_content(node)
        self._parse_end_tag(tag)
        return node

    def _parse_content(self, node: XMLNode) -> None:
        buffer: List[str] = []

        def flush_text() -> None:
            if buffer:
                text = "".join(buffer)
                if text.strip():
                    node.append_child(XMLNode.text_node(text.strip()))
                buffer.clear()

        while self.pos < self.length:
            if self.text.startswith("</", self.pos):
                flush_text()
                return
            if self.text.startswith("<!--", self.pos):
                flush_text()
                self._skip_until("-->")
                continue
            if self.text.startswith("<![CDATA[", self.pos):
                buffer.append(self._parse_cdata())
                continue
            if self.text.startswith("<?", self.pos):
                flush_text()
                self._skip_until("?>")
                continue
            if self.text.startswith("<", self.pos):
                flush_text()
                node.append_child(self._parse_element())
                continue
            buffer.append(self._parse_char_data())
        raise XMLParseError(f"unterminated element <{node.tag}>", position=self.pos)

    def _parse_end_tag(self, expected: str) -> None:
        start = self.pos
        if not self.text.startswith("</", self.pos):
            raise XMLParseError(f"expected closing tag for <{expected}>", position=start)
        self.pos += 2
        tag = self._parse_name()
        self._skip_whitespace()
        if not self.text.startswith(">", self.pos):
            raise XMLParseError(f"malformed closing tag </{tag}>", position=start)
        self.pos += 1
        if tag != expected:
            raise XMLParseError(
                f"mismatched closing tag: expected </{expected}>, found </{tag}>",
                position=start,
            )

    # ------------------------------------------------------------------ #
    # Lexical pieces
    # ------------------------------------------------------------------ #
    def _parse_name(self) -> str:
        match = _NAME_PATTERN.match(self.text, self.pos)
        if match is None:
            raise XMLParseError(f"expected a name at offset {self.pos}", position=self.pos)
        self.pos = match.end()
        return match.group(0)

    def _parse_attributes(self) -> Dict[str, str]:
        attributes: Dict[str, str] = {}
        while True:
            self._skip_whitespace()
            if self.pos >= self.length:
                raise XMLParseError("unterminated start tag", position=self.pos)
            if self.text[self.pos] in (">", "/"):
                return attributes
            name = self._parse_name()
            self._skip_whitespace()
            if not self.text.startswith("=", self.pos):
                raise XMLParseError(f"attribute {name!r} missing '='", position=self.pos)
            self.pos += 1
            self._skip_whitespace()
            attributes[name] = self._parse_attribute_value()

    def _parse_attribute_value(self) -> str:
        if self.pos >= self.length or self.text[self.pos] not in ("'", '"'):
            raise XMLParseError("attribute value must be quoted", position=self.pos)
        quote = self.text[self.pos]
        self.pos += 1
        end = self.text.find(quote, self.pos)
        if end == -1:
            raise XMLParseError("unterminated attribute value", position=self.pos)
        raw = self.text[self.pos:end]
        self.pos = end + 1
        return _decode_entities(raw, self.pos)

    def _parse_char_data(self) -> str:
        end = self.text.find("<", self.pos)
        if end == -1:
            end = self.length
        raw = self.text[self.pos:end]
        start = self.pos
        self.pos = end
        return _decode_entities(raw, start)

    def _parse_cdata(self) -> str:
        start = self.pos + len("<![CDATA[")
        end = self.text.find("]]>", start)
        if end == -1:
            raise XMLParseError("unterminated CDATA section", position=self.pos)
        self.pos = end + 3
        return self.text[start:end]

    # ------------------------------------------------------------------ #
    # Low-level helpers
    # ------------------------------------------------------------------ #
    def _skip_whitespace(self) -> None:
        while self.pos < self.length and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def _skip_until(self, terminator: str) -> None:
        end = self.text.find(terminator, self.pos)
        if end == -1:
            raise XMLParseError(f"unterminated construct (missing {terminator!r})", position=self.pos)
        self.pos = end + len(terminator)


def _decode_entities(raw: str, position: int) -> str:
    """Replace entity and character references in character data."""
    if "&" not in raw:
        return raw
    out: List[str] = []
    index = 0
    while index < len(raw):
        char = raw[index]
        if char != "&":
            out.append(char)
            index += 1
            continue
        end = raw.find(";", index)
        if end == -1:
            raise XMLParseError("unterminated entity reference", position=position + index)
        name = raw[index + 1:end]
        out.append(_decode_entity_name(name, position + index))
        index = end + 1
    return "".join(out)


def _decode_entity_name(name: str, position: int) -> str:
    if name in _ENTITY_MAP:
        return _ENTITY_MAP[name]
    if name.startswith("#x") or name.startswith("#X"):
        try:
            return chr(int(name[2:], 16))
        except ValueError as exc:
            raise XMLParseError(f"bad character reference &{name};", position=position) from exc
    if name.startswith("#"):
        try:
            return chr(int(name[1:]))
        except ValueError as exc:
            raise XMLParseError(f"bad character reference &{name};", position=position) from exc
    raise XMLParseError(f"unknown entity &{name};", position=position)
