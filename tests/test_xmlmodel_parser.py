"""Unit tests for the XML parser."""

import pytest

from repro.errors import XMLParseError
from repro.xmlmodel.dewey import DeweyLabel
from repro.xmlmodel.parser import parse_xml, parse_xml_file
from repro.xmlmodel.serializer import serialize


class TestBasicParsing:
    def test_single_element(self):
        root = parse_xml("<a/>")
        assert root.tag == "a"
        assert root.children == []

    def test_element_with_text(self):
        root = parse_xml("<a>hello</a>")
        assert root.direct_text() == "hello"

    def test_nested_elements(self):
        root = parse_xml("<a><b><c>x</c></b></a>")
        assert root.find_child("b").find_child("c").direct_text() == "x"

    def test_attributes_double_and_single_quotes(self):
        root = parse_xml("""<a x="1" y='two'/>""")
        assert root.attributes == {"x": "1", "y": "two"}

    def test_mixed_content_keeps_text(self):
        root = parse_xml("<a>before<b/>after</a>")
        texts = [child.text for child in root.children if child.is_text]
        assert texts == ["before", "after"]

    def test_whitespace_only_text_dropped(self):
        root = parse_xml("<a>\n  <b/>\n</a>")
        assert all(not child.is_text for child in root.children)

    def test_dewey_labels_assigned(self):
        root = parse_xml("<a><b/><c><d/></c></a>")
        c = root.find_child("c")
        assert root.node_at(DeweyLabel.parse("1")) is c
        assert root.node_at(DeweyLabel.parse("1.0")) is c.find_child("d")


class TestProlog:
    def test_xml_declaration_skipped(self):
        root = parse_xml('<?xml version="1.0" encoding="utf-8"?><a/>')
        assert root.tag == "a"

    def test_doctype_skipped(self):
        root = parse_xml("<!DOCTYPE product><a/>")
        assert root.tag == "a"

    def test_doctype_with_internal_subset(self):
        root = parse_xml("<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a/>")
        assert root.tag == "a"

    def test_comments_before_and_after_root(self):
        root = parse_xml("<!-- pre --><a/><!-- post -->")
        assert root.tag == "a"

    def test_comment_inside_content_ignored(self):
        root = parse_xml("<a><!-- note --><b/></a>")
        assert [child.tag for child in root.children] == ["b"]


class TestEntitiesAndCdata:
    def test_predefined_entities(self):
        root = parse_xml("<a>1 &lt; 2 &amp;&amp; 3 &gt; 2 &quot;q&quot; &apos;s&apos;</a>")
        assert root.direct_text() == "1 < 2 && 3 > 2 \"q\" 's'"

    def test_numeric_character_references(self):
        root = parse_xml("<a>&#65;&#x42;</a>")
        assert root.direct_text() == "AB"

    def test_entities_in_attributes(self):
        root = parse_xml('<a title="a &amp; b"/>')
        assert root.attributes["title"] == "a & b"

    def test_unknown_entity_raises(self):
        with pytest.raises(XMLParseError):
            parse_xml("<a>&unknown;</a>")

    def test_cdata_preserved_verbatim(self):
        root = parse_xml("<a><![CDATA[1 < 2 & stuff]]></a>")
        assert root.direct_text() == "1 < 2 & stuff"


class TestErrors:
    @pytest.mark.parametrize(
        "document",
        [
            "",
            "just text",
            "<a>",
            "<a></b>",
            "<a><b></a></b>",
            "<a x=1/>",
            "<a x='1/>",
            "<a/><b/>",
            "<a>&#xZZ;</a>",
            "<!-- unterminated <a/>",
            "<a><![CDATA[oops</a>",
        ],
    )
    def test_malformed_documents_raise(self, document):
        with pytest.raises(XMLParseError):
            parse_xml(document)

    def test_error_carries_position(self):
        try:
            parse_xml("<a><b></a></b>")
        except XMLParseError as error:
            assert error.position is not None
        else:  # pragma: no cover - the parse must fail
            pytest.fail("expected XMLParseError")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "document",
        [
            "<a/>",
            "<a>text</a>",
            '<a x="1"><b>t</b><c/></a>',
            "<product><name>TomTom &amp; friends</name></product>",
        ],
    )
    def test_parse_serialize_parse_is_stable(self, document):
        once = parse_xml(document)
        twice = parse_xml(serialize(once))
        assert serialize(once) == serialize(twice)

    def test_parse_file(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text("<a><b>hi</b></a>", encoding="utf-8")
        root = parse_xml_file(path)
        assert root.find_child("b").direct_text() == "hi"
