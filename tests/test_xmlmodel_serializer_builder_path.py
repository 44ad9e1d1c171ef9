"""Unit tests for the serializer, the tree builder and path expressions."""

import pytest

from repro.errors import ReproError
from repro.xmlmodel.builder import TreeBuilder, element, text_element
from repro.xmlmodel.dewey import DeweyLabel
from repro.xmlmodel.node import XMLNode
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.path import PathExpression, find_all, find_first
from repro.xmlmodel.serializer import escape_attribute, escape_text, serialize, to_pretty_xml


class TestSerializer:
    def test_self_closing_empty_element(self):
        assert serialize(XMLNode.element("a")) == "<a/>"

    def test_attributes_serialised(self):
        node = XMLNode.element("a", {"x": "1", "y": 'two "quoted"'})
        assert serialize(node) == '<a x="1" y="two &quot;quoted&quot;"/>'

    def test_text_escaping(self):
        assert escape_text("a < b & c > d") == "a &lt; b &amp; c &gt; d"
        assert escape_attribute('say "hi"') == "say &quot;hi&quot;"

    def test_nested_serialisation(self):
        node = element("a", element("b", "text"), element("c"))
        assert serialize(node) == "<a><b>text</b><c/></a>"

    def test_pretty_print_puts_leaves_on_one_line(self):
        node = element("a", element("b", "text"), element("c", element("d", "x")))
        pretty = to_pretty_xml(node)
        assert "  <b>text</b>" in pretty
        assert pretty.splitlines()[0] == "<a>"
        assert pretty.splitlines()[-1] == "</a>"

    def test_round_trip_through_parser(self):
        node = element("p", element("q", "1 < 2"), element("r", "a & b"))
        assert serialize(parse_xml(serialize(node))) == serialize(node)


class TestTreeBuilder:
    def test_nested_context_managers(self):
        builder = TreeBuilder("product")
        with builder.element("reviews"):
            with builder.element("review"):
                builder.leaf("rating", 5)
        root = builder.finish()
        assert root.find_child("reviews").children[0].find_child("rating").direct_text() == "5"

    def test_labels_correct_after_finish(self):
        builder = TreeBuilder("a")
        with builder.element("b"):
            builder.leaf("c", "x")
        builder.leaf("d", "y")
        root = builder.finish()
        assert root.node_at(DeweyLabel((0,))) is root.find_child("b")
        assert root.node_at(DeweyLabel((1,))) is root.find_child("d")

    def test_start_end_pairing(self):
        builder = TreeBuilder("a")
        builder.start("b")
        builder.leaf("c", 1)
        builder.end()
        root = builder.finish()
        assert root.find_child("b").find_child("c").direct_text() == "1"

    def test_unbalanced_finish_raises(self):
        builder = TreeBuilder("a")
        builder.start("b")
        with pytest.raises(ReproError):
            builder.finish()

    def test_end_at_root_raises(self):
        builder = TreeBuilder("a")
        with pytest.raises(ReproError):
            builder.end()

    def test_use_after_finish_raises(self):
        builder = TreeBuilder("a")
        builder.finish()
        with pytest.raises(ReproError):
            builder.leaf("x", 1)

    def test_subtree_attachment(self):
        builder = TreeBuilder("a")
        builder.subtree(element("b", "text"))
        root = builder.finish()
        assert root.find_child("b").direct_text() == "text"

    def test_element_helper_with_attributes(self):
        node = element("a", "text", attributes={"k": "v"})
        assert node.attributes == {"k": "v"}
        assert node.direct_text() == "text"

    def test_text_element_helper(self):
        node = text_element("name", 42)
        assert node.tag == "name"
        assert node.direct_text() == "42"


class TestPathExpressions:
    @pytest.fixture()
    def tree(self):
        return parse_xml(
            "<product><name>n</name><reviews>"
            "<review><rating>5</rating></review>"
            "<review><rating>3</rating></review>"
            "</reviews></product>"
        )

    def test_child_steps(self, tree):
        assert [n.direct_text() for n in find_all(tree, "reviews/review/rating")] == ["5", "3"]

    def test_wildcard_step(self, tree):
        assert len(find_all(tree, "reviews/*")) == 2

    def test_descendant_prefix(self, tree):
        assert len(find_all(tree, "//rating")) == 2

    def test_find_first(self, tree):
        assert find_first(tree, "reviews/review/rating").direct_text() == "5"
        assert find_first(tree, "missing/path") is None

    def test_dot_and_empty_steps(self, tree):
        assert find_all(tree, "./name")[0].direct_text() == "n"

    def test_empty_expression_rejected(self):
        with pytest.raises(ReproError):
            PathExpression("   ")

    def test_descendant_without_step_rejected(self):
        with pytest.raises(ReproError):
            PathExpression("//")

    def test_repr(self):
        assert "reviews" in repr(PathExpression("reviews/review"))
