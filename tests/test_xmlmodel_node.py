"""Unit tests for the XMLNode tree type."""

import pytest

from repro.errors import ReproError
from repro.xmlmodel.dewey import DeweyLabel
from repro.xmlmodel.node import NodeKind, XMLNode


def build_sample_tree() -> XMLNode:
    root = XMLNode.element("product")
    name = root.add_leaf("name", "TomTom Go 630")
    reviews = root.add_element("reviews")
    review1 = reviews.add_element("review")
    review1.add_leaf("rating", "5")
    review2 = reviews.add_element("review")
    review2.add_leaf("rating", "3")
    return root


class TestConstruction:
    def test_element_requires_tag(self):
        with pytest.raises(ReproError):
            XMLNode(tag=None, kind=NodeKind.ELEMENT)

    def test_text_node_must_not_have_tag(self):
        with pytest.raises(ReproError):
            XMLNode(tag="x", kind=NodeKind.TEXT)

    def test_add_leaf_creates_element_with_text(self):
        root = XMLNode.element("root")
        leaf = root.add_leaf("name", "value")
        assert leaf.is_leaf_element
        assert leaf.direct_text() == "value"

    def test_labels_assigned_on_attach(self):
        root = build_sample_tree()
        reviews = root.find_child("reviews")
        assert root.node_at(DeweyLabel((1,))) is reviews
        assert root.node_at(DeweyLabel((1, 0))) is reviews.children[0]
        extra = XMLNode.element("extra")
        leaf = extra.add_leaf("x", "1")
        assert root.append_child(extra) is extra
        assert root.node_at(DeweyLabel((2, 0))) is leaf


class TestPredicates:
    def test_is_leaf_element(self):
        root = build_sample_tree()
        assert root.find_child("name").is_leaf_element
        assert not root.find_child("reviews").is_leaf_element

    def test_text_content_concatenates_descendants(self):
        root = build_sample_tree()
        assert "TomTom Go 630" in root.text_content()
        assert "5" in root.text_content()

    def test_direct_text_ignores_descendants(self):
        root = build_sample_tree()
        assert root.direct_text() == ""
        assert root.find_child("name").direct_text() == "TomTom Go 630"


class TestNavigation:
    def test_walk_is_preorder_document_order(self):
        root = build_sample_tree()
        tags = [node.tag for node in root.walk() if node.is_element]
        assert tags == ["product", "name", "reviews", "review", "rating", "review", "rating"]

    def test_iter_leaves(self):
        root = build_sample_tree()
        leaves = [leaf.tag for leaf in root.iter_leaves()]
        assert leaves == ["name", "rating", "rating"]

    def test_find_children_and_descendants(self):
        root = build_sample_tree()
        assert len(root.find_children("reviews")) == 1
        assert len(root.find_descendants("review")) == 2
        assert root.find_child("missing") is None

    def test_path_to(self):
        root = build_sample_tree()
        rating = root.find_descendants("rating")[0]
        path = root.path_to(DeweyLabel((1, 0, 0)))
        assert [node.tag for node in path] == ["product", "reviews", "review", "rating"]
        assert path[-1] is rating
        # A label is read relative to the node it is given to.
        reviews = root.find_child("reviews")
        assert reviews.path_to(DeweyLabel((0, 0))) == path[1:]
        assert root.path_to(DeweyLabel.root()) == [root]

    def test_node_at_label(self):
        root = build_sample_tree()
        reviews = root.find_child("reviews")
        target = root.node_at(DeweyLabel((1, 0, 0)))
        assert target.tag == "rating"
        # Relative lookup from a non-root node.
        assert reviews.node_at(DeweyLabel((1,))) is reviews.children[1]

    def test_node_at_missing_offset_raises(self):
        root = build_sample_tree()
        with pytest.raises(ReproError):
            root.node_at(DeweyLabel((9, 9)))


class TestSubtreeOperations:
    def test_copy_is_deep_and_detached(self):
        root = build_sample_tree()
        reviews = root.find_child("reviews")
        clone = reviews.copy()
        assert clone.node_at(DeweyLabel((1, 0))) is not reviews.node_at(DeweyLabel((1, 0)))
        assert [node.tag for node in clone.iter_elements()] == [
            node.tag for node in reviews.iter_elements()
        ]
        clone.children[0].find_child("rating").children[0].text = "1"
        assert reviews.children[0].find_child("rating").direct_text() == "5"

    def test_size_and_count_elements(self):
        root = build_sample_tree()
        assert sum(1 for _ in root.iter_elements()) == 7
        assert root.size() == 10  # 7 elements + 3 text nodes

    def test_relabel_after_surgery(self):
        # A label names a position, so it follows children-list edits at once.
        root = build_sample_tree()
        extra = XMLNode.element("extra")
        root.children.insert(0, extra)
        assert root.node_at(DeweyLabel((0,))) is extra
        assert root.node_at(DeweyLabel((1,))) is root.find_child("name")

    def test_len_and_iter(self):
        root = build_sample_tree()
        assert len(root) == 2
        assert [child.tag for child in root] == ["name", "reviews"]
