"""Unit tests for entity classification, schema inference and feature extraction."""

import pytest

from repro.entity.classifier import (
    NodeCategory,
    NodeClassifier,
    classify_result_tree,
    owned_leaves,
)
from repro.entity.schema import infer_schema
from repro.errors import EntityInferenceError, FeatureExtractionError
from repro.features.extractor import FeatureExtractor
from repro.features.feature import Feature, FeatureType
from repro.features.statistics import FeatureStatistics, ResultFeatures
from repro.storage.statistics import CorpusStatistics
from repro.xmlmodel.node import XMLNode
from repro.xmlmodel.parser import parse_xml


class TestNodeClassifier:
    def test_repeating_node_is_entity(self, product_example_tree):
        categories = classify_result_tree(product_example_tree)
        reviews = product_example_tree.find_child("reviews")
        for review in reviews.children:
            assert categories[review] is NodeCategory.ENTITY

    def test_root_is_entity(self, product_example_tree):
        categories = classify_result_tree(product_example_tree)
        assert categories[product_example_tree] is NodeCategory.ENTITY

    def test_leaf_elements_are_attributes(self, product_example_tree):
        categories = classify_result_tree(product_example_tree)
        name = product_example_tree.find_child("name")
        assert categories[name] is NodeCategory.ATTRIBUTE

    def test_grouping_nodes_are_connections(self, product_example_tree):
        categories = classify_result_tree(product_example_tree)
        reviews = product_example_tree.find_child("reviews")
        pros = reviews.children[0].find_child("pros")
        reviewer = reviews.children[0].find_child("reviewer")
        assert categories[reviews] is NodeCategory.CONNECTION
        assert categories[pros] is NodeCategory.CONNECTION
        assert categories[reviewer] is NodeCategory.CONNECTION

    def test_corpus_statistics_can_promote_entities(self):
        # "item" never repeats inside this single tree, but the corpus says it does.
        tree = parse_xml("<catalog><item><name>a</name><size>1</size></item></catalog>")
        stats = CorpusStatistics()
        stats.add_document(parse_xml("<catalog><item/><item/></catalog>"))
        categories = NodeClassifier(statistics=stats).classify(tree)
        item = tree.find_child("item")
        assert categories[item] is NodeCategory.ENTITY

    def test_owning_entity_walks_to_nearest_entity(self, product_example_tree):
        categories = NodeClassifier().classify(product_example_tree)
        compact = product_example_tree.find_descendants("compact")[0]
        owned = {
            leaf: (parent, owner)
            for leaf, parent, owner in owned_leaves(product_example_tree, categories)
        }
        parent, owner = owned[compact]
        assert owner.tag == "review"
        assert parent.tag == "pros"
        # Every leaf, in document order.
        assert list(owned) == list(product_example_tree.iter_leaves())

    def test_classify_rejects_text_node(self):
        with pytest.raises(EntityInferenceError):
            classify_result_tree(XMLNode.text_node("hello"))


class TestSchemaInference:
    def test_product_schema(self, product_example_tree):
        schemas = infer_schema([product_example_tree])
        assert "product" in schemas and "review" in schemas
        assert schemas["review"].instance_count == 3
        review_attributes = set(schemas["review"].attributes)
        assert "review_rating" in review_attributes
        assert "compact" in review_attributes

    def test_attribute_ordering_by_occurrence(self, product_example_tree):
        schemas = infer_schema([product_example_tree])
        names = schemas["review"].attribute_names()
        assert names.index("review_rating") < names.index("large_screen")

    def test_sample_values_capped_and_deduplicated(self, product_example_tree):
        schemas = infer_schema([product_example_tree])
        samples = schemas["product"].attributes["name"].sample_values
        assert samples == ["TomTom Go 630 Portable GPS"]


class TestFeatureValueObjects:
    def test_feature_type_of_feature(self):
        feature = Feature("product", "name", "TomTom")
        assert feature.feature_type == FeatureType("product", "name")
        assert feature.as_tuple() == ("product", "name", "TomTom")
        assert str(feature) == "product.name:TomTom"

    def test_feature_type_parse_round_trip(self):
        feature_type = FeatureType("review.pro", "compact")
        assert FeatureType.parse(str(feature_type)) == feature_type

    def test_feature_type_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FeatureType.parse("nodot")

    def test_feature_ordering_is_total(self):
        features = [Feature("b", "x", "1"), Feature("a", "y", "2"), Feature("a", "x", "3")]
        assert sorted(features)[0] == Feature("a", "x", "3")


class TestFeatureStatisticsContainer:
    def make_row(self, entity, attribute, value, occurrences, population):
        return FeatureStatistics(
            feature=Feature(entity, attribute, value),
            occurrences=occurrences,
            population=population,
        )

    def test_rate(self):
        row = self.make_row("review.pro", "compact", "yes", 8, 11)
        assert row.rate == pytest.approx(8 / 11)
        assert "compact" in str(row)

    def test_invalid_counts_rejected(self):
        with pytest.raises(FeatureExtractionError):
            self.make_row("e", "a", "v", -1, 5)
        with pytest.raises(FeatureExtractionError):
            self.make_row("e", "a", "v", 6, 5)

    def test_dominant_value_kept_per_type(self):
        result = ResultFeatures("R1")
        result.add(self.make_row("movie", "genre", "drama", 1, 3))
        result.add(self.make_row("movie", "genre", "action", 2, 3))
        result.add(self.make_row("movie", "genre", "comedy", 1, 3))
        assert len(result) == 1
        assert result.get(FeatureType("movie", "genre")).feature.value == "action"

    def test_significance_order_and_rank(self):
        result = ResultFeatures("R1")
        result.add(self.make_row("review.pro", "compact", "yes", 8, 11))
        result.add(self.make_row("review.pro", "easy_to_read", "yes", 10, 11))
        result.add(self.make_row("review.pro", "large_screen", "yes", 1, 11))
        ordered = result.significance_order("review.pro")
        assert [row.feature.attribute for row in ordered] == [
            "easy_to_read",
            "compact",
            "large_screen",
        ]
        assert result.significance_rank(FeatureType("review.pro", "easy_to_read")) == 0
        assert result.significance_rank(FeatureType("review.pro", "large_screen")) == 2
        with pytest.raises(KeyError):
            result.significance_rank(FeatureType("review.pro", "missing"))

    def test_top_rows_across_entities(self):
        result = ResultFeatures("R1")
        result.add(self.make_row("product", "name", "X", 1, 1))
        result.add(self.make_row("review.pro", "compact", "yes", 9, 10))
        result.add(self.make_row("review.con", "heavy", "yes", 5, 10))
        top2 = result.top_rows(2)
        assert [row.occurrences for row in top2] == [9, 5]

    def test_entities_and_rows_for_entity(self):
        result = ResultFeatures("R1")
        result.add(self.make_row("product", "name", "X", 1, 1))
        result.add(self.make_row("review.pro", "compact", "yes", 9, 10))
        assert result.entities() == ["product", "review.pro"]
        assert len(result.rows_for_entity("product")) == 1
        assert result.total_occurrences() == 10


class TestFeatureExtractor:
    def test_figure1_style_statistics(self, product_example_tree):
        extractor = FeatureExtractor()
        features = extractor.extract_from_tree(product_example_tree, result_id="R1")
        compact = features.get(FeatureType("review.pro", "compact"))
        assert compact is not None
        assert compact.occurrences == 2
        assert compact.population == 3  # three reviews
        assert compact.feature.value == "yes"

        easy = features.get(FeatureType("review.pro", "easy_to_read"))
        assert easy.occurrences == 2

        auto = features.get(FeatureType("review.best_us", "auto"))
        assert auto.occurrences == 2

        name = features.get(FeatureType("product", "name"))
        assert name.occurrences == 1
        assert name.feature.value == "TomTom Go 630 Portable GPS"

    def test_review_level_scalar_attributes(self, product_example_tree):
        features = FeatureExtractor().extract_from_tree(product_example_tree)
        rating = features.get(FeatureType("review", "review_rating"))
        assert rating is not None
        assert rating.population == 3

    def test_flag_normalisation_can_be_disabled(self, product_example_tree):
        features = FeatureExtractor(normalise_flags=False).extract_from_tree(product_example_tree)
        assert features.get(FeatureType("review.pro", "compact")) is None
        compact = features.get(FeatureType("review", "compact"))
        assert compact is not None and compact.feature.value == "yes"

    def test_non_flag_values_unaffected_by_normalisation(self, product_example_tree):
        features = FeatureExtractor().extract_from_tree(product_example_tree)
        category = features.get(FeatureType("product", "category"))
        assert category.feature.value == "GPS"

    def test_extract_rejects_text_root(self):
        with pytest.raises(FeatureExtractionError):
            FeatureExtractor().extract_from_tree(XMLNode.text_node("x"))

    def test_extraction_on_generated_results(self, gps_result_features):
        assert len(gps_result_features) >= 2
        for features in gps_result_features:
            assert len(features) > 5
            # every row is internally consistent
            for row in features:
                assert 1 <= row.occurrences <= row.population

    def test_singularisation_rules(self):
        extractor = FeatureExtractor()
        assert extractor._singular("pros") == "pro"
        assert extractor._singular("best_uses") == "best_us"
        assert extractor._singular("categories") == "category"
        assert extractor._singular("glass") == "glass"
