"""Integration tests reproducing the paper's walk-through scenarios end to end.

Each test corresponds to an experiment in DESIGN.md's index (E1-E5) and checks
the *shape* of the paper's claims on the synthetic corpora, not absolute
numbers.
"""

import pytest

from repro.core.config import DFSConfig
from repro.core.generator import DFSGenerator
from repro.experiments.figure4 import run_figure4
from repro.features.extractor import FeatureExtractor
from repro.search.engine import SearchEngine
from repro.service import SearchService
from repro.snippets import snippet_dod
from repro.workloads.queries import imdb_workload
from repro.workloads.runner import WorkloadRunner


class TestFigure4Shape:
    """E1/E2: DoD and timing of single-swap vs multi-swap on QM1-QM8."""

    @pytest.fixture(scope="class")
    def figure4_rows(self, small_imdb_corpus):
        workload = imdb_workload(corpus_factory=lambda: small_imdb_corpus)
        runner = WorkloadRunner(workload, config=DFSConfig(size_limit=5), corpus=small_imdb_corpus)
        return run_figure4(runner=runner)

    def test_every_query_is_measured(self, figure4_rows):
        assert len(figure4_rows) == 8
        assert all(row.num_results >= 2 for row in figure4_rows)

    def test_multi_swap_dod_competitive_with_single_swap(self, figure4_rows):
        total_single = sum(row.single_swap_dod for row in figure4_rows)
        total_multi = sum(row.multi_swap_dod for row in figure4_rows)
        assert total_multi >= total_single * 0.95
        # And never catastrophically worse on an individual query.
        for row in figure4_rows:
            assert row.multi_swap_dod >= row.single_swap_dod * 0.8

    def test_both_algorithms_are_fast(self, figure4_rows):
        """The paper reports both well under a second per query."""
        for row in figure4_rows:
            assert row.single_swap_seconds < 2.0
            assert row.multi_swap_seconds < 2.0

    def test_dod_positive_everywhere(self, figure4_rows):
        assert all(row.multi_swap_dod > 0 for row in figure4_rows)


class TestProductReviewScenario:
    """E3/E4: the {TomTom, GPS} walk-through of Figures 1 and 2."""

    @pytest.fixture(scope="class")
    def outcome(self, small_product_corpus):
        service = SearchService(small_product_corpus, config=DFSConfig(size_limit=6))
        return service.search_and_compare("gps", top=2, size_limit=6)

    def test_results_are_products_with_review_statistics(self, outcome):
        for features in outcome.features:
            entities = set(features.entities())
            assert "product" in entities
            assert any(entity.startswith("review") for entity in entities)

    def test_comparison_table_has_shared_differentiating_rows(self, outcome):
        assert outcome.dod >= 2  # the paper's snippets manage 2; XSACT should too
        assert len(outcome.table.differentiating_rows()) >= 2

    def test_xsact_beats_frequency_snippets(self, outcome):
        baseline = snippet_dod(
            outcome.features, query=outcome.query, config=outcome.generation.config
        )
        assert outcome.dod >= baseline
        assert outcome.dod > 0

    def test_dfs_sizes_respect_the_user_bound(self, outcome):
        for dfs in outcome.generation.dfs_set:
            assert len(dfs) <= 6


class TestOutdoorRetailerScenario:
    """E5: the "men, jackets" brand-focus walk-through."""

    def test_brand_comparison_reveals_different_focuses(self, small_outdoor_corpus):
        service = SearchService(small_outdoor_corpus, config=DFSConfig(size_limit=6))
        doc_ids = small_outdoor_corpus.store.document_ids()[:3]
        outcome = service.compare_documents(doc_ids, query="men jackets")
        assert outcome.dod > 0
        labels = {row.label() for row in outcome.table.rows}
        # The table exposes item-level focus attributes of the brands.
        assert any("item" in label for label in labels)

    def test_search_for_men_jackets_returns_items_from_brands(self, small_outdoor_corpus):
        engine = SearchEngine(small_outdoor_corpus)
        results = engine.search("men jackets")
        assert len(results) >= 2
        doc_ids = {result.doc_id for result in results}
        assert len(doc_ids) >= 2  # matches come from more than one brand


class TestAlgorithmFieldOnRealResults:
    """A5-style sanity check on real (synthetic-corpus) query results."""

    def test_ranking_of_methods(self, small_imdb_corpus):
        engine = SearchEngine(small_imdb_corpus)
        extractor = FeatureExtractor(statistics=small_imdb_corpus.statistics)
        results = engine.search("drama war", limit=6)
        features = [extractor.extract(result) for result in results]
        generator = DFSGenerator(DFSConfig(size_limit=5))
        dods = {
            name: generator.generate(features, algorithm=name).dod
            for name in ("random", "top_significance", "single_swap", "multi_swap")
        }
        assert dods["single_swap"] >= dods["top_significance"]
        assert dods["multi_swap"] >= dods["top_significance"]
        assert max(dods["multi_swap"], dods["single_swap"]) >= dods["random"]
