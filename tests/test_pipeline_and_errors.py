"""Tests for the end-to-end XSACT pipeline and the exception hierarchy."""

import pytest

import repro
from repro import errors
from repro.core.config import DFSConfig
from repro.errors import ComparisonError, ReproError
from repro.service import ComparisonOutcome, SearchService


class TestExceptionHierarchy:
    def test_every_error_derives_from_repro_error(self):
        exception_types = [
            getattr(errors, name)
            for name in errors.__all__
            if isinstance(getattr(errors, name), type)
        ]
        for exception_type in exception_types:
            assert issubclass(exception_type, ReproError)
            assert issubclass(exception_type, Exception)

    def test_specific_errors_carry_context(self):
        assert errors.XMLParseError("x", position=7).position == 7
        assert errors.DocumentNotFoundError("d9").doc_id == "d9"


class TestPublicApi:
    def test_version_exposed(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name


class TestXsactPipeline:
    """The Figure 3 pipeline, run in-process through :class:`SearchService`."""

    @pytest.fixture(scope="class")
    def service(self, small_product_corpus):
        return SearchService(small_product_corpus, config=DFSConfig(size_limit=5))

    def test_search_then_compare_selected_results(self, service):
        result_set = service.search_results("gps")
        assert len(result_set) >= 2
        chosen = [result.result_id for result in result_set.top(2)]
        outcome = service.compare_selected(result_set, result_ids=chosen)
        assert isinstance(outcome, ComparisonOutcome)
        assert len(outcome.results) == 2
        assert outcome.dod == outcome.generation.dod
        assert len(outcome.table.column_ids) == 2

    def test_search_and_compare_convenience(self, service):
        outcome = service.search_and_compare("gps", top=3)
        assert len(outcome.results) == 3
        assert outcome.dod >= 0
        assert outcome.generation.algorithm == "multi_swap"

    def test_algorithm_and_size_limit_overrides(self, service):
        outcome = service.search_and_compare("gps", top=2, size_limit=3, algorithm="single_swap")
        assert outcome.generation.algorithm == "single_swap"
        assert all(len(dfs) <= 3 for dfs in outcome.generation.dfs_set)
        # The service's own default configuration is untouched by the override.
        assert service.config.size_limit == 5

    def test_compare_requires_at_least_two_results(self, service):
        result_set = service.search_results("gps")
        with pytest.raises(ComparisonError):
            service.compare_selected(result_set, result_ids=[result_set[0].result_id])

    def test_search_and_compare_raises_on_singleton_result_sets(self, service):
        with pytest.raises(ComparisonError):
            service.search_and_compare("zzznotthere gps")

    def test_renderings_available(self, service):
        outcome = service.search_and_compare("gps", top=2)
        assert "Degree of differentiation" in outcome.to_text()
        assert outcome.to_markdown().startswith("| Feature type |")
        assert outcome.to_html().startswith("<!DOCTYPE html>")

    def test_compare_documents_for_brand_scenario(self, small_outdoor_corpus):
        service = SearchService(small_outdoor_corpus, config=DFSConfig(size_limit=5))
        doc_ids = small_outdoor_corpus.store.document_ids()[:2]
        outcome = service.compare_documents(doc_ids, query="men jackets")
        assert len(outcome.results) == 2
        assert outcome.results[0].root_tag() == "brand"
        assert outcome.dod >= 1

    def test_compare_documents_requires_two(self, small_outdoor_corpus):
        service = SearchService(small_outdoor_corpus)
        with pytest.raises(ComparisonError):
            service.compare_documents(small_outdoor_corpus.store.document_ids()[:1])

    def test_comparison_dod_beats_snippet_baseline(self, service, small_product_corpus):
        """E4: the DFS table differentiates more than frequency snippets."""
        from repro.snippets import snippet_dod

        result_set = service.search_results("gps")
        outcome = service.compare_selected(
            result_set, result_ids=[r.result_id for r in result_set.top(3)]
        )
        baseline = snippet_dod(outcome.features, query=result_set.query, config=service.config)
        assert outcome.dod >= baseline
