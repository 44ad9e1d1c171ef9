"""Tests for the DFS construction algorithms and the generator facade."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import DFSConfig
from repro.core.dfs import DFS, DFSSet
from repro.core.dod import total_dod
from repro.core.exhaustive import enumerate_valid_selections, exhaustive_dfs
from repro.core.generator import ALGORITHMS, DFSGenerator
from repro.core.greedy import greedy_dfs
from repro.core.multi_swap import multi_swap_dfs, optimal_rewrite
from repro.core.problem import DFSProblem
from repro.core.random_baseline import random_dfs
from repro.core.single_swap import single_swap_dfs
from repro.core.topk import top_significance_dfs
from repro.core.validity import is_valid_selection, validate_dfs
from repro.errors import DFSConstructionError
from repro.experiments.instances import micro_instance
from repro.features.feature import Feature
from repro.features.statistics import FeatureStatistics, ResultFeatures


ALL_HEURISTICS = [top_significance_dfs, random_dfs, greedy_dfs, single_swap_dfs, multi_swap_dfs]


def assert_valid_output(problem: DFSProblem, dfs_set: DFSSet) -> None:
    assert dfs_set.result_ids() == [result.result_id for result in problem.results]
    for dfs in dfs_set:
        validate_dfs(dfs, size_limit=problem.config.size_limit)


class TestEveryAlgorithmProducesValidOutput:
    @pytest.mark.parametrize("construct", ALL_HEURISTICS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_valid_on_micro_instances(self, construct, seed):
        problem = micro_instance(num_results=3, size_limit=4, seed=seed)
        assert_valid_output(problem, construct(problem))

    @pytest.mark.parametrize("construct", ALL_HEURISTICS)
    def test_valid_on_real_query_results(self, construct, gps_result_features):
        problem = DFSProblem(results=list(gps_result_features), config=DFSConfig(size_limit=5))
        assert_valid_output(problem, construct(problem))

    @pytest.mark.parametrize("construct", ALL_HEURISTICS)
    def test_size_limit_one(self, construct):
        problem = micro_instance(num_results=2, size_limit=1, seed=5)
        dfs_set = construct(problem)
        assert all(len(dfs) <= 1 for dfs in dfs_set)

    @pytest.mark.parametrize("construct", ALL_HEURISTICS)
    def test_size_limit_larger_than_available_features(self, construct):
        problem = micro_instance(
            num_results=2, size_limit=50, seed=2, attributes_per_entity=2
        )
        dfs_set = construct(problem)
        for dfs, result in zip(dfs_set, problem.results):
            assert len(dfs) <= len(result)


class TestTopSignificance:
    def test_picks_most_frequent_rows(self):
        problem = micro_instance(num_results=2, size_limit=2, seed=7)
        dfs_set = top_significance_dfs(problem)
        for dfs, result in zip(dfs_set, problem.results):
            expected = {row.feature_type for row in result.top_rows(2)}
            assert set(dfs.feature_types()) == expected


class TestRandomBaseline:
    def test_deterministic_for_fixed_seed(self):
        problem = micro_instance(num_results=3, size_limit=3, seed=1)
        a = random_dfs(problem, seed=42)
        b = random_dfs(problem, seed=42)
        for dfs_a, dfs_b in zip(a, b):
            assert set(dfs_a.feature_types()) == set(dfs_b.feature_types())

    def test_different_seeds_usually_differ(self):
        problem = micro_instance(num_results=3, size_limit=3, seed=1)
        signatures = set()
        for seed in range(5):
            dfs_set = random_dfs(problem, seed=seed)
            signatures.add(
                tuple(frozenset(str(t) for t in dfs.feature_types()) for dfs in dfs_set)
            )
        assert len(signatures) > 1


class TestLocalSearchQuality:
    def test_hill_climbers_never_lose_to_topk(self):
        for seed in range(5):
            problem = micro_instance(num_results=3, size_limit=3, seed=seed)
            config = problem.config
            base = total_dod(top_significance_dfs(problem), config)
            assert total_dod(single_swap_dfs(problem), config) >= base
            assert total_dod(multi_swap_dfs(problem), config) >= base

    def test_multi_swap_matches_or_beats_single_swap_on_micro_instances(self):
        wins = 0
        for seed in range(6):
            problem = micro_instance(num_results=3, size_limit=3, seed=seed)
            config = problem.config
            single = total_dod(single_swap_dfs(problem), config)
            multi = total_dod(multi_swap_dfs(problem), config)
            if multi > single:
                wins += 1
            assert multi >= single - 1  # allow marginal local-optimum noise
        assert wins >= 1  # strictly better somewhere

    def test_algorithms_accept_custom_initial_set(self):
        problem = micro_instance(num_results=2, size_limit=3, seed=3)
        initial = top_significance_dfs(problem)
        single = single_swap_dfs(problem, initial=initial)
        multi = multi_swap_dfs(problem, initial=initial)
        config = problem.config
        assert total_dod(single, config) >= total_dod(initial, config)
        assert total_dod(multi, config) >= total_dod(initial, config)

    def test_paper_example_dod_improves_over_snippets(self, default_config):
        """XSACT's DFSs beat the frequency snippets on the Figure 1 example."""
        def gps(result_id, name, rows):
            result = ResultFeatures(result_id)
            result.add(
                FeatureStatistics(Feature("product", "name", name), occurrences=1, population=1)
            )
            for attribute, count, population in rows:
                result.add(
                    FeatureStatistics(
                        Feature("review.pro", attribute, "yes"),
                        occurrences=count,
                        population=population,
                    )
                )
            return result

        gps1 = gps(
            "R1",
            "TomTom Go 630",
            [("easy_to_read", 10, 11), ("compact", 8, 11), ("auto", 6, 11), ("large_screen", 1, 11)],
        )
        gps3 = gps(
            "R3",
            "TomTom Go 730",
            [("satellites", 44, 68), ("easy_to_setup", 40, 68), ("compact", 38, 68), ("large_screen", 4, 68)],
        )
        config = DFSConfig(size_limit=4)
        problem = DFSProblem([gps1, gps3], config=config)
        snippet_dod_value = total_dod(top_significance_dfs(problem), config)
        xsact_dod_value = total_dod(multi_swap_dfs(problem), config)
        assert xsact_dod_value > snippet_dod_value


class TestExhaustive:
    def test_enumerate_valid_selections_all_valid(self):
        problem = micro_instance(num_results=1 + 1, size_limit=3, seed=4)
        result = problem.results[0]
        selections = enumerate_valid_selections(result, 3)
        assert selections  # includes at least the empty selection
        for rows in selections:
            assert len(rows) <= 3
            assert is_valid_selection(result, {row.feature_type for row in rows})

    def test_exhaustive_is_optimal_on_micro_instances(self):
        for seed in range(3):
            problem = micro_instance(num_results=2, size_limit=2, seed=seed)
            config = problem.config
            optimum = total_dod(exhaustive_dfs(problem), config)
            for construct in (top_significance_dfs, greedy_dfs, single_swap_dfs, multi_swap_dfs):
                assert total_dod(construct(problem), config) <= optimum

    def test_exhaustive_guard_on_large_instances(self):
        problem = micro_instance(num_results=4, size_limit=5, seed=0, attributes_per_entity=8)
        with pytest.raises(DFSConstructionError):
            exhaustive_dfs(problem, max_states=1000)


class TestOptimalRewrite:
    def test_rewrite_maximises_gain_against_fixed_others(self, default_config):
        problem = micro_instance(num_results=2, size_limit=2, seed=9)
        first, second = problem.results
        fixed = DFS(second, second.top_rows(2))
        rewritten, _score = optimal_rewrite(first, [fixed], problem.config)
        validate_dfs(rewritten, size_limit=problem.config.size_limit)
        # The rewrite cannot be worse than any single valid alternative we try.
        alternative = DFS(first, first.top_rows(2))
        assert total_dod(DFSSet([rewritten, fixed]), problem.config) >= total_dod(
            DFSSet([alternative, fixed]), problem.config
        )


class TestGeneratorFacade:
    def test_generate_reports_dod_and_time(self, gps_result_features):
        generator = DFSGenerator(DFSConfig(size_limit=4))
        outcome = generator.generate(gps_result_features, algorithm="multi_swap")
        assert outcome.dod == total_dod(outcome.dfs_set, generator.config)
        assert outcome.elapsed_seconds >= 0
        summary = outcome.summary()
        assert summary["algorithm"] == "multi_swap"
        assert summary["results"] == len(gps_result_features)

    def test_unknown_algorithm_rejected(self, gps_result_features):
        generator = DFSGenerator()
        with pytest.raises(DFSConstructionError):
            generator.generate(gps_result_features, algorithm="simulated_annealing")

    def test_compare_algorithms_runs_both_defaults(self, gps_result_features):
        generator = DFSGenerator()
        outcomes = generator.compare_algorithms(gps_result_features)
        assert [outcome.algorithm for outcome in outcomes] == ["single_swap", "multi_swap"]

    def test_registry_contains_all_algorithms(self):
        assert set(ALGORITHMS) == {
            "top_significance",
            "random",
            "greedy",
            "single_swap",
            "multi_swap",
            "exhaustive",
        }
        assert DFSGenerator().available_algorithms() == list(ALGORITHMS)


# Prints one digest over every answer of the sample and the bytes of two
# snapshots (fresh, then after 3 removes and 1 add); run once per hash seed.
_CROSS_SEED_SCRIPT = """
import hashlib, json, os, tempfile
from repro.datasets.product_reviews import generate_product_reviews_corpus
from repro.errors import ReproError
from repro.service import CompareRequest, SearchService
from repro.workloads.queries import PRODUCT_QUERIES

corpus = generate_product_reviews_corpus()
service = SearchService(corpus)
digest = hashlib.sha256()
for algorithm in ("single_swap", "multi_swap"):
    for spec in PRODUCT_QUERIES:
        for top in (2, 3, 4):
            request = CompareRequest(query=spec.text, top=top, algorithm=algorithm)
            try:
                answer = service.compare(request).to_dict()
            except ReproError as error:
                answer = type(error).__name__
            digest.update(json.dumps(answer, sort_keys=True).encode())
with tempfile.TemporaryDirectory() as directory:
    path = os.path.join(directory, "products.snap")
    corpus.save(path)
    with open(path, "rb") as handle:
        digest.update(handle.read())
    doc_ids = corpus.store.document_ids()
    added = corpus.store.get(doc_ids[0])
    for doc_id in doc_ids[:3]:
        corpus.remove_document(doc_id)
    corpus.add_document("readded", added.root, metadata=added.metadata)
    corpus.save(path)
    with open(path, "rb") as handle:
        digest.update(handle.read())
print(digest.hexdigest())
"""


class TestHashSeedIndependence:
    def test_compare_answers_alike_under_every_hash_seed(self):
        # Ties between equally good moves must not be broken by set order,
        # which changes with PYTHONHASHSEED; nor may the snapshot bytes
        # depend on the order the index's token-keyed buckets were created in.
        source = str(Path(__file__).resolve().parent.parent / "src")
        digests = set()
        for seed in range(4):
            env = dict(os.environ, PYTHONHASHSEED=str(seed))
            env["PYTHONPATH"] = source + os.pathsep + env.get("PYTHONPATH", "")
            completed = subprocess.run(
                [sys.executable, "-c", _CROSS_SEED_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            digests.add(completed.stdout.strip())
        assert len(digests) == 1, digests
