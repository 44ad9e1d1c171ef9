"""Property-based tests (hypothesis) for the DFS core: validity, DoD, algorithms."""

from hypothesis import given, settings, strategies as st

from repro.core.config import DFSConfig
from repro.core.dfs import DFS, DFSSet
from repro.core.dod import differentiable, pairwise_dod, total_dod
from repro.core.exhaustive import exhaustive_dfs
from repro.core.greedy import greedy_dfs
from repro.core.multi_swap import multi_swap_dfs
from repro.core.problem import DFSProblem
from repro.core.random_baseline import random_dfs
from repro.core.single_swap import single_swap_dfs
from repro.core.topk import top_significance_dfs
from repro.core.validity import addable_types, is_valid_selection, removable_types, validate_dfs
from repro.experiments.instances import micro_instance
from repro.features.feature import Feature
from repro.features.statistics import FeatureStatistics, ResultFeatures


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
@st.composite
def feature_rows(draw):
    population = draw(st.integers(min_value=1, max_value=50))
    occurrences = draw(st.integers(min_value=1, max_value=population))
    return FeatureStatistics(
        feature=Feature(
            entity=draw(st.sampled_from(["product", "review.pro", "review.con"])),
            attribute=draw(st.sampled_from([f"attr{i}" for i in range(8)])),
            value=draw(st.sampled_from(["yes", "red", "blue", "large"])),
        ),
        occurrences=occurrences,
        population=population,
    )


@st.composite
def result_features(draw, result_id="R"):
    result = ResultFeatures(result_id)
    for row in draw(st.lists(feature_rows(), min_size=2, max_size=12)):
        result.add(row)
    return result


@st.composite
def problems(draw):
    results = [draw(result_features(result_id=f"R{i}")) for i in range(draw(st.integers(2, 4)))]
    config = DFSConfig(size_limit=draw(st.integers(1, 6)))
    return DFSProblem(results=results, config=config)


micro_problems = st.builds(
    micro_instance,
    num_results=st.integers(min_value=2, max_value=4),
    size_limit=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=1000),
)

#: Micro problems ``exhaustive`` solves in milliseconds: 2–3 results at
#: ``size_limit`` 1–2, and 2 results at ``size_limit`` 3 (3 results at 3
#: take about 0.6 s each).
_exhaustive_seeds = st.integers(min_value=0, max_value=10**6)
exhaustive_micro_problems = st.one_of(
    st.builds(
        micro_instance,
        num_results=st.integers(min_value=2, max_value=3),
        size_limit=st.integers(min_value=1, max_value=2),
        seed=_exhaustive_seeds,
    ),
    st.builds(micro_instance, num_results=st.just(2), size_limit=st.just(3), seed=_exhaustive_seeds),
)


# --------------------------------------------------------------------------- #
# Differentiability / DoD properties
# --------------------------------------------------------------------------- #
class TestDoDProperties:
    @given(feature_rows(), feature_rows(), st.integers(0, 100))
    def test_differentiability_is_symmetric(self, a, b, threshold):
        config = DFSConfig(threshold_percent=float(threshold))
        assert differentiable(a, b, config) == differentiable(b, a, config)

    @given(feature_rows())
    def test_row_never_differentiates_from_itself(self, a):
        assert not differentiable(a, a, DFSConfig())

    @given(feature_rows(), feature_rows())
    def test_raising_threshold_never_creates_differentiability(self, a, b):
        lenient = DFSConfig(threshold_percent=5.0, compare_values=False)
        strict = DFSConfig(threshold_percent=80.0, compare_values=False)
        if differentiable(a, b, strict):
            assert differentiable(a, b, lenient)

    @settings(max_examples=40, deadline=None)
    @given(micro_problems)
    def test_pairwise_dod_bounded_by_dfs_sizes(self, problem):
        dfs_set = top_significance_dfs(problem)
        config = problem.config
        for i in range(len(dfs_set)):
            for j in range(i + 1, len(dfs_set)):
                dod = pairwise_dod(dfs_set[i], dfs_set[j], config)
                assert 0 <= dod <= min(len(dfs_set[i]), len(dfs_set[j]))

    @settings(max_examples=40, deadline=None)
    @given(micro_problems)
    def test_total_dod_is_symmetric_under_reversal(self, problem):
        dfs_set = top_significance_dfs(problem)
        config = problem.config
        reversed_set = DFSSet(list(reversed(list(dfs_set))))
        assert total_dod(dfs_set, config) == total_dod(reversed_set, config)


# --------------------------------------------------------------------------- #
# Validity properties
# --------------------------------------------------------------------------- #
class TestValidityProperties:
    @settings(max_examples=60, deadline=None)
    @given(result_features(), st.randoms(use_true_random=False))
    def test_random_valid_selection_passes_checker(self, result, rng):
        # Build a selection by always taking a currently-addable row.
        dfs = DFS(result)
        for _ in range(rng.randint(0, len(result))):
            candidates = addable_types(dfs)
            if not candidates:
                break
            dfs.add(rng.choice(candidates))
        assert is_valid_selection(result, set(dfs.feature_types()))

    @settings(max_examples=60, deadline=None)
    @given(result_features(), st.randoms(use_true_random=False))
    def test_removal_of_removable_keeps_validity(self, result, rng):
        dfs = DFS(result, result.top_rows(min(4, len(result))))
        while len(dfs):
            candidates = removable_types(dfs)
            assert candidates
            dfs.remove(rng.choice(candidates).feature_type)
            assert is_valid_selection(result, set(dfs.feature_types()))

    @settings(max_examples=60, deadline=None)
    @given(result_features(), st.integers(1, 6))
    def test_top_rows_are_always_valid(self, result, limit):
        selected = {row.feature_type for row in result.top_rows(limit)}
        assert is_valid_selection(result, selected)


# --------------------------------------------------------------------------- #
# Algorithm output properties
# --------------------------------------------------------------------------- #
class TestAlgorithmProperties:
    @settings(max_examples=30, deadline=None)
    @given(problems())
    def test_all_heuristics_emit_valid_bounded_dfss(self, problem):
        for construct in (top_significance_dfs, greedy_dfs, single_swap_dfs, multi_swap_dfs):
            dfs_set = construct(problem)
            for dfs in dfs_set:
                validate_dfs(dfs, size_limit=problem.config.size_limit)

    @settings(max_examples=30, deadline=None)
    @given(problems())
    def test_local_search_never_below_its_start(self, problem):
        config = problem.config
        start = total_dod(top_significance_dfs(problem), config)
        assert total_dod(single_swap_dfs(problem), config) >= start
        assert total_dod(multi_swap_dfs(problem), config) >= start

    @settings(max_examples=500, deadline=None)
    @given(exhaustive_micro_problems)
    def test_heuristics_never_beat_exhaustive(self, problem):
        config = problem.config
        optimum = total_dod(exhaustive_dfs(problem), config)
        for construct in (top_significance_dfs, greedy_dfs, single_swap_dfs, multi_swap_dfs):
            assert total_dod(construct(problem), config) <= optimum

    @settings(max_examples=30, deadline=None)
    @given(problems(), st.integers(0, 99))
    def test_random_baseline_valid_for_any_seed(self, problem, seed):
        dfs_set = random_dfs(problem, seed=seed)
        for dfs in dfs_set:
            validate_dfs(dfs, size_limit=problem.config.size_limit)

    @settings(max_examples=25, deadline=None)
    @given(micro_problems)
    def test_algorithms_are_deterministic(self, problem):
        for construct in (greedy_dfs, single_swap_dfs, multi_swap_dfs):
            first = construct(problem)
            second = construct(problem)
            assert [set(map(str, dfs.feature_types())) for dfs in first] == [
                set(map(str, dfs.feature_types())) for dfs in second
            ]
