"""Ablation experiments (A1-A5 in DESIGN.md).

These sweeps go beyond the single figure of the demo paper and probe the design
choices the companion full paper discusses: how the DoD and running time react
to the size limit ``L``, to the number of compared results ``n``, and to the
differentiability threshold ``x``; how far the heuristics are from the true
optimum on instances small enough to solve exhaustively; and how the whole
field of algorithms (random / top-significance / greedy / single-swap /
multi-swap) compares at equal budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.config import DFSConfig
from repro.core.generator import DFSGenerator
from repro.errors import UnknownQueryError
from repro.features.statistics import ResultFeatures
from repro.workloads.queries import imdb_workload
from repro.workloads.runner import WorkloadRunner

__all__ = [
    "AblationRow",
    "run_size_limit_ablation",
    "run_num_results_ablation",
    "run_threshold_ablation",
    "run_optimality_gap",
    "run_algorithm_field",
]


@dataclass(frozen=True)
class AblationRow:
    """One measurement point of an ablation sweep."""

    sweep: str
    parameter: str
    value: object
    algorithm: str
    dod: int
    seconds: float

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary form for reports and benchmark output."""
        return {
            "sweep": self.sweep,
            self.parameter: self.value,
            "algorithm": self.algorithm,
            "dod": self.dod,
            "time_s": round(self.seconds, 6),
        }


def _default_runner(config: Optional[DFSConfig] = None) -> WorkloadRunner:
    return WorkloadRunner(imdb_workload(), config=config)


def _features_for(runner: WorkloadRunner, query_name: str) -> List[ResultFeatures]:
    for spec in runner.workload.queries:
        if spec.name == query_name:
            return runner.result_features(spec)
    raise UnknownQueryError(query_name)


def run_size_limit_ablation(
    size_limits: Sequence[int] = (2, 4, 6, 8, 10),
    query_name: str = "QM1",
    algorithms: Sequence[str] = ("single_swap", "multi_swap"),
    runner: Optional[WorkloadRunner] = None,
) -> List[AblationRow]:
    """A1: DoD and time as a function of the DFS size limit L."""
    runner = runner or _default_runner()
    features = _features_for(runner, query_name)
    rows: List[AblationRow] = []
    for size_limit in size_limits:
        config = DFSConfig(size_limit=size_limit)
        generator = DFSGenerator(config)
        for algorithm in algorithms:
            outcome = generator.generate(features, algorithm=algorithm)
            rows.append(
                AblationRow(
                    sweep="size_limit",
                    parameter="L",
                    value=size_limit,
                    algorithm=algorithm,
                    dod=outcome.dod,
                    seconds=outcome.elapsed_seconds,
                )
            )
    return rows


def run_num_results_ablation(
    result_counts: Sequence[int] = (2, 5, 10, 20),
    query_name: str = "QM3",
    algorithms: Sequence[str] = ("single_swap", "multi_swap"),
    runner: Optional[WorkloadRunner] = None,
) -> List[AblationRow]:
    """A2: DoD and time as a function of the number of compared results n."""
    runner = runner or _default_runner()
    features = _features_for(runner, query_name)
    generator = DFSGenerator(runner.config)
    rows: List[AblationRow] = []
    for count in result_counts:
        subset = features[: min(count, len(features))]
        if len(subset) < 2:
            continue
        for algorithm in algorithms:
            outcome = generator.generate(subset, algorithm=algorithm)
            rows.append(
                AblationRow(
                    sweep="num_results",
                    parameter="n",
                    value=len(subset),
                    algorithm=algorithm,
                    dod=outcome.dod,
                    seconds=outcome.elapsed_seconds,
                )
            )
    return rows


def run_threshold_ablation(
    thresholds: Sequence[float] = (5.0, 10.0, 20.0, 50.0),
    query_name: str = "QM1",
    algorithms: Sequence[str] = ("single_swap", "multi_swap"),
    runner: Optional[WorkloadRunner] = None,
) -> List[AblationRow]:
    """A3: sensitivity of the DoD to the differentiability threshold x."""
    runner = runner or _default_runner()
    features = _features_for(runner, query_name)
    rows: List[AblationRow] = []
    for threshold in thresholds:
        config = DFSConfig(threshold_percent=threshold)
        generator = DFSGenerator(config)
        for algorithm in algorithms:
            outcome = generator.generate(features, algorithm=algorithm)
            rows.append(
                AblationRow(
                    sweep="threshold",
                    parameter="x_percent",
                    value=threshold,
                    algorithm=algorithm,
                    dod=outcome.dod,
                    seconds=outcome.elapsed_seconds,
                )
            )
    return rows


def run_optimality_gap(
    num_results: int = 3,
    size_limit: int = 3,
    seeds: Sequence[int] = (0, 1, 2),
    runner: Optional[WorkloadRunner] = None,  # accepted for interface symmetry
) -> List[AblationRow]:
    """A4: heuristics vs the exhaustive optimum on small synthetic instances.

    Real query results carry too many tied feature types for exhaustive search,
    so this experiment uses the deterministic micro-instances of
    :mod:`repro.experiments.instances` (few results, few feature types, small
    L).  The interesting output is the DoD of each heuristic next to the true
    optimum, aggregated over several seeds.
    """
    from repro.experiments.instances import micro_instance

    rows: List[AblationRow] = []
    algorithms = ("top_significance", "greedy", "single_swap", "multi_swap", "exhaustive")
    for seed in seeds:
        problem = micro_instance(num_results=num_results, size_limit=size_limit, seed=seed)
        generator = DFSGenerator(problem.config)
        for algorithm in algorithms:
            outcome = generator.generate(problem.results, algorithm=algorithm)
            rows.append(
                AblationRow(
                    sweep="optimality_gap",
                    parameter="instance_seed",
                    value=seed,
                    algorithm=algorithm,
                    dod=outcome.dod,
                    seconds=outcome.elapsed_seconds,
                )
            )
    return rows


def run_algorithm_field(
    query_name: str = "QM2",
    algorithms: Sequence[str] = (
        "random",
        "top_significance",
        "greedy",
        "single_swap",
        "multi_swap",
    ),
    runner: Optional[WorkloadRunner] = None,
) -> List[AblationRow]:
    """A5: the whole algorithm field on one query at the default budget."""
    runner = runner or _default_runner()
    features = _features_for(runner, query_name)
    generator = DFSGenerator(runner.config)
    rows: List[AblationRow] = []
    for algorithm in algorithms:
        outcome = generator.generate(features, algorithm=algorithm)
        rows.append(
            AblationRow(
                sweep="algorithm_field",
                parameter="algorithm",
                value=algorithm,
                algorithm=algorithm,
                dod=outcome.dod,
                seconds=outcome.elapsed_seconds,
            )
        )
    return rows
