"""The :class:`DFSGenerator` facade.

This is the "DFS generator" box of the Figure 3 architecture: given the feature
statistics of the selected results and the user's size bound, run one of the
construction algorithms and report the resulting DFS set along with its total
DoD and the wall-clock time spent — the two quantities plotted in Figure 4.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.config import DFSConfig
from repro.core.dfs import DFSSet
from repro.core.dod import total_dod
from repro.core.exhaustive import exhaustive_dfs
from repro.core.greedy import greedy_dfs
from repro.core.multi_swap import multi_swap_dfs
from repro.core.problem import DFSProblem
from repro.core.random_baseline import random_dfs
from repro.core.single_swap import single_swap_dfs
from repro.core.topk import top_significance_dfs
from repro.core.validity import validate_dfs
from repro.errors import DFSConstructionError
from repro.features.statistics import ResultFeatures

__all__ = ["GenerationOutcome", "DFSGenerator", "ALGORITHMS"]

ALGORITHMS: Dict[str, Callable[[DFSProblem], DFSSet]] = {
    "top_significance": top_significance_dfs,
    "random": random_dfs,
    "greedy": greedy_dfs,
    "single_swap": single_swap_dfs,
    "multi_swap": multi_swap_dfs,
    "exhaustive": exhaustive_dfs,
}
"""Registry of DFS construction algorithms by name."""


@dataclass
class GenerationOutcome:
    """The result of one DFS generation run.

    Attributes
    ----------
    algorithm:
        Name of the algorithm that produced the DFS set.
    dfs_set:
        The generated DFSs, one per result, in result order.
    dod:
        The total degree of differentiation of the DFS set.
    elapsed_seconds:
        Wall-clock time of the construction (excluding feature extraction).
    config:
        The configuration the run used.
    """

    algorithm: str
    dfs_set: DFSSet
    dod: int
    elapsed_seconds: float
    config: DFSConfig

    def summary(self) -> Dict[str, object]:
        """A flat dictionary for reports and benchmark output."""
        return {
            "algorithm": self.algorithm,
            "results": len(self.dfs_set),
            "dod": self.dod,
            "time_s": round(self.elapsed_seconds, 6),
            "size_limit": self.config.size_limit,
        }


class DFSGenerator:
    """Runs DFS construction algorithms on sets of result feature statistics."""

    def __init__(self, config: Optional[DFSConfig] = None):
        self.config = config or DFSConfig()

    def available_algorithms(self) -> List[str]:
        """Names of the registered algorithms."""
        return list(ALGORITHMS)

    def generate(
        self,
        results: Sequence[ResultFeatures],
        algorithm: str = "multi_swap",
        validate: bool = True,
    ) -> GenerationOutcome:
        """Generate DFSs for the given results.

        Parameters
        ----------
        results:
            Feature statistics of the results the user selected for comparison.
        algorithm:
            One of :data:`ALGORITHMS` (default ``"multi_swap"``, the paper's
            preferred method).
        validate:
            Whether to re-check validity and the size bound on the output
            (cheap, and catches algorithm regressions early).

        Raises
        ------
        DFSConstructionError
            For unknown algorithm names or invalid inputs.
        """
        if algorithm not in ALGORITHMS:
            raise DFSConstructionError(
                f"unknown algorithm {algorithm!r}; available: {sorted(ALGORITHMS)}"
            )
        problem = DFSProblem(results=list(results), config=self.config)
        construct = ALGORITHMS[algorithm]

        start = time.perf_counter()
        dfs_set = construct(problem)
        elapsed = time.perf_counter() - start

        if validate:
            for dfs in dfs_set:
                validate_dfs(dfs, size_limit=self.config.size_limit)

        return GenerationOutcome(
            algorithm=algorithm,
            dfs_set=dfs_set,
            dod=total_dod(dfs_set, self.config),
            elapsed_seconds=elapsed,
            config=self.config,
        )

    def compare_algorithms(
        self,
        results: Sequence[ResultFeatures],
        algorithms: Optional[Sequence[str]] = None,
    ) -> List[GenerationOutcome]:
        """Run several algorithms on the same results and return all outcomes."""
        names = list(algorithms) if algorithms is not None else ["single_swap", "multi_swap"]
        return [self.generate(results, algorithm=name) for name in names]
