"""The DFS construction problem (Definition 1) and its hardness context.

Definition 1 of the paper: given ``n`` search results ``R1..Rn``, each with at
most ``m`` feature types, compute a DFS ``Di`` for each result such that

1. the total DoD ``DoD(D1, ..., Dn)`` is maximised,
2. within each ``Di``, feature types of the same entity appear in the order of
   their occurrence counts in ``Ri`` (validity),
3. ``|Di| <= L`` for every ``i``.

Theorem 2.1 states the problem is NP-hard; the proof in the companion full
paper [5] reduces from maximum coverage-style problems — intuitively, choosing
which feature types to "spend" the ``L`` slots of each result on so that as
many *pairs* as possible share a differentiable type couples all results
together, and the coupling is what makes the problem hard.  This module does
not attempt the proof; it packages a problem instance so that all algorithms
share one entry point and so that the exhaustive solver (used to measure
optimality gaps empirically on small instances) has a well-defined search
space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from repro.core.config import DFSConfig
from repro.errors import DFSConstructionError
from repro.features.statistics import ResultFeatures

__all__ = ["DFSProblem"]


@dataclass
class DFSProblem:
    """An instance of the DFS construction problem.

    Attributes
    ----------
    results:
        The feature statistics of every result under comparison (``R1..Rn``).
    config:
        Size limit, threshold and related knobs.
    """

    results: List[ResultFeatures]
    config: DFSConfig = field(default_factory=DFSConfig)

    def __post_init__(self) -> None:
        if len(self.results) < 2:
            raise DFSConstructionError(
                "DFS construction needs at least two results to differentiate"
            )
        ids = [result.result_id for result in self.results]
        if len(set(ids)) != len(ids):
            raise DFSConstructionError(f"duplicate result ids: {ids}")
        for result in self.results:
            if len(result) == 0:
                raise DFSConstructionError(
                    f"result {result.result_id!r} has no features to select from"
                )

    # ------------------------------------------------------------------ #
    # Introspection helpers used by experiments and reports
    # ------------------------------------------------------------------ #
    @property
    def num_results(self) -> int:
        """``n`` — the number of results."""
        return len(self.results)

    @property
    def max_feature_types(self) -> int:
        """``m`` — the largest number of feature types in any single result."""
        return max(len(result) for result in self.results)

    def shared_feature_types(self) -> List:
        """Feature types that appear in at least two results.

        Only shared types can ever contribute to the DoD, so their count is a
        natural upper-bound indicator reported by the experiment harness.
        """
        counts: Dict = {}
        for result in self.results:
            for feature_type in result.feature_types():
                counts[feature_type] = counts.get(feature_type, 0) + 1
        return sorted(ft for ft, count in counts.items() if count >= 2)

    def dod_upper_bound(self) -> int:
        """A trivial upper bound on the total DoD.

        Every pair of results can be differentiable on at most the number of
        feature types they share, and also on at most ``L`` types (each DFS has
        at most ``L`` entries).  The bound is loose but cheap, and the
        exhaustive/optimality-gap experiments report it alongside measured DoD.
        """
        bound = 0
        for index_a in range(self.num_results):
            for index_b in range(index_a + 1, self.num_results):
                types_a = set(self.results[index_a].feature_types())
                types_b = set(self.results[index_b].feature_types())
                bound += min(len(types_a & types_b), self.config.size_limit)
        return bound

    def __iter__(self) -> Iterator[ResultFeatures]:
        return iter(self.results)

    def __repr__(self) -> str:
        return (
            f"DFSProblem(n={self.num_results}, m={self.max_feature_types}, "
            f"L={self.config.size_limit})"
        )
