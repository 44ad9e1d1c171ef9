"""Exhaustive (optimal) DFS construction for small instances.

The DFS construction problem is NP-hard (Theorem 2.1), so an exhaustive solver
is only usable on tiny instances; its role here is to measure the optimality
gap of the heuristic algorithms empirically (ablation A4 in DESIGN.md) and to
serve as a ground-truth oracle in tests.

The search space is restricted to *valid* selections only: for each result and
each entity, the candidate selections are the prefixes of the significance
ordering expanded over tie groups (every subset of a tie group combined with
all complete higher groups).  The Cartesian product over entities (bounded by
the size limit) and then over results is enumerated, and the selection with the
maximum total DoD is returned.  A guard raises when the estimated search-space
size exceeds ``max_states``, before anything is scored.  Every admitted joint
selection is scored with ``total_dod``, so the default bound admits only
searches that finish in seconds: a compare request it refuses is answered at
once instead of holding a server thread for minutes.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import List, Set, Tuple

from repro.core.dfs import DFS, DFSSet
from repro.core.dod import total_dod
from repro.core.problem import DFSProblem
from repro.errors import DFSConstructionError
from repro.features.statistics import FeatureStatistics, ResultFeatures

__all__ = ["exhaustive_dfs", "enumerate_valid_selections"]


def enumerate_valid_selections(
    result: ResultFeatures,
    size_limit: int,
) -> List[Tuple[FeatureStatistics, ...]]:
    """Enumerate every valid selection of at most ``size_limit`` rows.

    Returns tuples of rows; the empty selection is included (a DFS may use
    fewer rows than the limit).
    """
    per_entity_options: List[List[Tuple[FeatureStatistics, ...]]] = []
    for entity in result.entities():
        ordered = result.significance_order(entity)
        per_entity_options.append(_entity_prefixes(ordered, size_limit))

    selections: Set[Tuple[FeatureStatistics, ...]] = set()
    for combination in product(*per_entity_options):
        rows: Tuple[FeatureStatistics, ...] = tuple(
            row for entity_rows in combination for row in entity_rows
        )
        if len(rows) <= size_limit:
            selections.add(tuple(sorted(rows, key=lambda row: str(row.feature))))
    return sorted(selections, key=lambda rows: (len(rows), [str(r.feature) for r in rows]))


def _entity_prefixes(
    ordered: List[FeatureStatistics],
    size_limit: int,
) -> List[Tuple[FeatureStatistics, ...]]:
    """Valid selections within one entity: tie-group-aware prefixes."""
    groups: List[List[FeatureStatistics]] = []
    for row in ordered:
        if groups and groups[-1][0].occurrences == row.occurrences:
            groups[-1].append(row)
        else:
            groups.append([row])

    options: Set[Tuple[FeatureStatistics, ...]] = {()}
    prefix: List[FeatureStatistics] = []
    for group in groups:
        # Partial subsets of this tie group on top of all complete earlier groups.
        for take in range(1, len(group) + 1):
            if len(prefix) + take > size_limit:
                break
            for subset in combinations(group, take):
                options.add(tuple(prefix) + subset)
        prefix.extend(group)
        if len(prefix) > size_limit:
            break
    return sorted(options, key=lambda rows: (len(rows), [str(r.feature) for r in rows]))


def exhaustive_dfs(problem: DFSProblem, max_states: int = 50_000) -> DFSSet:
    """Return an optimal DFS set by exhaustive search.

    Raises
    ------
    DFSConstructionError
        If the estimated number of joint selections exceeds ``max_states``.
    """
    config = problem.config
    per_result_selections = [
        enumerate_valid_selections(result, config.size_limit) for result in problem.results
    ]

    estimated_states = 1
    for selections in per_result_selections:
        estimated_states *= max(len(selections), 1)
        if estimated_states > max_states:
            raise DFSConstructionError(
                f"exhaustive search space too large (> {max_states} joint selections); "
                "use single_swap_dfs or multi_swap_dfs instead"
            )

    best_set: DFSSet | None = None
    best_dod = -1
    for combination in product(*per_result_selections):
        dfss = [
            DFS(result, rows)
            for result, rows in zip(problem.results, combination)
        ]
        candidate = DFSSet(dfss)
        dod = total_dod(candidate, config)
        if dod > best_dod:
            best_dod = dod
            best_set = candidate
    assert best_set is not None  # at least the all-empty combination exists
    return best_set
