"""Multi-swap optimal DFS construction via dynamic programming.

"A set of DFSs is multi-swap optimal if, by making changes to any number of
features in a DFS, while keeping its validity and size limit bound, the degree
of differentiation cannot increase. [...] We proposed a dynamic programming
algorithm to achieve it efficiently." (paper, Section 2)

With every other DFS held fixed, the total DoD contributed by result ``i`` is a
*sum over its selected feature types* of independent per-type gains (see
:func:`repro.core.dod.type_gain_against`), because differentiability is decided
type by type.  The validity constraint forces the selection within each entity
scope to be a significance-order prefix (ties free).  Rewriting one DFS
optimally is therefore a budget-allocation problem:

1. For each entity scope ``e`` of result ``i``, order its rows by descending
   occurrence count, breaking ties by descending score — inside a tie group any
   subset is valid, so putting high-score rows first makes every prefix of the
   ordering the best valid selection of its size for that entity.
2. The prefix-score curve ``G_e(k)`` = total score of the first ``k`` rows.
3. Allocate the budget ``L`` across entities to maximise ``Σ_e G_e(k_e)`` with
   ``Σ_e k_e ≤ L`` — a grouped knapsack with unit weights solved by a standard
   dynamic program over (entities × budget).

The per-row *score* is the lexicographic pair ``(DoD gain, comparability
potential)`` encoded as a single integer (gain scaled above the largest
possible potential sum), so the DP maximises realised DoD first and, among
equal-DoD selections, prefers feature types the other results also possess —
that secondary preference is what lets separate DFSs converge on shared
comparable types over successive rounds.  A rewrite is accepted only when it
strictly increases this lexicographic objective, so rounds terminate; the
rewritten DFS is then the best valid DFS of result ``i`` given the others, and
when a full round accepts no rewrite the set is multi-swap optimal.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.config import DFSConfig
from repro.core.dfs import DFS, DFSSet
from repro.core.dod import type_gain_against, type_potential_against
from repro.core.problem import DFSProblem
from repro.core.topk import top_significance_dfs
from repro.features.statistics import FeatureStatistics, ResultFeatures

__all__ = ["multi_swap_dfs", "optimal_rewrite"]


def multi_swap_dfs(problem: DFSProblem, initial: Optional[DFSSet] = None) -> DFSSet:
    """Build a multi-swap optimal DFS set.

    Parameters
    ----------
    problem:
        The DFS construction instance.
    initial:
        Optional starting DFS set; defaults to the top-significance selection.
    """
    config = problem.config
    current = initial if initial is not None else top_significance_dfs(problem)
    dfss: List[DFS] = [dfs.copy() for dfs in current]

    for _round in range(config.max_rounds):
        improved = False
        for index in range(len(dfss)):
            others = [dfs for other_index, dfs in enumerate(dfss) if other_index != index]
            scale = _potential_scale(config, len(others))
            current_score = _selection_score(dfss[index], others, config, scale)
            rewritten, rewritten_score = optimal_rewrite(dfss[index].source, others, config)
            if rewritten_score > current_score:
                dfss[index] = rewritten
                improved = True
        if not improved:
            break
    return DFSSet(dfss)


def optimal_rewrite(
    source: ResultFeatures,
    others: Sequence[DFS],
    config: DFSConfig,
) -> Tuple[DFS, int]:
    """Return the best valid DFS for one result given the other DFSs.

    Returns the rewritten DFS together with its scaled lexicographic score
    (DoD gain scaled above the maximum possible potential sum, plus potential).
    """
    scale = _potential_scale(config, len(others))

    # Step 1-2: per-entity orderings and prefix score curves.
    entity_orderings: List[List[FeatureStatistics]] = []
    for entity in source.entities():
        rows = source.rows_for_entity(entity)
        ordered = sorted(
            rows,
            key=lambda row: (
                -row.occurrences,
                -_row_score(row, others, config, scale),
                row.feature.attribute,
                row.feature.value,
            ),
        )
        entity_orderings.append(ordered)

    score_curves: List[List[int]] = []
    for ordered in entity_orderings:
        prefix_scores = [0]
        running = 0
        for row in ordered:
            running += _row_score(row, others, config, scale)
            prefix_scores.append(running)
        score_curves.append(prefix_scores)

    # Step 3: DP over entities x budget.  The best score never falls as the
    # budget grows and is flat once every row fits, so capping the budget at
    # the row count changes no choice while bounding the tables by the
    # result's size rather than by a client-chosen size_limit.
    budget = min(config.size_limit, sum(len(ordered) for ordered in entity_orderings))
    best = [0] * (budget + 1)          # best score for each spent budget so far
    choices: List[List[int]] = []      # chosen prefix length per entity per budget
    for prefix_scores in score_curves:
        new_best = [0] * (budget + 1)
        choice_row = [0] * (budget + 1)
        max_take = len(prefix_scores) - 1
        for spent in range(budget + 1):
            best_value = -1
            best_take = 0
            for take in range(0, min(max_take, spent) + 1):
                value = best[spent - take] + prefix_scores[take]
                if value > best_value:
                    best_value = value
                    best_take = take
            new_best[spent] = best_value
            choice_row[spent] = best_take
        best = new_best
        choices.append(choice_row)

    final_budget = max(range(budget + 1), key=lambda spent: best[spent])
    total_score = best[final_budget]

    # Back-track the chosen prefix length of every entity.
    remaining = final_budget
    takes: List[int] = [0] * len(entity_orderings)
    for entity_index in range(len(entity_orderings) - 1, -1, -1):
        take = choices[entity_index][remaining]
        takes[entity_index] = take
        remaining -= take

    selected_rows: List[FeatureStatistics] = []
    for entity_index, take in enumerate(takes):
        selected_rows.extend(entity_orderings[entity_index][:take])

    # Zero-score plateaus: if budget remains, top the DFS up by significance so
    # that the output is still a full-size summary (the paper's system always
    # shows L rows when the result has that many features).  Filling along the
    # entity orderings preserves the prefix property, hence validity.
    if len(selected_rows) < budget:
        fill_candidates: List[Tuple[int, int, FeatureStatistics]] = []
        for entity_index, ordered in enumerate(entity_orderings):
            for position in range(takes[entity_index], len(ordered)):
                fill_candidates.append((entity_index, position, ordered[position]))
        fill_candidates.sort(key=lambda item: (-item[2].occurrences, str(item[2].feature)))
        for entity_index, position, row in fill_candidates:
            if len(selected_rows) >= budget:
                break
            if position != takes[entity_index]:
                continue  # not the next row of its entity ordering (yet)
            selected_rows.append(row)
            takes[entity_index] += 1

    rewritten = DFS(source, selected_rows)
    return rewritten, total_score


def _potential_scale(config: DFSConfig, num_others: int) -> int:
    """Scale factor placing DoD gain lexicographically above total potential.

    A DFS holds at most ``L`` rows and each row's potential is at most the
    number of other results, so the total potential of a selection is strictly
    below ``L * num_others + 1``.
    """
    return config.size_limit * max(num_others, 1) + 1


def _row_score(
    row: FeatureStatistics,
    others: Sequence[DFS],
    config: DFSConfig,
    scale: int,
) -> int:
    gain = type_gain_against(row, others, config)
    potential = type_potential_against(row, others, config)
    return gain * scale + potential


def _selection_score(
    dfs: DFS,
    others: Sequence[DFS],
    config: DFSConfig,
    scale: int,
) -> int:
    """Scaled lexicographic score of an existing DFS against fixed others."""
    return sum(_row_score(row, others, config, scale) for row in dfs)
