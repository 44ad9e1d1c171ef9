"""Differentiability and the Degree of Differentiation (DoD) objective.

The paper defines (Section 2):

* two results are *comparable* by features of the same type;
* DFSs ``D1`` and ``D2`` are *differentiable* in a feature type ``t`` iff there
  is a feature of ``t`` whose occurrences in the two results differ by more
  than ``x``% of the smaller one (x = 10 by default) — we additionally treat
  differing *values* of a shared type as differentiating, which is required to
  reproduce the paper's own walk-through (Product:Name contributes to the DoD
  of 2 in Figure 1);
* ``DoD(D1, D2)`` is the number of feature types on which the two DFSs are
  differentiable;
* the total DoD of ``D1..Dn`` is the sum of DoD over all unordered pairs, and
  that is the objective DFS construction maximises.

Because the total DoD is a sum of per-type, per-pair indicators, it decomposes
additively over the feature types selected for one result when every other DFS
is held fixed; the single-swap and multi-swap algorithms exploit exactly this
decomposition and therefore route their gain computations through
:func:`type_gain_against`.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.core.config import DFSConfig
from repro.core.dfs import DFS, DFSSet
from repro.features.feature import FeatureType
from repro.features.statistics import FeatureStatistics

__all__ = [
    "differentiable",
    "differentiable_types",
    "pairwise_dod",
    "total_dod",
    "type_gain_against",
    "type_potential_against",
]


def differentiable(
    row_a: FeatureStatistics,
    row_b: FeatureStatistics,
    config: DFSConfig,
) -> bool:
    """Whether two rows of the *same feature type* differentiate their results.

    Parameters
    ----------
    row_a, row_b:
        Feature rows of the same (entity, attribute) type, one from each result.
    config:
        Supplies the threshold ``x`` and the rate-vs-count choice.
    """
    if config.compare_values and row_a.feature.value != row_b.feature.value:
        return True
    if config.use_rates:
        value_a, value_b = row_a.rate, row_b.rate
    else:
        value_a, value_b = float(row_a.occurrences), float(row_b.occurrences)
    smaller = min(value_a, value_b)
    difference = abs(value_a - value_b)
    if smaller <= 0:
        return difference > 0
    return difference > config.threshold_fraction * smaller


def differentiable_types(dfs_a: DFS, dfs_b: DFS, config: DFSConfig) -> List[FeatureType]:
    """The shared feature types on which two DFSs are differentiable."""
    shared = set(dfs_a.feature_types()) & set(dfs_b.feature_types())
    result: List[FeatureType] = []
    for feature_type in sorted(shared):
        row_a = dfs_a.get(feature_type)
        row_b = dfs_b.get(feature_type)
        if row_a is not None and row_b is not None and differentiable(row_a, row_b, config):
            result.append(feature_type)
    return result


def pairwise_dod(dfs_a: DFS, dfs_b: DFS, config: DFSConfig) -> int:
    """DoD(D_a, D_b): the number of differentiable shared feature types."""
    return len(differentiable_types(dfs_a, dfs_b, config))


def total_dod(dfss: "DFSSet | Sequence[DFS]", config: DFSConfig) -> int:
    """Total DoD: sum of pairwise DoD over every unordered pair of DFSs."""
    items: List[DFS] = list(dfss)
    total = 0
    for index_a in range(len(items)):
        for index_b in range(index_a + 1, len(items)):
            total += pairwise_dod(items[index_a], items[index_b], config)
    return total


def type_gain_against(
    row: FeatureStatistics,
    others: Iterable[DFS],
    config: DFSConfig,
) -> int:
    """Marginal DoD contribution of selecting ``row`` for one result.

    With every other DFS fixed, selecting a row of type ``t`` for result ``i``
    adds one DoD unit for every other DFS that (a) also selected type ``t`` and
    (b) is differentiable from ``row`` on it.  This is the additive
    decomposition the local-search algorithms optimise over.
    """
    gain = 0
    for other in others:
        other_row = other.get(row.feature_type)
        if other_row is not None and differentiable(row, other_row, config):
            gain += 1
    return gain


def type_potential_against(
    row: FeatureStatistics,
    others: Iterable[DFS],
    config: DFSConfig,
) -> int:
    """Comparability *potential* of selecting ``row`` for one result.

    Counts the other results whose feature statistics contain ``row``'s type
    with a differentiating value/rate, regardless of whether that type is
    currently selected in their DFS.  The local-search algorithms use this as a
    secondary, tie-breaking objective: a feature with zero immediate DoD gain
    but positive potential can still become differentiating once the other
    result's DFS is revisited and selects the same type, so preferring it on
    gain ties lets the results coordinate on shared feature types across
    rounds (selecting it never hurts the primary objective).
    """
    potential = 0
    for other in others:
        other_row = other.source.get(row.feature_type)
        if other_row is not None and differentiable(row, other_row, config):
            potential += 1
    return potential
