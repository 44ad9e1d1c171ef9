"""The paper's core contribution: Differentiation Feature Set (DFS) construction.

Given a set of search results — each reduced to its feature statistics by
:mod:`repro.features` — XSACT selects, for every result, a small set of
features (its DFS) so that, jointly, the DFSs maximise the *degree of
differentiation* (DoD) while each DFS stays a faithful summary of its result
(the validity constraint) and within a size bound (paper, Section 2).

The package contains:

* :mod:`~repro.core.config` — the knobs of the problem (size limit ``L``,
  differentiability threshold ``x``).
* :mod:`~repro.core.dfs` — the DFS / DFS-set value objects.
* :mod:`~repro.core.validity` — the validity (significance-prefix) constraint.
* :mod:`~repro.core.dod` — the differentiability predicate and the DoD
  objective.
* :mod:`~repro.core.problem` — the formal problem instance (Definition 1) and
  its NP-hardness context (Theorem 2.1).
* Algorithms: :mod:`~repro.core.topk` (snippet-like baseline),
  :mod:`~repro.core.random_baseline`, :mod:`~repro.core.greedy`,
  :mod:`~repro.core.single_swap`, :mod:`~repro.core.multi_swap` (dynamic
  programming), :mod:`~repro.core.exhaustive` (optimal, small instances).
* :class:`~repro.core.generator.DFSGenerator` — the facade that the XSACT
  pipeline and the experiments call.
"""

from repro.core.config import DFSConfig
from repro.core.dfs import DFS, DFSSet
from repro.core.dod import differentiable, differentiable_types, pairwise_dod, total_dod
from repro.core.exhaustive import exhaustive_dfs
from repro.core.generator import ALGORITHMS, DFSGenerator, GenerationOutcome
from repro.core.greedy import greedy_dfs
from repro.core.multi_swap import multi_swap_dfs
from repro.core.problem import DFSProblem
from repro.core.random_baseline import random_dfs
from repro.core.single_swap import single_swap_dfs
from repro.core.topk import top_significance_dfs
from repro.core.validity import is_valid_selection, validate_dfs

__all__ = [
    "DFSConfig",
    "DFS",
    "DFSSet",
    "differentiable",
    "differentiable_types",
    "pairwise_dod",
    "total_dod",
    "is_valid_selection",
    "validate_dfs",
    "DFSProblem",
    "top_significance_dfs",
    "random_dfs",
    "greedy_dfs",
    "single_swap_dfs",
    "multi_swap_dfs",
    "exhaustive_dfs",
    "DFSGenerator",
    "GenerationOutcome",
    "ALGORITHMS",
]
