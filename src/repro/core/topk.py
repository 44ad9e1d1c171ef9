"""Top-significance baseline (snippet-like DFS construction).

Each result independently selects its ``L`` most significant features (largest
occurrence counts), which is essentially what a frequency-driven snippet
generator such as eXtract shows.  The selection is always valid — taking the
globally most frequent rows can never skip over a more frequent row of the same
entity — but it ignores the other results entirely, which is exactly the
shortcoming the paper illustrates with Figure 1: frequent features of different
results often do not line up, so few feature types end up shared and the DoD
stays low.  This baseline is the starting point of the single-swap algorithm
and the reference point of the DoD-improvement experiments.
"""

from __future__ import annotations

from typing import List

from repro.core.dfs import DFS, DFSSet
from repro.core.problem import DFSProblem

__all__ = ["top_significance_dfs"]


def top_significance_dfs(problem: DFSProblem) -> DFSSet:
    """Build the DFS set where each result takes its top-L most frequent rows."""
    limit = problem.config.size_limit
    dfss: List[DFS] = []
    for result in problem.results:
        rows = result.top_rows(limit)
        dfss.append(DFS(result, rows))
    return DFSSet(dfss)
