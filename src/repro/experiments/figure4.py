"""Regeneration of Figure 4: effectiveness and efficiency of XSACT.

Figure 4 of the paper plots, for the eight IMDB queries QM1-QM8:

* (a) the DoD achieved by the single-swap and multi-swap methods, and
* (b) their processing times.

:func:`run_figure4` reproduces both panels in one pass: for every query it runs
both algorithms over all of the query's results and records DoD and
construction time.  Expected shape (see DESIGN.md / EXPERIMENTS.md): multi-swap
DoD >= single-swap DoD on every query, both algorithms well under a second per
query, single-swap usually but not always faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import DFSConfig
from repro.storage.corpus import Corpus
from repro.workloads.queries import Workload, imdb_workload
from repro.workloads.runner import WorkloadRunner

__all__ = ["Figure4Row", "run_figure4"]


@dataclass(frozen=True)
class Figure4Row:
    """One query's row of Figure 4 (both panels)."""

    query_name: str
    num_results: int
    single_swap_dod: int
    multi_swap_dod: int
    single_swap_seconds: float
    multi_swap_seconds: float

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary form for reports and benchmark output."""
        return {
            "query": self.query_name,
            "results": self.num_results,
            "dod_single_swap": self.single_swap_dod,
            "dod_multi_swap": self.multi_swap_dod,
            "time_single_swap_s": round(self.single_swap_seconds, 6),
            "time_multi_swap_s": round(self.multi_swap_seconds, 6),
        }


def run_figure4(
    config: Optional[DFSConfig] = None,
    workload: Optional[Workload] = None,
    corpus: Optional[Corpus] = None,
    runner: Optional[WorkloadRunner] = None,
) -> List[Figure4Row]:
    """Run the Figure 4 experiment and return one row per query.

    Parameters
    ----------
    config:
        DFS configuration (defaults to L=5, x=10%).
    workload:
        Query workload; defaults to QM1-QM8 over the synthetic IMDB corpus.
    corpus:
        Pre-built corpus to reuse (avoids regenerating it in benchmarks).
    runner:
        Pre-built runner to reuse (implies ``workload``/``corpus``/``config``).
    """
    if runner is None:
        workload = workload or imdb_workload()
        runner = WorkloadRunner(workload, config=config, corpus=corpus)
    rows: List[Figure4Row] = []
    for spec in runner.workload.queries:
        single = runner.run_query(spec, "single_swap")
        multi = runner.run_query(spec, "multi_swap")
        rows.append(
            Figure4Row(
                query_name=spec.name,
                num_results=single.num_results,
                single_swap_dod=single.dod,
                multi_swap_dod=multi.dod,
                single_swap_seconds=single.construction_seconds,
                multi_swap_seconds=multi.construction_seconds,
            )
        )
    return rows
