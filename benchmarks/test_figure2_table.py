"""E3 — Figures 1 & 2: the {TomTom, GPS} comparison-table walk-through.

Runs the full XSACT pipeline (search → entity identification → feature
extraction → multi-swap DFS generation → comparison table) on the Product
Reviews corpus for the paper's running query and reports the generated table,
the analogue of Figure 2.  Expected shape: the two compared GPS products share
several feature types in their DFSs and the majority of table rows are
differentiating.
"""

from repro.core.config import DFSConfig
from repro.service import SearchService


def test_figure2_comparison_table(benchmark, product_corpus, report):
    service = SearchService(product_corpus, config=DFSConfig(size_limit=6))

    def build_table():
        return service.search_and_compare("tomtom gps", top=2, size_limit=6)

    outcome = benchmark.pedantic(build_table, rounds=3, iterations=1)

    report(
        "Figure 2: comparison table for query {TomTom, GPS} (multi-swap, L=6)",
        outcome.to_text(),
    )

    assert len(outcome.results) == 2
    assert outcome.dod >= 2
    assert len(outcome.table.differentiating_rows()) >= 2
    assert all(len(dfs) <= 6 for dfs in outcome.generation.dfs_set)
