"""Shared fixtures and reporting for the benchmark harness.

Every benchmark regenerates one experiment of DESIGN.md's index (a paper figure
or an ablation) and registers a plain-text table with the :func:`report`
fixture; all registered tables are printed at the end of the pytest session so
that ``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` captures
both the timing statistics and the paper-style result tables.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.core.config import DFSConfig
from repro.datasets.imdb import generate_imdb_corpus
from repro.datasets.outdoor_retailer import generate_outdoor_corpus
from repro.datasets.product_reviews import generate_product_reviews_corpus
from repro.search.engine import SearchEngine
from repro.workloads.queries import imdb_workload
from repro.workloads.runner import WorkloadRunner

_REPORTS: List[str] = []


@pytest.fixture(scope="session")
def report():
    """Register a paper-style result table for the end-of-session summary."""

    def _register(title: str, text: str) -> None:
        _REPORTS.append(f"\n===== {title} =====\n{text}")

    return _register


def pytest_terminal_summary(terminalreporter, exitstatus, config):  # noqa: D103
    if not _REPORTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("================ XSACT experiment reports ================")
    for block in _REPORTS:
        for line in block.splitlines():
            terminalreporter.write_line(line)
    terminalreporter.write_line("===========================================================")


@pytest.fixture(scope="session")
def imdb_corpus():
    """The full-size IMDB corpus used by the Figure 4 experiments (seed 42)."""
    return generate_imdb_corpus()


@pytest.fixture(scope="session")
def product_corpus():
    """The full-size Product Reviews corpus (seed 42)."""
    return generate_product_reviews_corpus()


@pytest.fixture(scope="session")
def outdoor_corpus():
    """The full-size Outdoor Retailer corpus (seed 7)."""
    return generate_outdoor_corpus()


@pytest.fixture(scope="session")
def imdb_engine(imdb_corpus):
    """A shared SLCA engine over the IMDB corpus (default query cache on)."""
    return SearchEngine(imdb_corpus)


@pytest.fixture(scope="session")
def imdb_runner(imdb_corpus):
    """Workload runner for QM1-QM8 with the paper's default configuration."""
    workload = imdb_workload(corpus_factory=lambda: imdb_corpus)
    return WorkloadRunner(workload, config=DFSConfig(size_limit=5), corpus=imdb_corpus)
