"""Comparison tables and their renderers.

The user-visible output of XSACT is the comparison table of Figure 2: rows are
feature types, columns are the selected results, and each cell shows the value
and occurrence statistics of that result's DFS for that type (or is blank when
the type is not in the result's DFS).  This package builds that table from a
DFS set (:mod:`~repro.comparison.table`) and renders it as plain text,
Markdown or HTML (:mod:`~repro.comparison.render`).  The pipeline that feeds
it — search, result selection, feature extraction, DFS generation — runs in
:class:`~repro.service.service.SearchService`.
"""

from repro.comparison.render import render_html, render_markdown, render_text
from repro.comparison.table import ComparisonCell, ComparisonRow, ComparisonTable

__all__ = [
    "ComparisonCell",
    "ComparisonRow",
    "ComparisonTable",
    "render_text",
    "render_markdown",
    "render_html",
]
