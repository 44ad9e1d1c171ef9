"""Plain-text report formatting for experiment output.

The harness prints the same rows/series the paper reports, aligned as text
tables so they read well in a terminal, in ``bench_output.txt`` and in
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

__all__ = ["format_rows", "format_measurements", "series_by_algorithm"]


def format_rows(rows: Sequence[Mapping[str, object]], title: str = "") -> str:
    """Format a list of flat dictionaries as an aligned text table.

    All dictionaries should share the same keys; the key order of the first row
    defines the column order.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())
    table: List[List[str]] = [[str(column) for column in columns]]
    for row in rows:
        table.append([_format_value(row.get(column, "")) for column in columns])

    widths = [max(len(line[index]) for line in table) for index in range(len(columns))]

    def render(line: List[str]) -> str:
        return "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(line))

    lines = []
    if title:
        lines.append(title)
    lines.append(render(table[0]))
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(render(line) for line in table[1:])
    return "\n".join(lines)


def format_measurements(measurements: Sequence[object], title: str = "") -> str:
    """Format objects exposing ``as_dict()`` (measurements, rows) as a table."""
    return format_rows([measurement.as_dict() for measurement in measurements], title=title)


def series_by_algorithm(
    measurements: Sequence[object],
    value_key: str = "dod",
    label_key: str = "query",
    algorithm_key: str = "algorithm",
) -> Dict[str, List[object]]:
    """Pivot measurements into per-algorithm series (the figure's data layout).

    Returns ``{algorithm: [value per label in first-appearance order]}`` — the
    shape a plotting script or a quick textual comparison needs.
    """
    dictionaries = [measurement.as_dict() for measurement in measurements]
    labels: List[object] = []
    for row in dictionaries:
        label = row.get(label_key)
        if label not in labels:
            labels.append(label)
    series: Dict[str, List[object]] = {}
    for row in dictionaries:
        algorithm = str(row.get(algorithm_key))
        series.setdefault(algorithm, [None] * len(labels))
        series[algorithm][labels.index(row.get(label_key))] = row.get(value_key)
    return series


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6f}".rstrip("0").rstrip(".") if value else "0"
    return str(value)
