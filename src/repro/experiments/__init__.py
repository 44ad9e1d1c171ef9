"""Experiment harnesses: figure regeneration, ablations and report formatting.

Each experiment in DESIGN.md's index has a function here that produces the
corresponding table/series as plain data structures, plus a formatter that
prints them the way the paper reports them.  The ``benchmarks/`` tree wraps
these functions in pytest-benchmark targets; the ``examples/`` scripts call
them directly.
"""

from repro.experiments.ablations import (
    AblationRow,
    run_algorithm_field,
    run_num_results_ablation,
    run_optimality_gap,
    run_size_limit_ablation,
    run_threshold_ablation,
)
from repro.experiments.export import read_json, rows_to_dicts, write_csv, write_json
from repro.experiments.figure4 import Figure4Row, run_figure4
from repro.experiments.instances import micro_instance, micro_result
from repro.experiments.report import format_measurements, format_rows, series_by_algorithm

__all__ = [
    "rows_to_dicts",
    "write_csv",
    "write_json",
    "read_json",
    "micro_instance",
    "micro_result",
    "Figure4Row",
    "run_figure4",
    "AblationRow",
    "run_size_limit_ablation",
    "run_num_results_ablation",
    "run_threshold_ablation",
    "run_optimality_gap",
    "run_algorithm_field",
    "format_measurements",
    "format_rows",
    "series_by_algorithm",
]
