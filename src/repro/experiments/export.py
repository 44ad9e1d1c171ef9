"""Export of experiment results to CSV and JSON.

Experiment rows (Figure 4 rows, ablation rows, workload measurements) all
expose ``as_dict()``; these helpers persist them so results can be versioned,
diffed across runs, or plotted with external tooling.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import List, Mapping, Sequence, Union

from repro.errors import ExperimentError

__all__ = ["rows_to_dicts", "write_csv", "write_json", "read_json"]

_PathLike = Union[str, Path]


def rows_to_dicts(rows: Sequence[object]) -> List[Mapping[str, object]]:
    """Normalise experiment rows (objects with ``as_dict()`` or mappings) to dicts."""
    dictionaries: List[Mapping[str, object]] = []
    for row in rows:
        if hasattr(row, "as_dict"):
            dictionaries.append(row.as_dict())
        elif isinstance(row, Mapping):
            dictionaries.append(dict(row))
        else:
            raise ExperimentError(f"cannot export row of type {type(row).__name__}")
    return dictionaries


def write_csv(rows: Sequence[object], path: _PathLike) -> Path:
    """Write experiment rows as CSV; returns the written path.

    The union of keys across all rows forms the header (missing values are
    left blank), so heterogeneous ablation sweeps can share one file.
    """
    dictionaries = rows_to_dicts(rows)
    if not dictionaries:
        raise ExperimentError("cannot export an empty result set")
    fieldnames: List[str] = []
    for dictionary in dictionaries:
        for key in dictionary:
            if key not in fieldnames:
                fieldnames.append(key)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(dictionaries)
    return target


def write_json(rows: Sequence[object], path: _PathLike, indent: int = 2) -> Path:
    """Write experiment rows as a JSON array; returns the written path."""
    dictionaries = rows_to_dicts(rows)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(dictionaries, handle, indent=indent, sort_keys=True)
        handle.write("\n")
    return target


def read_json(path: _PathLike) -> List[Mapping[str, object]]:
    """Read back a JSON export written by :func:`write_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, list):
        raise ExperimentError(f"{path} does not contain a JSON array of rows")
    return data
