"""The comparison-table model (Figure 2 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.core.config import DFSConfig
from repro.core.dfs import DFSSet
from repro.core.dod import differentiable, total_dod
from repro.errors import ComparisonError, ComparisonLookupError
from repro.features.feature import FeatureType
from repro.features.statistics import FeatureStatistics

__all__ = ["ComparisonCell", "ComparisonRow", "ComparisonTable"]


@dataclass(frozen=True)
class ComparisonCell:
    """One cell of the comparison table.

    A cell is either empty (the result's DFS does not contain the row's feature
    type — analogous to the "null/unknown" discussion in the paper) or shows
    the value together with its occurrence statistics.
    """

    value: Optional[str] = None
    occurrences: int = 0
    population: int = 0

    @property
    def is_empty(self) -> bool:
        """Whether the result's DFS has no feature of this row's type."""
        return self.value is None

    @property
    def rate(self) -> float:
        """Occurrence rate, 0.0 for empty cells."""
        if self.is_empty or self.population == 0:
            return 0.0
        return self.occurrences / self.population

    def display(self) -> str:
        """Human-readable cell content, e.g. ``"compact (8/11, 73%)"``."""
        if self.is_empty:
            return "—"
        if self.population <= 1:
            return str(self.value)
        return f"{self.value} ({self.occurrences}/{self.population}, {self.rate:.0%})"


@dataclass
class ComparisonRow:
    """One row of the comparison table: a feature type across all results."""

    feature_type: FeatureType
    cells: List[ComparisonCell]
    differentiating: bool = False

    def label(self) -> str:
        """Row label, e.g. ``"review.pro"``."""
        return str(self.feature_type)


class ComparisonTable:
    """The comparison table generated from a DFS set.

    Rows are the union of feature types across the DFSs, grouped by entity and
    ordered by how strongly they differentiate (differentiating rows first,
    then by total occurrences) — the order a user scanning the table benefits
    from most.  Columns are the results, in the order they were selected.
    """

    def __init__(
        self,
        column_ids: Sequence[str],
        column_titles: Sequence[str],
        rows: Sequence[ComparisonRow],
        dod: int,
        config: DFSConfig,
    ):
        if len(column_ids) != len(column_titles):
            raise ComparisonError("column ids and titles must align")
        self.column_ids = list(column_ids)
        self.column_titles = list(column_titles)
        self.rows = list(rows)
        self.dod = dod
        self.config = config

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dfs_set(
        cls,
        dfs_set: DFSSet,
        config: Optional[DFSConfig] = None,
        column_titles: Optional[Sequence[str]] = None,
    ) -> "ComparisonTable":
        """Build the table for a DFS set.

        Parameters
        ----------
        dfs_set:
            The DFSs of the selected results.
        config:
            Needed for the differentiability marking; defaults to the standard
            configuration.
        column_titles:
            Optional display titles (product names); defaults to result ids.
        """
        config = config or DFSConfig()
        column_ids = dfs_set.result_ids()
        titles = list(column_titles) if column_titles is not None else list(column_ids)
        if len(titles) != len(column_ids):
            raise ComparisonError(
                f"expected {len(column_ids)} column titles, got {len(titles)}"
            )

        rows: List[ComparisonRow] = []
        for feature_type in dfs_set.all_feature_types():
            cells: List[ComparisonCell] = []
            present_rows: List[FeatureStatistics] = []
            for dfs in dfs_set:
                row = dfs.get(feature_type)
                if row is None:
                    cells.append(ComparisonCell())
                else:
                    present_rows.append(row)
                    cells.append(
                        ComparisonCell(
                            value=row.feature.value,
                            occurrences=row.occurrences,
                            population=row.population,
                        )
                    )
            rows.append(
                ComparisonRow(
                    feature_type=feature_type,
                    cells=cells,
                    differentiating=_row_differentiates(present_rows, config),
                )
            )

        rows.sort(
            key=lambda row: (
                row.feature_type.entity,
                not row.differentiating,
                -sum(cell.occurrences for cell in row.cells),
                row.feature_type.attribute,
            )
        )
        return cls(
            column_ids=column_ids,
            column_titles=titles,
            rows=rows,
            dod=total_dod(dfs_set, config),
            config=config,
        )

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[ComparisonRow]:
        return iter(self.rows)

    def row_for(self, feature_type: FeatureType) -> ComparisonRow:
        """Return the row of a feature type.

        Raises
        ------
        ComparisonLookupError
            If the table has no such row (also catchable as
            :class:`KeyError`).
        """
        for row in self.rows:
            if row.feature_type == feature_type:
                return row
        raise ComparisonLookupError(f"no comparison row for feature type {feature_type}")

    def differentiating_rows(self) -> List[ComparisonRow]:
        """Rows on which at least one pair of results is differentiable."""
        return [row for row in self.rows if row.differentiating]

    def column_index(self, result_id: str) -> int:
        """Index of a result's column.

        Raises
        ------
        ComparisonLookupError
            If the result id is not a column (also catchable as
            :class:`KeyError`).
        """
        try:
            return self.column_ids.index(result_id)
        except ValueError:
            raise ComparisonLookupError(f"no comparison column for result id {result_id!r}") from None


def _row_differentiates(present_rows: List[FeatureStatistics], config: DFSConfig) -> bool:
    for index_a in range(len(present_rows)):
        for index_b in range(index_a + 1, len(present_rows)):
            if differentiable(present_rows[index_a], present_rows[index_b], config):
                return True
    return False
