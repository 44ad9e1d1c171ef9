"""DFS and DFS-set value objects.

A :class:`DFS` is the selection of feature rows chosen for one result; a
:class:`DFSSet` bundles the DFSs of all the results being compared, which is
the unit the DoD objective and the comparison table operate on.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.errors import DFSConstructionError, ResultNotFoundError
from repro.features.feature import FeatureType
from repro.features.statistics import FeatureStatistics, ResultFeatures

__all__ = ["DFS", "DFSSet"]


class DFS:
    """The Differentiation Feature Set of one result.

    A DFS is a subset of the result's feature rows.  The class is a thin,
    hashable-by-content container: validity and size constraints are checked by
    :mod:`repro.core.validity`, not here, so that algorithms can hold partial /
    candidate selections while they search.
    """

    def __init__(self, source: ResultFeatures, rows: Optional[Iterable[FeatureStatistics]] = None):
        self.source = source
        self._rows: List[FeatureStatistics] = []
        self._by_type: Dict[FeatureType, FeatureStatistics] = {}
        for row in rows or []:
            self.add(row)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, row: FeatureStatistics) -> None:
        """Add a row taken from the source result.

        Raises
        ------
        DFSConstructionError
            If the row does not belong to the source result or its type is
            already selected.
        """
        if self.source.get(row.feature_type) is not row:
            raise DFSConstructionError(
                f"row {row} is not a feature row of result {self.source.result_id!r}"
            )
        if row.feature_type in self._by_type:
            raise DFSConstructionError(f"feature type {row.feature_type} already selected")
        self._rows.append(row)
        self._by_type[row.feature_type] = row

    def remove(self, feature_type: FeatureType) -> FeatureStatistics:
        """Remove and return the row of the given type.

        Raises
        ------
        DFSConstructionError
            If the type is not selected.
        """
        row = self._by_type.pop(feature_type, None)
        if row is None:
            raise DFSConstructionError(f"feature type {feature_type} is not in the DFS")
        self._rows.remove(row)
        return row

    def copy(self) -> "DFS":
        """Return a shallow copy (same source, same row objects)."""
        return DFS(self.source, list(self._rows))

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def result_id(self) -> str:
        """Identifier of the result this DFS summarises."""
        return self.source.result_id

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[FeatureStatistics]:
        return iter(self._rows)

    def __contains__(self, feature_type: FeatureType) -> bool:
        return feature_type in self._by_type

    def get(self, feature_type: FeatureType) -> Optional[FeatureStatistics]:
        """Return the selected row of a feature type, or ``None``."""
        return self._by_type.get(feature_type)

    def feature_types(self) -> List[FeatureType]:
        """The selected feature types in insertion order."""
        return [row.feature_type for row in self._rows]

    def rows(self) -> List[FeatureStatistics]:
        """The selected rows in insertion order."""
        return list(self._rows)

    def rows_for_entity(self, entity: str) -> List[FeatureStatistics]:
        """The selected rows belonging to one entity."""
        return [row for row in self._rows if row.feature.entity == entity]

    def sorted_rows(self) -> List[FeatureStatistics]:
        """Rows ordered by entity then descending occurrences (display order)."""
        return sorted(
            self._rows,
            key=lambda row: (row.feature.entity, -row.occurrences, row.feature.attribute),
        )

    def __repr__(self) -> str:
        return f"DFS(result={self.result_id!r}, size={len(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DFS):
            return NotImplemented
        return self.source is other.source and set(self._by_type) == set(other._by_type)

    def __hash__(self) -> int:
        return hash((id(self.source), frozenset(self._by_type)))


class DFSSet:
    """The DFSs of every result under comparison, in result order."""

    def __init__(self, dfss: Sequence[DFS]):
        if not dfss:
            raise DFSConstructionError("a DFS set needs at least one DFS")
        self._dfss: List[DFS] = list(dfss)
        ids = [dfs.result_id for dfs in self._dfss]
        if len(set(ids)) != len(ids):
            raise DFSConstructionError(f"duplicate result ids in DFS set: {ids}")

    def __iter__(self) -> Iterator[DFS]:
        return iter(self._dfss)

    def __len__(self) -> int:
        return len(self._dfss)

    def __getitem__(self, index: int) -> DFS:
        return self._dfss[index]

    def by_result(self, result_id: str) -> DFS:
        """Return the DFS of a given result id.

        Raises
        ------
        ResultNotFoundError
            If the result id is unknown (also catchable as
            :class:`KeyError`).
        """
        for dfs in self._dfss:
            if dfs.result_id == result_id:
                return dfs
        raise ResultNotFoundError(result_id)

    def result_ids(self) -> List[str]:
        """Return the result ids in order."""
        return [dfs.result_id for dfs in self._dfss]

    def replace(self, index: int, dfs: DFS) -> "DFSSet":
        """Return a new set with position ``index`` replaced by ``dfs``."""
        updated = list(self._dfss)
        updated[index] = dfs
        return DFSSet(updated)

    def total_size(self) -> int:
        """Total number of selected features across all DFSs."""
        return sum(len(dfs) for dfs in self._dfss)

    def all_feature_types(self) -> List[FeatureType]:
        """Union of selected feature types across all DFSs, sorted."""
        types = set()
        for dfs in self._dfss:
            types.update(dfs.feature_types())
        return sorted(types)

    def __repr__(self) -> str:
        return f"DFSSet(results={self.result_ids()}, total_size={self.total_size()})"
