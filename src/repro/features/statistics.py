"""Per-result feature statistics.

For a search result, the feature statistics are the table on the right-hand
side of Figure 1 in the paper::

    # of reviews: 11
    ATTR : VALUE : # of occ
    pro: easy to read: 10
    pro: compact: 8
    best use: auto: 6
    ...

Every row is a :class:`FeatureStatistics` record: a feature (entity, attribute,
value) plus its occurrence count and the size of the population it was counted
over (e.g. the number of reviews of the product).  A result's complete set of
rows is a :class:`ResultFeatures`, which also provides the significance-ordered
view per entity that the DFS validity constraint is defined on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import FeatureExtractionError, UnknownFeatureTypeError
from repro.features.feature import Feature, FeatureType

__all__ = ["FeatureStatistics", "ResultFeatures"]


@dataclass(frozen=True)
class FeatureStatistics:
    """One feature of a result together with its occurrence statistics.

    Attributes
    ----------
    feature:
        The (entity, attribute, value) triplet.
    occurrences:
        How many times the feature occurs in the result (e.g. how many
        reviewers said Yes to ``pro: compact``).
    population:
        The number of opportunities the feature had to occur (e.g. the number
        of reviews).  Always at least ``occurrences``; used to normalise
        occurrence counts into rates so results with different review counts
        stay comparable.
    """

    feature: Feature
    occurrences: int
    population: int

    def __post_init__(self) -> None:
        if self.occurrences < 0:
            raise FeatureExtractionError("occurrences must be non-negative")
        if self.population < max(self.occurrences, 1):
            raise FeatureExtractionError(
                f"population ({self.population}) must be >= occurrences ({self.occurrences}) and >= 1"
            )

    @property
    def feature_type(self) -> FeatureType:
        """The feature's (entity, attribute) type."""
        return self.feature.feature_type

    @property
    def rate(self) -> float:
        """Occurrence rate within the population, in [0, 1]."""
        return self.occurrences / self.population

    def __str__(self) -> str:
        return f"{self.feature.attribute}: {self.feature.value}: {self.occurrences}"


class ResultFeatures:
    """All feature statistics of one search result.

    The container preserves insertion order, offers lookups by feature type and
    exposes the *significance ordering* used by the DFS validity constraint:
    within one entity, feature types ordered by decreasing occurrence count.
    """

    def __init__(self, result_id: str, rows: Optional[Sequence[FeatureStatistics]] = None):
        self.result_id = result_id
        self._rows: List[FeatureStatistics] = []
        self._by_type: Dict[FeatureType, FeatureStatistics] = {}
        for row in rows or []:
            self.add(row)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, row: FeatureStatistics) -> None:
        """Add a row; a second row of an existing feature type replaces the
        first only if it has more occurrences (the statistics keep the dominant
        value per type, as in the paper's examples)."""
        existing = self._by_type.get(row.feature_type)
        if existing is None:
            self._rows.append(row)
            self._by_type[row.feature_type] = row
            return
        if row.occurrences > existing.occurrences:
            index = self._rows.index(existing)
            self._rows[index] = row
            self._by_type[row.feature_type] = row

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[FeatureStatistics]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, feature_type: FeatureType) -> bool:
        return feature_type in self._by_type

    def get(self, feature_type: FeatureType) -> Optional[FeatureStatistics]:
        """Return the row of a feature type, or ``None``."""
        return self._by_type.get(feature_type)

    def feature_types(self) -> List[FeatureType]:
        """Return every feature type present, in insertion order."""
        return [row.feature_type for row in self._rows]

    def entities(self) -> List[str]:
        """Return the distinct entity names, in insertion order."""
        seen: Dict[str, None] = {}
        for row in self._rows:
            seen.setdefault(row.feature.entity, None)
        return list(seen)

    def rows_for_entity(self, entity: str) -> List[FeatureStatistics]:
        """Return the rows of one entity in insertion order."""
        return [row for row in self._rows if row.feature.entity == entity]

    # ------------------------------------------------------------------ #
    # Significance ordering (Desideratum 2)
    # ------------------------------------------------------------------ #
    def significance_order(self, entity: str) -> List[FeatureStatistics]:
        """Rows of one entity ordered by decreasing occurrences.

        Ties are broken by attribute then value so the order is deterministic;
        the validity constraint treats tied rows as interchangeable.
        """
        rows = self.rows_for_entity(entity)
        return sorted(
            rows,
            key=lambda row: (-row.occurrences, row.feature.attribute, row.feature.value),
        )

    def significance_rank(self, feature_type: FeatureType) -> int:
        """0-based rank of a feature type within its entity's significance order.

        Raises
        ------
        UnknownFeatureTypeError
            If the feature type is not present (also catchable as
            :class:`KeyError`).
        """
        row = self._by_type.get(feature_type)
        if row is None:
            raise UnknownFeatureTypeError(str(feature_type))
        ordered = self.significance_order(feature_type.entity)
        return ordered.index(row)

    def top_rows(self, limit: int) -> List[FeatureStatistics]:
        """The ``limit`` most significant rows across all entities.

        Entities are interleaved by significance (global sort on occurrence
        count), matching how a frequency-based snippet would pick features.
        """
        ordered = sorted(
            self._rows,
            key=lambda row: (-row.occurrences, row.feature.entity, row.feature.attribute, row.feature.value),
        )
        return ordered[:limit]

    def total_occurrences(self) -> int:
        """Sum of occurrence counts over all rows."""
        return sum(row.occurrences for row in self._rows)

    def __repr__(self) -> str:
        return f"ResultFeatures(result_id={self.result_id!r}, rows={len(self._rows)})"
