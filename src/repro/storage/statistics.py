"""Corpus statistics: a DataGuide-style structural summary.

The entity classifier (:mod:`repro.entity`) decides whether a tag denotes an
entity by looking at how often nodes with that tag occur as repeating
siblings, which is a per-path aggregate computed here; XSeek's return-node
inference and the feature extractor read the same summaries.  Term document
frequencies for ranking are not kept here: the
:class:`~repro.storage.inverted_index.InvertedIndex` owns them, so building
statistics never tokenises a node.

Statistics support incremental *removal* as well as addition: every per-path
aggregate is backed by bookkeeping rich enough to subtract one document
exactly (multisets of sibling-run sizes for ``max_siblings``, value
occurrence counters for ``distinct_values``), so
:meth:`CorpusStatistics.remove_document` leaves the summary identical to a
fresh build over the remaining documents — no rebuild needed.  The one
documented approximation: ``distinct_values`` tracks at most
``_MAX_TRACKED_VALUES`` distinct values per path, so beyond that cap removal
cannot resurrect values the capped collection never recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.storage.document_store import DocumentStore
from repro.xmlmodel.node import XMLNode

__all__ = ["PathSummary", "CorpusStatistics"]


@dataclass
class PathSummary:
    """Aggregate information about one root-to-node tag path.

    Attributes
    ----------
    path:
        Tuple of tags from the document root down to the summarised nodes.
    count:
        Number of nodes in the corpus with this path.
    max_siblings:
        The largest number of same-tag siblings observed among nodes with this
        path — greater than one indicates a repeating (``*``) node in DTD terms,
        the signal XSeek uses to recognise entities.
    leaf_count:
        How many of the nodes with this path are leaf elements.
    distinct_values:
        Number of distinct leaf text values observed (capped during collection).
    """

    path: Tuple[str, ...]
    count: int = 0
    max_siblings: int = 1
    leaf_count: int = 0
    distinct_values: int = 0

    @property
    def tag(self) -> str:
        """The tag of the summarised nodes (last step of the path)."""
        return self.path[-1]

    @property
    def is_repeating(self) -> bool:
        """Whether nodes on this path ever repeat under one parent."""
        return self.max_siblings > 1

    @property
    def leaf_fraction(self) -> float:
        """Fraction of nodes with this path that are leaf elements."""
        return self.leaf_count / self.count if self.count else 0.0


class CorpusStatistics:
    """Structural statistics over a document store."""

    _MAX_TRACKED_VALUES = 1000

    def __init__(self) -> None:
        self._paths: Dict[Tuple[str, ...], PathSummary] = {}
        # value -> occurrence count per path; len() is distinct_values, the
        # counts make removal exact (a value disappears only when its last
        # occurrence does).
        self._path_values: Dict[Tuple[str, ...], Dict[str, int]] = {}
        # sibling-run size -> observation count per path; max() is
        # max_siblings, the multiset makes removal exact (the max survives
        # unless its last witness run is removed).
        self._path_sibling_runs: Dict[Tuple[str, ...], Dict[int, int]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, store: DocumentStore) -> "CorpusStatistics":
        """Collect statistics over every document in ``store``."""
        stats = cls()
        for document in store:
            stats.add_document(document.root)
        return stats

    @classmethod
    def _restore(
        cls,
        *,
        paths: Dict[Tuple[str, ...], PathSummary],
        path_values: Dict[Tuple[str, ...], Dict[str, int]],
        path_sibling_runs: Dict[Tuple[str, ...], Dict[int, int]],
    ) -> "CorpusStatistics":
        """Rebuild statistics directly from their tables (snapshot loading).

        The value-occurrence and sibling-run bookkeeping is restored in full,
        so incremental :meth:`add_document` / :meth:`remove_document` keep
        working exactly as they would on a freshly built instance.
        """
        stats = cls()
        stats._paths = paths
        stats._path_values = path_values
        stats._path_sibling_runs = path_sibling_runs
        return stats

    def clone(self) -> "CorpusStatistics":
        """Independent deep-enough copy for generation-swap writes.

        Unlike the index, the statistics mutate their aggregates *in place*
        (:class:`PathSummary` fields, the per-path value and sibling-run
        counters), so sharing them across generations is unsafe: every
        summary dataclass and every inner counter dict is copied.  Cost is
        proportional to the number of distinct paths, not corpus size —
        DataGuide summaries are small by construction.
        """
        return CorpusStatistics._restore(
            paths={
                path: PathSummary(
                    path=summary.path,
                    count=summary.count,
                    max_siblings=summary.max_siblings,
                    leaf_count=summary.leaf_count,
                    distinct_values=summary.distinct_values,
                )
                for path, summary in self._paths.items()
            },
            path_values={path: dict(values) for path, values in self._path_values.items()},
            path_sibling_runs={
                path: dict(runs) for path, runs in self._path_sibling_runs.items()
            },
        )

    def add_document(self, root: XMLNode) -> None:
        """Fold one document tree into the statistics."""
        self._fold(root, (), +1)

    def remove_document(self, root: XMLNode) -> None:
        """Subtract one previously-added document tree from the statistics.

        The caller is responsible for passing a tree that was actually folded
        in (the corpus does); the subtraction then restores exactly the state
        a fresh build over the remaining documents would produce, up to the
        ``distinct_values`` tracking cap.
        """
        self._fold(root, (), -1)

    def _summary(self, path: Tuple[str, ...]) -> PathSummary:
        summary = self._paths.get(path)
        if summary is None:
            summary = PathSummary(path=path)
            self._paths[path] = summary
            self._path_values[path] = {}
            self._path_sibling_runs[path] = {}
        return summary

    def _fold(self, node: XMLNode, parent_path: Tuple[str, ...], sign: int) -> None:
        """Add (``sign=+1``) or subtract (``sign=-1``) one subtree."""
        if not node.is_element:
            return
        path = parent_path + (node.tag,)
        summary = self._summary(path)
        summary.count += sign
        if node.is_leaf_element:
            summary.leaf_count += sign
            value = node.direct_text()
            if value:
                values = self._path_values[path]
                occurrences = values.get(value)
                if sign > 0:
                    if occurrences is not None:
                        values[value] = occurrences + 1
                    elif len(values) < self._MAX_TRACKED_VALUES:
                        values[value] = 1
                elif occurrences is not None:
                    if occurrences > 1:
                        values[value] = occurrences - 1
                    else:
                        del values[value]
            summary.distinct_values = len(self._path_values[path])

        # Sibling repetition: group the element children by tag.
        tag_counts: Dict[str, int] = {}
        for child in node.element_children():
            tag_counts[child.tag] = tag_counts.get(child.tag, 0) + 1
        for child_tag, sibling_count in tag_counts.items():
            child_path = path + (child_tag,)
            child_summary = self._summary(child_path)
            runs = self._path_sibling_runs[child_path]
            if sign > 0:
                runs[sibling_count] = runs.get(sibling_count, 0) + 1
            else:
                observations = runs.get(sibling_count, 0)
                if observations > 1:
                    runs[sibling_count] = observations - 1
                else:
                    runs.pop(sibling_count, None)
            child_summary.max_siblings = max(runs) if runs else 1

        for child in node.element_children():
            self._fold(child, path, sign)

        if sign < 0 and summary.count <= 0:
            # Last node with this path is gone: drop the summary entirely so
            # iteration and tag queries match a fresh build.
            del self._paths[path]
            del self._path_values[path]
            del self._path_sibling_runs[path]

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def path_summary(self, path: Tuple[str, ...]) -> Optional[PathSummary]:
        """Return the summary for an exact root-to-node tag path."""
        return self._paths.get(tuple(path))

    def summaries_for_tag(self, tag: str) -> List[PathSummary]:
        """Return every path summary whose last step is ``tag``."""
        return [summary for summary in self._paths.values() if summary.tag == tag]

    def tag_is_repeating(self, tag: str) -> bool:
        """Whether nodes with this tag repeat under a single parent anywhere."""
        return any(summary.is_repeating for summary in self.summaries_for_tag(tag))

    def iter_paths(self) -> Iterator[PathSummary]:
        """Iterate over every path summary."""
        return iter(self._paths.values())
