"""Corpus statistics: the repeating-tag table XSeek reads.

XSeek recognises an entity by one corpus-wide signal: whether its tag repeats
under a single parent, the ``*`` of a DTD.  :class:`CorpusStatistics` keeps
exactly that signal as one table, per tag the number of *groups*: elements
with two or more children of that tag.  A tag repeats iff it has a group.
Every document adds its own group counts and its removal subtracts them, so
:meth:`CorpusStatistics.remove_document` leaves the table equal to a fresh
build over the remaining documents.  Term document frequencies for ranking
are not kept here: the
:class:`~repro.storage.inverted_index.InvertedIndex` owns them, so building
statistics never tokenises a node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.storage.document_store import DocumentStore
from repro.xmlmodel.node import XMLNode

__all__ = ["CorpusStatistics", "repeating_groups"]


def repeating_groups(root: XMLNode) -> Dict[str, int]:
    """Per tag, the elements of one tree with two or more children of that tag."""
    groups: Dict[str, int] = {}
    for node in root.iter_elements():
        counts: Dict[str, int] = {}
        for child in node.element_children():
            counts[child.tag] = counts.get(child.tag, 0) + 1
        for tag, count in counts.items():
            if count > 1:
                groups[tag] = groups.get(tag, 0) + 1
    return groups


@dataclass
class CorpusStatistics:
    """Per tag, the number of corpus elements with two or more children of it.

    Only tags with at least one such group are present, so two statistics
    over the same documents compare equal however they were built.
    """

    groups: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def build(cls, store: DocumentStore) -> "CorpusStatistics":
        """Collect statistics over every document in ``store``."""
        stats = cls()
        for document in store:
            stats.add_document(document.root)
        return stats

    def clone(self) -> "CorpusStatistics":
        """Independent copy for generation-swap writes."""
        return CorpusStatistics(dict(self.groups))

    def add_document(self, root: XMLNode) -> None:
        """Add one document tree's groups."""
        groups = self.groups
        for tag, count in repeating_groups(root).items():
            groups[tag] = groups.get(tag, 0) + count

    def remove_document(self, root: XMLNode) -> None:
        """Subtract the groups of a tree that was added before.

        A tag whose count reaches zero is dropped, so the table equals a
        fresh build over the remaining documents.
        """
        groups = self.groups
        for tag, count in repeating_groups(root).items():
            remaining = groups.get(tag, 0) - count
            if remaining > 0:
                groups[tag] = remaining
            else:
                groups.pop(tag, None)

    def tag_is_repeating(self, tag: str) -> bool:
        """Whether nodes with this tag repeat under a single parent anywhere."""
        return tag in self.groups
