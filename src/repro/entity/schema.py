"""Schema inference for result trees.

A small structural summary of a result (or a whole corpus): which entity tags
exist, which attribute tags hang under each entity, and how often they occur.
The comparison UI uses this to group rows; tests use it to check that the
synthetic datasets produce the schema shapes the paper describes (products with
reviews carrying pros/cons/uses, brands with products, movies with cast).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.entity.classifier import NodeCategory, NodeClassifier, owned_leaves
from repro.storage.statistics import CorpusStatistics
from repro.xmlmodel.node import XMLNode

__all__ = ["SchemaAttribute", "EntitySchema", "infer_schema"]


@dataclass
class SchemaAttribute:
    """One attribute tag observed under an entity tag."""

    name: str
    occurrences: int = 0
    sample_values: List[str] = field(default_factory=list)

    _MAX_SAMPLES = 5

    def record(self, value: str) -> None:
        """Record one occurrence of the attribute with the given value."""
        self.occurrences += 1
        if value and len(self.sample_values) < self._MAX_SAMPLES and value not in self.sample_values:
            self.sample_values.append(value)


@dataclass
class EntitySchema:
    """The attributes observed under one entity tag."""

    entity_tag: str
    instance_count: int = 0
    attributes: Dict[str, SchemaAttribute] = field(default_factory=dict)

    def attribute(self, name: str) -> SchemaAttribute:
        """Return (creating if needed) the attribute record for ``name``."""
        if name not in self.attributes:
            self.attributes[name] = SchemaAttribute(name=name)
        return self.attributes[name]

    def attribute_names(self) -> List[str]:
        """Attribute tags sorted by descending occurrence count."""
        return [
            attribute.name
            for attribute in sorted(
                self.attributes.values(), key=lambda a: (-a.occurrences, a.name)
            )
        ]


def infer_schema(
    trees: Iterable[XMLNode],
    statistics: Optional[CorpusStatistics] = None,
) -> Dict[str, EntitySchema]:
    """Infer an entity → attributes schema from a collection of trees.

    Every leaf element is attributed to its nearest entity ancestor as inferred
    by the :class:`~repro.entity.classifier.NodeClassifier`.
    """
    classifier = NodeClassifier(statistics=statistics)
    schemas: Dict[str, EntitySchema] = {}
    for root in trees:
        categories = classifier.classify(root)
        for node in root.iter_elements():
            if categories[node] is NodeCategory.ENTITY:
                schema = schemas.setdefault(node.tag, EntitySchema(entity_tag=node.tag))
                schema.instance_count += 1
        for leaf, _, owner in owned_leaves(root, categories):
            if owner is None:
                continue
            schema = schemas.setdefault(owner.tag, EntitySchema(entity_tag=owner.tag))
            schema.attribute(leaf.tag).record(leaf.direct_text())
    return schemas
