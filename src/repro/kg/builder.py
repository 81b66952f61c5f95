"""Builders that turn an interaction dataset into a knowledge graph.

This is the data-processing step shared with PGPR/ADAC-style pipelines: users,
items, brands and features become entities; purchases, mentions, descriptions
and catalogue co-occurrences become relations (plus automatically added
inverses); the Amazon category metadata becomes the item → category map used
to derive the category knowledge graph ``Gc``.

Only *training* interactions are used to build the graph so the held-out test
items remain reachable only through genuine multi-hop structure.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..data.schema import Interaction, InteractionDataset
from .category_graph import CategoryGraph
from .entities import EntityStore, EntityType
from .graph import KnowledgeGraph
from .relations import Relation

_ITEM_RELATION_MAP = {
    "also_bought": Relation.ALSO_BOUGHT,
    "also_viewed": Relation.ALSO_VIEWED,
    "bought_together": Relation.BOUGHT_TOGETHER,
}


class KGBuilder:
    """Builds a :class:`KnowledgeGraph` (and its ``Gc``) from a dataset."""

    def __init__(self, dataset: InteractionDataset) -> None:
        self.dataset = dataset
        self.entities = EntityStore()
        self.user_entity: Dict[int, int] = {}
        self.item_entity: Dict[int, int] = {}
        self.brand_entity: Dict[int, int] = {}
        self.feature_entity: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    def build(self, train_interactions: Optional[Iterable[Interaction]] = None
              ) -> Tuple[KnowledgeGraph, CategoryGraph]:
        """Construct the KG and its category graph.

        Parameters
        ----------
        train_interactions:
            The interactions to materialise as ``purchase``/``mention`` edges.
            Defaults to the full log (useful for exploratory analysis); the
            experiment harness always passes the training split.
        """
        interactions = list(train_interactions if train_interactions is not None
                            else self.dataset.interactions)
        self._register_entities()
        graph = KnowledgeGraph(self.entities)
        graph.set_category_names(self.dataset.category_names)

        graph.add_triplets(self._edge_table(interactions))
        self._assign_categories(graph)

        category_graph = CategoryGraph.from_knowledge_graph(graph)
        return graph, category_graph

    # ------------------------------------------------------------------ #
    def _register_entities(self) -> None:
        for user_id in range(self.dataset.num_users):
            entity = self.entities.add(EntityType.USER, f"user_{user_id}")
            self.user_entity[user_id] = entity.entity_id
        for product in self.dataset.products:
            entity = self.entities.add(EntityType.ITEM, product.name)
            self.item_entity[product.item_id] = entity.entity_id
        for brand_id, name in enumerate(self.dataset.brand_names):
            entity = self.entities.add(EntityType.BRAND, name)
            self.brand_entity[brand_id] = entity.entity_id
        for feature_id, name in enumerate(self.dataset.feature_names):
            entity = self.entities.add(EntityType.FEATURE, name)
            self.feature_entity[feature_id] = entity.entity_id

    def _edge_table(self, interactions: Iterable[Interaction]
                    ) -> List[Tuple[int, Relation, int]]:
        """The forward ``(head, relation, tail)`` rows: catalogue edges (each
        product's brand then features, then the item relations), then each
        interaction's purchase and mentions."""
        user_entity, item_entity = self.user_entity, self.item_entity
        brand_entity, feature_entity = self.brand_entity, self.feature_entity
        # Enum member lookups are slow on the class; bind them once.
        produced_by, described_by = Relation.PRODUCED_BY, Relation.DESCRIBED_BY
        purchase, mention = Relation.PURCHASE, Relation.MENTION
        rows: List[Tuple[int, Relation, int]] = []
        for product in self.dataset.products:
            item = item_entity[product.item_id]
            rows.append((item, produced_by, brand_entity[product.brand_id]))
            rows += [(item, described_by, feature_entity[feature_id])
                     for feature_id in product.feature_ids]
        rows += [(item_entity[relation.source_item_id],
                  _ITEM_RELATION_MAP[relation.relation],
                  item_entity[relation.target_item_id])
                 for relation in self.dataset.item_relations]
        for interaction in interactions:
            user = user_entity[interaction.user_id]
            rows.append((user, purchase, item_entity[interaction.item_id]))
            rows += [(user, mention, feature_entity[feature_id])
                     for feature_id in interaction.mentioned_feature_ids]
        return rows

    def _assign_categories(self, graph: KnowledgeGraph) -> None:
        for product in self.dataset.products:
            graph.set_item_category(self.item_entity[product.item_id], product.category_id)

    # ------------------------------------------------------------------ #
    # id translation helpers used by evaluation and the experiment harness
    # ------------------------------------------------------------------ #
    def user_to_entity(self, user_id: int) -> int:
        """Entity id of dataset user ``user_id``."""
        return self.user_entity[user_id]

    def item_to_entity(self, item_id: int) -> int:
        """Entity id of dataset item ``item_id``."""
        return self.item_entity[item_id]

    def entity_to_item(self, entity_id: int) -> Optional[int]:
        """Dataset item id of an item entity (``None`` for non-items)."""
        if not hasattr(self, "_entity_to_item"):
            self._entity_to_item = {ent: item for item, ent in self.item_entity.items()}
        return self._entity_to_item.get(entity_id)


def build_knowledge_graph(dataset: InteractionDataset,
                          train_interactions: Optional[Iterable[Interaction]] = None
                          ) -> Tuple[KnowledgeGraph, CategoryGraph, KGBuilder]:
    """Convenience wrapper returning the graph, its ``Gc`` and the builder."""
    builder = KGBuilder(dataset)
    graph, category_graph = builder.build(train_interactions)
    return graph, category_graph, builder
