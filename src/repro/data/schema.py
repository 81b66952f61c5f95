"""Dataset record types shared by the generator, loaders and KG builder."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass(frozen=True)
class Product:
    """Catalogue entry for one item.

    Attributes
    ----------
    item_id:
        Dataset-local item index (0-based).
    name:
        Human-readable title used in explanation paths.
    brand_id:
        Index into the brand vocabulary.
    category_id:
        Index into the category vocabulary (Amazon metadata category label).
    feature_ids:
        Review/description features attached to this product.
    """

    item_id: int
    name: str
    brand_id: int
    category_id: int
    feature_ids: Sequence[int] = field(default_factory=tuple)


@dataclass(frozen=True)
class Interaction:
    """One user-item purchase, optionally with mentioned review features."""

    user_id: int
    item_id: int
    mentioned_feature_ids: Sequence[int] = field(default_factory=tuple)


@dataclass(frozen=True)
class ItemRelation:
    """An item-item co-occurrence edge from the catalogue metadata."""

    source_item_id: int
    target_item_id: int
    relation: str  # "also_bought" | "also_viewed" | "bought_together"


@dataclass
class InteractionDataset:
    """A complete dataset: catalogue, vocabulary sizes and interaction log."""

    name: str
    num_users: int
    products: List[Product]
    interactions: List[Interaction]
    item_relations: List[ItemRelation]
    brand_names: List[str]
    feature_names: List[str]
    category_names: List[str]

    @property
    def num_items(self) -> int:
        return len(self.products)

    @property
    def num_brands(self) -> int:
        return len(self.brand_names)

    @property
    def num_features(self) -> int:
        return len(self.feature_names)

    @property
    def num_categories(self) -> int:
        return len(self.category_names)

    @property
    def num_interactions(self) -> int:
        return len(self.interactions)

    def user_histories(self) -> Dict[int, List[int]]:
        """Map each user to the list of purchased item ids (in log order)."""
        histories: Dict[int, List[int]] = {user: [] for user in range(self.num_users)}
        for interaction in self.interactions:
            histories[interaction.user_id].append(interaction.item_id)
        return histories

    def validate(self) -> None:
        """Raise ``ValueError`` on dangling references; used by loaders and tests."""
        num_users, num_items = self.num_users, self.num_items
        num_brands, num_categories = self.num_brands, self.num_categories
        num_features = self.num_features
        for product in self.products:
            if not (0 <= product.brand_id < num_brands):
                raise ValueError(f"product {product.item_id} references unknown brand")
            if not (0 <= product.category_id < num_categories):
                raise ValueError(f"product {product.item_id} references unknown category")
            for feature in product.feature_ids:
                if not (0 <= feature < num_features):
                    raise ValueError(f"product {product.item_id} references unknown feature")
        for interaction in self.interactions:
            if not (0 <= interaction.user_id < num_users):
                raise ValueError("interaction references unknown user")
            if not (0 <= interaction.item_id < num_items):
                raise ValueError("interaction references unknown item")
            for feature in interaction.mentioned_feature_ids:
                if not (0 <= feature < num_features):
                    raise ValueError("interaction references unknown feature")
        for relation in self.item_relations:
            if relation.relation not in ("also_bought", "also_viewed", "bought_together"):
                raise ValueError(f"unknown item relation {relation.relation!r}")
            for item in (relation.source_item_id, relation.target_item_id):
                if not (0 <= item < num_items):
                    raise ValueError("item relation references unknown item")


@dataclass
class TrainTestSplit:
    """70/30 per-user split of interactions (the protocol of Section V-A)."""

    train: List[Interaction]
    test: List[Interaction]

    def train_items_of(self, user_id: int) -> List[int]:
        return [i.item_id for i in self.train if i.user_id == user_id]

    def test_items_of(self, user_id: int) -> List[int]:
        return [i.item_id for i in self.test if i.user_id == user_id]
