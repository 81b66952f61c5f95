"""Typed entities of the Amazon-style product knowledge graph.

The paper maps users, items, brands and (review) features to entities
(Section III: ``U, V, F, B ⊆ E``).  Entities are identified globally by an
integer id; the :class:`EntityStore` keeps the id ↔ (type, name) mapping and
the per-type index spaces needed by the embedding tables and the agents.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional, Tuple


class EntityType(str, Enum):
    """The four entity types used by the Amazon KGs in the paper."""

    USER = "user"
    ITEM = "item"
    BRAND = "brand"
    FEATURE = "feature"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Entity:
    """A single knowledge-graph entity.

    Attributes
    ----------
    entity_id:
        Global id, unique across all types.
    entity_type:
        One of :class:`EntityType`.
    name:
        Human-readable label used in explanation paths (e.g. ``"AJ Basketball"``).
    local_id:
        Index within the entity's own type (0-based), used by per-type tables.
    """

    entity_id: int
    entity_type: EntityType
    name: str
    local_id: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.entity_type.value}:{self.name}"


class EntityStore:
    """Registry of all entities with O(1) lookups by id, name or type."""

    def __init__(self) -> None:
        self._entities: List[Entity] = []
        self._by_type: Dict[EntityType, List[int]] = {etype: [] for etype in EntityType}
        self._by_name: Dict[Tuple[EntityType, str], int] = {}

    def __len__(self) -> int:
        return len(self._entities)

    def __iter__(self) -> Iterator[Entity]:
        return iter(self._entities)

    def __contains__(self, entity_id: int) -> bool:
        return 0 <= entity_id < len(self._entities)

    def copy(self) -> "EntityStore":
        """An independent registry over the same (immutable) :class:`Entity` records.

        The containers are copied and the frozen entities shared, so adding
        entities to either store never shows in the other.
        """
        clone = type(self).__new__(type(self))
        clone._entities = list(self._entities)
        clone._by_type = {etype: list(ids) for etype, ids in self._by_type.items()}
        clone._by_name = dict(self._by_name)
        return clone

    def add(self, entity_type: EntityType, name: str) -> Entity:
        """Register a new entity and return it.

        Adding the same ``(type, name)`` twice returns the existing entity, so
        builders may call this idempotently.
        """
        key = (entity_type, name)
        if key in self._by_name:
            return self._entities[self._by_name[key]]
        entity_id = len(self._entities)
        local_id = len(self._by_type[entity_type])
        entity = Entity(entity_id=entity_id, entity_type=entity_type,
                        name=name, local_id=local_id)
        self._entities.append(entity)
        self._by_type[entity_type].append(entity_id)
        self._by_name[key] = entity_id
        return entity

    def get(self, entity_id: int) -> Entity:
        """Return the entity with global id ``entity_id``."""
        if entity_id not in self:
            raise KeyError(f"unknown entity id {entity_id}")
        return self._entities[entity_id]

    def find(self, entity_type: EntityType, name: str) -> Optional[Entity]:
        """Return the entity with the given type and name, or ``None``."""
        index = self._by_name.get((entity_type, name))
        return None if index is None else self._entities[index]

    def ids_of_type(self, entity_type: EntityType) -> List[int]:
        """Global ids of all entities of ``entity_type`` (in insertion order)."""
        return list(self._by_type[entity_type])

    def count(self, entity_type: EntityType) -> int:
        """Number of entities of ``entity_type``."""
        return len(self._by_type[entity_type])

    def type_of(self, entity_id: int) -> EntityType:
        """Type of the entity with global id ``entity_id``."""
        return self.get(entity_id).entity_type

    def is_item(self, entity_id: int) -> bool:
        """Convenience check used heavily by the agents and rewards."""
        return self.type_of(entity_id) == EntityType.ITEM

    def is_user(self, entity_id: int) -> bool:
        """Convenience check for user entities."""
        return self.type_of(entity_id) == EntityType.USER
