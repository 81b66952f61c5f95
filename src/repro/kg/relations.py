"""Semantic relations of the Amazon-style KG, including inverse relations.

The paper's KGs have 14 relation types: 7 forward relations (Purchase,
Mention, Described_by, Produced_by, Also_bought, Also_viewed, Bought_together)
and their 7 inverses (Section V-A.1).  The entity agent walks over all of
them; the Purchase relation additionally anchors the semantic-strength
attention in the GGNN's adaptive propagation layer (Eq. 1).
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, FrozenSet, List, Tuple

from .entities import EntityType


class Relation(str, Enum):
    """Forward and inverse relation types."""

    PURCHASE = "purchase"
    MENTION = "mention"
    DESCRIBED_BY = "described_by"
    PRODUCED_BY = "produced_by"
    ALSO_BOUGHT = "also_bought"
    ALSO_VIEWED = "also_viewed"
    BOUGHT_TOGETHER = "bought_together"
    REV_PURCHASE = "rev_purchase"
    REV_MENTION = "rev_mention"
    REV_DESCRIBED_BY = "rev_described_by"
    REV_PRODUCED_BY = "rev_produced_by"
    REV_ALSO_BOUGHT = "rev_also_bought"
    REV_ALSO_VIEWED = "rev_also_viewed"
    REV_BOUGHT_TOGETHER = "rev_bought_together"
    SELF_LOOP = "self_loop"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


FORWARD_RELATIONS: List[Relation] = [
    Relation.PURCHASE,
    Relation.MENTION,
    Relation.DESCRIBED_BY,
    Relation.PRODUCED_BY,
    Relation.ALSO_BOUGHT,
    Relation.ALSO_VIEWED,
    Relation.BOUGHT_TOGETHER,
]

_INVERSE: Dict[Relation, Relation] = {
    Relation.PURCHASE: Relation.REV_PURCHASE,
    Relation.MENTION: Relation.REV_MENTION,
    Relation.DESCRIBED_BY: Relation.REV_DESCRIBED_BY,
    Relation.PRODUCED_BY: Relation.REV_PRODUCED_BY,
    Relation.ALSO_BOUGHT: Relation.REV_ALSO_BOUGHT,
    Relation.ALSO_VIEWED: Relation.REV_ALSO_VIEWED,
    Relation.BOUGHT_TOGETHER: Relation.REV_BOUGHT_TOGETHER,
}
_INVERSE.update({inverse: forward for forward, inverse in list(_INVERSE.items())})
_INVERSE[Relation.SELF_LOOP] = Relation.SELF_LOOP


def inverse_of(relation: Relation) -> Relation:
    """Return the inverse relation (self-loop is its own inverse)."""
    return _INVERSE[relation]


def is_inverse(relation: Relation) -> bool:
    """True if ``relation`` is one of the reverse relation types."""
    return relation.value.startswith("rev_")


# Domain/range constraints: (head type, relation) -> tail type.  These mirror
# the schema of the Amazon KGs and let the builder validate triplets.
RELATION_SCHEMA: Dict[Relation, Tuple[EntityType, EntityType]] = {
    Relation.PURCHASE: (EntityType.USER, EntityType.ITEM),
    Relation.MENTION: (EntityType.USER, EntityType.FEATURE),
    Relation.DESCRIBED_BY: (EntityType.ITEM, EntityType.FEATURE),
    Relation.PRODUCED_BY: (EntityType.ITEM, EntityType.BRAND),
    Relation.ALSO_BOUGHT: (EntityType.ITEM, EntityType.ITEM),
    Relation.ALSO_VIEWED: (EntityType.ITEM, EntityType.ITEM),
    Relation.BOUGHT_TOGETHER: (EntityType.ITEM, EntityType.ITEM),
}
RELATION_SCHEMA.update({
    inverse_of(rel): (tail, head) for rel, (head, tail) in list(RELATION_SCHEMA.items())
})

#: Every valid ``(head type, relation, tail type)`` triple: the schema above
#: plus a self-loop on each entity type.  One set lookup validates an edge.
SCHEMA_TRIPLES: FrozenSet[Tuple[EntityType, Relation, EntityType]] = frozenset(
    [(head, rel, tail) for rel, (head, tail) in RELATION_SCHEMA.items()]
    + [(etype, Relation.SELF_LOOP, etype) for etype in EntityType])


#: Definition-order list of every relation; index = embedding-table row.
RELATION_LIST: List[Relation] = list(Relation)

_RELATION_INDEX: Dict[Relation, int] = {rel: i for i, rel in enumerate(RELATION_LIST)}

NUM_RELATIONS: int = len(RELATION_LIST)


def relation_index(relation: Relation) -> int:
    """Stable integer id for a relation (used by embedding tables)."""
    return _RELATION_INDEX[relation]


def relation_from_index(index: int) -> Relation:
    """Inverse of :func:`relation_index`: decodes the CSR adjacency's relation ids."""
    return RELATION_LIST[index]


def all_relations() -> List[Relation]:
    """Every relation, including inverses and the self-loop."""
    return list(RELATION_LIST)


def schema_is_valid(head_type: EntityType, relation: Relation, tail_type: EntityType) -> bool:
    """Check a triplet's types against the relation schema."""
    return (head_type, relation, tail_type) in SCHEMA_TRIPLES
