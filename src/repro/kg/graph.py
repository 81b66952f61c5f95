"""The knowledge-graph substrate: triplet store + adjacency with O(1) lookups.

``KnowledgeGraph`` is the environment every recommender in this repository
walks over.  It stores typed triplets ``(head, relation, tail)`` together with
the automatically added inverse triplets (Section III of the paper), offers
neighbour queries used by both the CGGNN and the RL agents, and records the
item → category assignment from which the category knowledge graph ``Gc`` is
derived.

The edges live once, as the keys of one insertion-ordered ``dict`` that maps
each ``(head, relation, tail)`` to its relation's table row; the compiled CSR
view (:mod:`repro.kg.adjacency`) is built from it in bulk, and
:meth:`KnowledgeGraph.triplets` makes :class:`Triplet` records only on demand.
:meth:`KnowledgeGraph.add_triplet` inserts one edge (live ingest);
:meth:`KnowledgeGraph.add_triplets` inserts a whole edge table (the builder)
and leaves the same graph.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .adjacency import CSRAdjacency, compile_adjacency, patch_adjacency
from .entities import EntityStore, EntityType
from .relations import SCHEMA_TRIPLES, Relation, inverse_of, relation_index


#: :func:`inverse_of` and :func:`relation_index` as tables, for the bulk
#: insert's ``map`` calls.
_INVERSE_OF = {relation: inverse_of(relation) for relation in Relation}
_RELATION_ROW = {relation: relation_index(relation) for relation in Relation}


@dataclass(frozen=True)
class Triplet:
    """A directed, typed edge ``head --relation--> tail``."""

    head: int
    relation: Relation
    tail: int


class KnowledgeGraph:
    """Multi-relational graph over the entities of :class:`EntityStore`.

    Parameters
    ----------
    entities:
        The entity registry.  The graph does not own it, merely references it.
    validate_schema:
        If ``True`` (default), :meth:`add_triplet` rejects edges that violate
        the Amazon relation schema (e.g. a ``purchase`` edge between two items).
    """

    def __init__(self, entities: EntityStore, validate_schema: bool = True) -> None:
        self.entities = entities
        self.validate_schema = validate_schema
        # Every directed edge (forward + inverse) in insertion order, mapped
        # to ``relation_index(relation)``: the order of :meth:`triplets` and
        # of the compiled triplet table.
        self._edges: Dict[Tuple[int, Relation, int], int] = {}
        self._outgoing: Dict[int, List[Tuple[Relation, int]]] = defaultdict(list)
        self._item_category: Dict[int, int] = {}
        self._category_names: List[str] = []
        # Mutation counter + cached compiled view (see :meth:`adjacency`).
        # The validity key includes the entity count: the graph does not own
        # its EntityStore, so entities can appear without any edge write.
        self._version = 0
        self._adjacency: Optional[CSRAdjacency] = None
        self._adjacency_key: Tuple[int, int] = (-1, -1)
        # Entities whose outgoing row or category changed since the cached
        # view was built; lets :meth:`adjacency` delta-patch instead of
        # recompiling when the change is small relative to the graph.
        self._dirty_entities: Set[int] = set()
        self._full_compiles = 0
        self._delta_patches = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_triplet(self, head: int, relation: Relation, tail: int,
                    add_inverse: bool = True) -> bool:
        """Add a triplet (and by default its inverse).

        Returns ``True`` if the forward edge was new, ``False`` if it already
        existed (its inverse is then left as it is).  Raises ``KeyError`` for
        an unknown entity id and ``ValueError`` if the edge violates the
        schema and schema validation is enabled.
        """
        self._check(head, relation, tail)
        if (head, relation, tail) in self._edges:
            return False
        self._insert(head, relation, tail)
        if add_inverse:
            # The schema is closed under inversion, so the inverse is valid.
            inverse = inverse_of(relation)
            if (tail, inverse, head) not in self._edges:
                self._insert(tail, inverse, head)
        return True

    def add_triplets(self, rows: Sequence[Tuple[int, Relation, int]]) -> None:
        """Add forward ``(head, relation, tail)`` tuples and their inverses in bulk.

        Leaves the graph exactly as ``add_triplet(head, relation, tail)`` on
        each row in order would: the same edge order, outgoing rows, version
        and dirty set.  Every row is validated before anything is inserted;
        the first bad row raises the ``KeyError``/``ValueError`` that
        ``add_triplet`` would, and the graph is then left unchanged.
        """
        if not rows:
            return
        heads = list(map(itemgetter(0), rows))
        relations = list(map(itemgetter(1), rows))
        tails = list(map(itemgetter(2), rows))
        self._check_rows(heads, relations, tails)
        forward = rows
        inverse = list(zip(tails, map(_INVERSE_OF.__getitem__, relations), heads))
        existing = self._edges
        if existing:
            # ``add_triplet`` skips a row whose forward edge is already there,
            # inverse included.
            fresh = [key not in existing for key in forward]
            forward = list(compress(forward, fresh))
            inverse = list(compress(inverse, fresh))
        # Forward and inverse interleaved, as ``add_triplet`` inserts them: a
        # key seen earlier in the sequence was inserted (or skipped) then.
        keys = [None] * (2 * len(forward))
        keys[0::2] = forward
        keys[1::2] = inverse
        added = dict(zip(keys, map(_RELATION_ROW.__getitem__, map(itemgetter(1), keys))))
        if existing:
            added = {key: row for key, row in added.items() if key not in existing}
        existing.update(added)
        outgoing = self._outgoing
        for head, relation, tail in added:
            outgoing[head].append((relation, tail))
        self._dirty_entities.update(map(itemgetter(0), added))
        self._version += len(added)

    def _check(self, head: int, relation: Relation, tail: int) -> None:
        """Raise ``KeyError`` for an unknown id, ``ValueError`` for a schema violation."""
        records = self.entities._entities
        for entity_id in (head, tail):
            if not 0 <= entity_id < len(records):
                raise KeyError(f"unknown entity id {entity_id}")
        if self.validate_schema:
            head_type, tail_type = records[head].entity_type, records[tail].entity_type
            if (head_type, relation, tail_type) not in SCHEMA_TRIPLES:
                raise ValueError(f"triplet violates schema: ({head_type.value}, "
                                 f"{relation.value}, {tail_type.value})")

    def _check_rows(self, heads: Sequence[int], relations: Sequence[Relation],
                    tails: Sequence[int]) -> None:
        """:meth:`_check` every row, raising the first row's error.

        The whole table is checked at once; only a table that fails is walked
        row by row, to raise exactly what ``add_triplet`` would.
        """
        records = self.entities._entities
        valid = (min(min(heads), min(tails)) >= 0
                 and max(max(heads), max(tails)) < len(records))
        if valid and self.validate_schema:
            types = [record.entity_type for record in records]
            valid = set(zip(map(types.__getitem__, heads), relations,
                            map(types.__getitem__, tails))) <= SCHEMA_TRIPLES
        if not valid:
            for row in zip(heads, relations, tails):
                self._check(*row)

    def _insert(self, head: int, relation: Relation, tail: int) -> None:
        """Record one new directed edge in every index and mark its head dirty."""
        self._edges[(head, relation, tail)] = relation_index(relation)
        self._outgoing[head].append((relation, tail))
        self._dirty_entities.add(head)
        self._version += 1

    def set_item_category(self, item_id: int, category_id: int) -> None:
        """Assign an item to a category (top-level ontology, not an entity)."""
        if not self.entities.is_item(item_id):
            raise ValueError(f"entity {item_id} is not an item")
        if category_id < 0:
            raise ValueError("category id must be non-negative")
        self._item_category[item_id] = category_id
        self._dirty_entities.add(item_id)
        self._version += 1

    def set_category_names(self, names: Sequence[str]) -> None:
        """Record human-readable category labels (index = category id)."""
        self._category_names = list(names)

    def copy(self) -> "KnowledgeGraph":
        """An independent graph with the same history, entities and CSR cache.

        Equivalent to ``copy.deepcopy`` for every observable, at a fraction of
        the cost: the containers (and the entity registry) are copied, while
        the immutable edge keys, :class:`Entity` and ``(relation, neighbour)``
        records are shared.  The compiled :class:`CSRAdjacency`
        is shared too — its arrays are read-only, and a mutation of either
        graph makes that graph build a *new* view (:func:`patch_adjacency`
        only reads the old one), so neither copy can see the other's writes.
        """
        clone = type(self).__new__(type(self))
        clone.entities = self.entities.copy()
        clone.validate_schema = self.validate_schema
        clone._edges = dict(self._edges)
        clone._outgoing = defaultdict(list, {entity: list(edges) for entity, edges
                                             in self._outgoing.items()})
        clone._item_category = dict(self._item_category)
        clone._category_names = list(self._category_names)
        clone._version = self._version
        clone._adjacency = self._adjacency
        clone._adjacency_key = self._adjacency_key
        clone._dirty_entities = set(self._dirty_entities)
        clone._full_compiles = self._full_compiles
        clone._delta_patches = self._delta_patches
        return clone

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_triplets(self) -> int:
        """Number of stored directed edges (forward + inverse)."""
        return len(self._edges)

    @property
    def num_categories(self) -> int:
        if self._category_names:
            return len(self._category_names)
        if not self._item_category:
            return 0
        return max(self._item_category.values()) + 1

    def triplets(self) -> Iterator[Triplet]:
        """Iterate over all stored directed edges, in insertion order."""
        return (Triplet(head, relation, tail) for head, relation, tail in self._edges)

    def has_edge(self, head: int, relation: Relation, tail: int) -> bool:
        """True if the directed edge exists."""
        return (head, relation, tail) in self._edges

    def category_of(self, item_id: int) -> Optional[int]:
        """Category id of ``item_id``, or ``None`` if unassigned / not an item."""
        return self._item_category.get(item_id)

    def category_name(self, category_id: int) -> str:
        """Human-readable label of a category."""
        if self._category_names and 0 <= category_id < len(self._category_names):
            return self._category_names[category_id]
        return f"category_{category_id}"

    def items_in_category(self, category_id: int) -> List[int]:
        """All item entity ids assigned to ``category_id``."""
        return [item for item, cat in self._item_category.items() if cat == category_id]

    def item_category_map(self) -> Dict[int, int]:
        """Copy of the item → category assignment."""
        return dict(self._item_category)

    # ------------------------------------------------------------------ #
    # compiled adjacency
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Mutation counter; bumped by every triplet/category write."""
        return self._version

    #: Delta-patch the cached CSR view instead of recompiling when at most
    #: this fraction of its rows is dirty; beyond it the bulk span copies stop
    #: paying for themselves and the one-pass full compile wins.
    ADJACENCY_PATCH_FRACTION = 0.25

    def adjacency(self) -> CSRAdjacency:
        """The compiled CSR view of this graph (cached until the graph mutates).

        This is the substrate of every vectorised hot path: action pruning,
        beam search and TransE pre-training all slice these arrays instead of
        walking the dict-of-lists adjacency.  Small mutations (a streaming
        ingestion burst) are folded in by :func:`patch_adjacency` — rebuilding
        only the dirty rows — and large ones fall back to the full recompile;
        both produce element-identical arrays.
        """
        key = (self._version, self.num_entities)
        if self._adjacency is None or self._adjacency_key != key:
            if self._patch_is_profitable():
                self._adjacency = patch_adjacency(self._adjacency, self,
                                                  self._dirty_entities)
                self._delta_patches += 1
            else:
                self._adjacency = compile_adjacency(self)
                self._full_compiles += 1
            self._adjacency_key = key
            self._dirty_entities.clear()
        return self._adjacency

    def _patch_is_profitable(self) -> bool:
        """Patch only small deltas over an existing view of the same history."""
        old = self._adjacency
        if old is None or old.num_entities > self.num_entities:
            return False
        if len(self._edges) < old.num_edges:
            return False
        budget = max(1, int(self.ADJACENCY_PATCH_FRACTION * old.num_entities))
        new_entities = self.num_entities - old.num_entities
        return len(self._dirty_entities) + new_entities <= budget

    def adjacency_compile_stats(self) -> Dict[str, int]:
        """How the cached CSR view has been kept fresh so far."""
        return {"full_compiles": self._full_compiles,
                "delta_patches": self._delta_patches}

    # ------------------------------------------------------------------ #
    # neighbourhood queries
    # ------------------------------------------------------------------ #
    def outgoing(self, entity_id: int) -> List[Tuple[Relation, int]]:
        """Outgoing ``(relation, neighbour)`` pairs of an entity."""
        return list(self._outgoing.get(entity_id, ()))

    def incoming(self, entity_id: int) -> List[Tuple[Relation, int]]:
        """Incoming ``(relation, neighbour)`` pairs of an entity, in insertion order.

        Read off the edge store in one scan (no index is kept for it).
        """
        return [(relation, head) for head, relation, tail in self._edges
                if tail == entity_id]

    def neighbors(self, entity_id: int) -> List[Tuple[Relation, int]]:
        """Alias for :meth:`outgoing` — inverse edges make the graph symmetric."""
        return self.outgoing(entity_id)

    def degree(self, entity_id: int) -> int:
        """Out-degree of an entity (== in-degree thanks to inverse edges)."""
        return len(self._outgoing.get(entity_id, ()))

    def neighbors_of_type(self, entity_id: int, entity_type: EntityType
                          ) -> List[Tuple[Relation, int]]:
        """Outgoing neighbours restricted to a given entity type."""
        return [(rel, tail) for rel, tail in self._outgoing.get(entity_id, ())
                if self.entities.type_of(tail) == entity_type]

    def neighbor_categories(self, item_id: int) -> List[int]:
        """Categories of the item-neighbours of ``item_id`` (Definition 2, N^c_v).

        The item's own category is included, matching the paper's use of the
        category context as meta-data shared with neighbouring items.
        """
        categories: List[int] = []
        seen: Set[int] = set()
        own = self.category_of(item_id)
        if own is not None:
            seen.add(own)
            categories.append(own)
        for _, tail in self._outgoing.get(item_id, ()):
            category = self.category_of(tail)
            if category is not None and category not in seen:
                seen.add(category)
                categories.append(category)
        return categories

    def purchased_items(self, user_id: int) -> List[int]:
        """Items the user purchased, read straight from the graph."""
        return [tail for rel, tail in self._outgoing.get(user_id, ())
                if rel == Relation.PURCHASE]

    # ------------------------------------------------------------------ #
    # statistics / reporting
    # ------------------------------------------------------------------ #
    def statistics(self) -> Dict[str, int]:
        """Summary counts matching the columns of Table II."""
        interactions = sum(1 for _, relation, _ in self._edges
                           if relation == Relation.PURCHASE)
        return {
            "users": self.entities.count(EntityType.USER),
            "items": self.entities.count(EntityType.ITEM),
            "entities": self.num_entities,
            "interactions": interactions,
            "triplets": self.num_triplets,
            "categories": self.num_categories,
        }

    def average_items_per_category(self) -> float:
        """Items per category, the sparsity driver discussed for Clothing (RQ1)."""
        if self.num_categories == 0:
            return float("nan")  # no categories: the average is undefined, not 0
        return len(self._item_category) / self.num_categories

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.statistics()
        return (f"KnowledgeGraph(users={stats['users']}, items={stats['items']}, "
                f"entities={stats['entities']}, triplets={stats['triplets']})")
