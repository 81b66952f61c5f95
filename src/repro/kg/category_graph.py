"""The category knowledge graph ``Gc`` (Definition 4 in the paper).

``Gc`` is a dense virtual mapping of the entity-level KG: its nodes are item
categories and two categories are connected whenever at least one relation
links entities of the two categories.  The category agent of DARL walks over
this graph; because ``|C| ≪ |E|`` its action space is tiny, which is exactly
the action-space reduction argument the paper makes in the efficiency study
(Table III).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from .entities import EntityType
from .graph import KnowledgeGraph
from .relations import NUM_RELATIONS, Relation, relation_from_index


class CategoryGraph:
    """Directed graph over item categories derived from a :class:`KnowledgeGraph`."""

    def __init__(self, num_categories: int) -> None:
        if num_categories < 0:
            raise ValueError("number of categories must be non-negative")
        self.num_categories = num_categories
        self._adjacency: Dict[int, Set[int]] = defaultdict(set)
        self._edge_relations: Dict[Tuple[int, int], Set[Relation]] = defaultdict(set)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_knowledge_graph(cls, graph: KnowledgeGraph) -> "CategoryGraph":
        """Build ``Gc`` by projecting every item↔item (and item↔attribute↔item)
        edge of the KG onto the category assignment of its endpoints.

        Reads the graph's compiled view: its triplet table and
        ``entity_category`` give each edge's endpoint categories, and each
        distinct projected edge is added once.
        """
        category_graph = cls(graph.num_categories)
        adjacency = graph.adjacency()
        heads, relations, tails = adjacency.triplets.T
        category = adjacency.entity_category.astype(np.int64)
        head_category, tail_category = category[heads], category[tails]
        width = int(category.max(initial=-1)) + 1
        projected = (head_category >= 0) & (tail_category >= 0)
        # One integer per (source, target, relation), so one 1-D unique
        # finds the distinct projected edges.
        codes = np.unique((head_category[projected] * width + tail_category[projected])
                          * NUM_RELATIONS + relations[projected])
        for code in codes.tolist():
            pair, relation = divmod(code, NUM_RELATIONS)
            source, target = divmod(pair, width)
            category_graph.add_edge(source, target, relation_from_index(relation))
        # Attribute-mediated connections: two items sharing a brand or feature
        # are category-adjacent even without a direct item-item edge.  Each
        # attribute row marks the categories it links; two categories marked
        # by one attribute are connected.
        is_attribute = np.zeros(graph.num_entities, dtype=bool)
        for attribute_type in (EntityType.BRAND, EntityType.FEATURE):
            is_attribute[graph.entities.ids_of_type(attribute_type)] = True
        linked = is_attribute[heads] & (tail_category >= 0)
        marks = np.zeros((graph.num_entities, width), dtype=bool)
        marks[heads[linked], tail_category[linked]] = True
        for source, target in np.argwhere(marks.T @ marks).tolist():
            category_graph.add_edge(source, target, Relation.SELF_LOOP
                                    if source == target else Relation.ALSO_VIEWED)
        return category_graph

    def add_edge(self, source: int, target: int, relation: Relation) -> None:
        """Connect two categories (both directions are stored explicitly)."""
        if not (0 <= source < self.num_categories and 0 <= target < self.num_categories):
            raise ValueError("category id out of range")
        self._adjacency[source].add(target)
        self._adjacency[target].add(source)
        self._edge_relations[(source, target)].add(relation)
        self._edge_relations[(target, source)].add(relation)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def neighbors(self, category_id: int) -> List[int]:
        """Adjacent categories (excluding ``category_id`` itself)."""
        return sorted(c for c in self._adjacency.get(category_id, ()) if c != category_id)

    def actions(self, category_id: int, include_self_loop: bool = True) -> List[int]:
        """Valid moves for the category agent from ``category_id``.

        The self-loop action keeps the category agent synchronised with the
        entity agent when the category-level path is shorter (Section IV-C.1).
        """
        moves = self.neighbors(category_id)
        if include_self_loop:
            moves = [category_id] + moves
        return moves

    def are_connected(self, source: int, target: int) -> bool:
        """True if the two categories share at least one projected relation."""
        return target in self._adjacency.get(source, set()) or source == target

    def relations_between(self, source: int, target: int) -> FrozenSet[Relation]:
        """Relations that induced the edge between two categories."""
        return frozenset(self._edge_relations.get((source, target), set()))

    def degree(self, category_id: int) -> int:
        """Number of adjacent categories."""
        return len(self.neighbors(category_id))

    def density(self) -> float:
        """Edge density of ``Gc`` — the paper notes ``Gc`` is densely connected."""
        if self.num_categories <= 1:
            return float("nan")  # density needs at least one possible edge
        possible = self.num_categories * (self.num_categories - 1)
        actual = sum(len(self.neighbors(c)) for c in range(self.num_categories))
        return actual / possible

    def shortest_distance(self, source: int, target: int,
                          max_depth: Optional[int] = None) -> Optional[int]:
        """Breadth-first shortest hop count between two categories.

        Returns ``None`` when unreachable (or beyond ``max_depth``).  Used by
        the category agent's reward shaping tests and the case-study tooling.
        """
        if source == target:
            return 0
        frontier = {source}
        visited = {source}
        depth = 0
        while frontier:
            depth += 1
            if max_depth is not None and depth > max_depth:
                return None
            next_frontier: Set[int] = set()
            for node in frontier:
                for neighbor in self._adjacency.get(node, ()):
                    if neighbor == target:
                        return depth
                    if neighbor not in visited:
                        visited.add(neighbor)
                        next_frontier.add(neighbor)
            frontier = next_frontier
        return None
