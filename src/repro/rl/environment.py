"""Entity-level and category-level MDP environments over the knowledge graph.

Both environments are thin, stateless views over the graph substrates: they
enumerate valid actions (with pruning), expose representation lookups for
states and actions, and answer reward queries.  Keeping them stateless makes
beam-search inference and vectorised training rollouts straightforward.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Generic, List, Optional, Sequence, Set, Tuple, TypeVar

import numpy as np

from ..cggnn.model import Representations
from ..kg.category_graph import CategoryGraph
from ..kg.entities import EntityType
from ..kg.graph import KnowledgeGraph
from ..kg.pruning import (
    ActionArrays,
    Action,
    category_guided_prune_arrays,
    degree_prune_arrays,
    ensure_self_loop_arrays,
    entity_prune_rng,
)
from ..kg.relations import RELATION_LIST, relation_index

_V = TypeVar("_V")


class LRUCache(Generic[_V]):
    """Tiny bounded mapping with least-recently-used eviction.

    The entity environment's action/matrix caches used to be plain dicts that
    grew one entry per distinct ``(entity, milestone)`` pair for the lifetime
    of the process — unbounded in a long-running serving deployment.  This
    cache bounds them while keeping the hot entries resident.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._data: "OrderedDict[Tuple, _V]" = OrderedDict()

    def get(self, key: Tuple) -> Optional[_V]:
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: Tuple, value: _V) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()


@dataclass
class EntityState:
    """State of the entity agent: ``s^e_l = (u, e_l)`` plus the step counter."""

    user_entity: int
    current_entity: int
    step: int


@dataclass
class CategoryState:
    """State of the category agent: ``s^c_l = (u, c_s, c_l)``."""

    user_entity: int
    start_category: int
    current_category: int
    step: int


class EntityEnvironment:
    """The entity agent's view of the KG (action space ``A^e``)."""

    def __init__(self, graph: KnowledgeGraph, representations: Representations,
                 max_actions: int = 50, rng: Optional[np.random.Generator] = None,
                 cache_capacity: int = 65536) -> None:
        if max_actions <= 0:
            raise ValueError("max_actions must be positive")
        self.graph = graph
        self.representations = representations
        self.max_actions = max_actions
        self.rng = rng or np.random.default_rng(0)
        # Degree-pruning tie-breaks draw from a per-entity substream derived
        # from (prune_seed, entity_id), so an entity's action set never depends
        # on the order in which entities were first visited.  The base seed is
        # drawn once from the caller's generator: same seed in, same substreams.
        self._prune_seed = int(self.rng.integers(np.iinfo(np.int64).max))
        # Pruned-action and action-matrix caches.  Keyed by the (entity,
        # guided category) pair — the KG and the representations are frozen
        # during an RL stage, so entries never go stale — and LRU-bounded so a
        # long-lived serving process cannot grow them without limit.
        self._action_cache: LRUCache[List[Action]] = LRUCache(cache_capacity)
        self._array_cache: LRUCache[ActionArrays] = LRUCache(cache_capacity)
        self._matrix_cache: LRUCache[np.ndarray] = LRUCache(cache_capacity)

    # -- state/action representations ---------------------------------- #
    def state_vector(self, state: EntityState) -> np.ndarray:
        """Concatenation of the user and current-entity representations."""
        return np.concatenate([
            self.representations.entity_vector(state.user_entity),
            self.representations.entity_vector(state.current_entity),
        ])

    def action_vector(self, action: Action) -> np.ndarray:
        """Concatenation of the relation and target-entity representations."""
        relation, target = action
        return np.concatenate([
            self.representations.relation_vector(relation),
            self.representations.entity_vector(target),
        ])

    def action_matrix(self, actions: Sequence[Action],
                      cache_key: Optional[Tuple] = None) -> np.ndarray:
        """Stacked action vectors, shape ``(len(actions), 2 * dim)``.

        Built with two table gathers instead of one concatenation per action.
        """
        if cache_key is not None:
            cached = self._matrix_cache.get(cache_key)
            if cached is not None:
                return cached
        matrix = self.arrays_matrix((
            np.array([relation_index(rel) for rel, _ in actions], dtype=np.int64),
            np.array([target for _, target in actions], dtype=np.int64)))
        if cache_key is not None:
            self._matrix_cache.put(cache_key, matrix)
        return matrix

    def arrays_matrix(self, arrays: ActionArrays) -> np.ndarray:
        """:meth:`action_matrix` of ``(relation_index, target)`` arrays."""
        relations, targets = arrays
        return np.concatenate([self.representations.relation[relations],
                               self.representations.entity[targets]], axis=1)

    # -- action enumeration --------------------------------------------- #
    def action_arrays(self, entity_id: int,
                      target_category: Optional[int] = None) -> ActionArrays:
        """Pruned ``(relation_index, target)`` arrays for one entity.

        This is the hot-path form the vectorised beam search consumes: the
        arrays are *unfiltered* (the per-user return-to-user ban is applied by
        the caller, so the cache stays shareable across users) and always end
        with the self-loop appended when missing.
        """
        key = (entity_id, target_category)
        cached = self._array_cache.get(key)
        if cached is not None:
            return cached
        adjacency = self.graph.adjacency()
        if target_category is None:
            arrays = degree_prune_arrays(
                adjacency, entity_id, self.max_actions,
                rng=entity_prune_rng(self._prune_seed, entity_id))
        else:
            arrays = category_guided_prune_arrays(adjacency, entity_id,
                                                  self.max_actions, target_category)
        arrays = ensure_self_loop_arrays(arrays, entity_id)
        self._array_cache.put(key, arrays)
        return arrays

    def legal_action_arrays(self, state: EntityState,
                            target_category: Optional[int] = None) -> ActionArrays:
        """:meth:`actions` as ``(relation_index, target)`` arrays, in the same order.

        The training rollout's form: the cached pruned arrays, minus any
        return to the user from elsewhere, with no per-action Python work.
        """
        relations, targets = self.action_arrays(state.current_entity, target_category)
        if state.current_entity != state.user_entity:
            keep = targets != state.user_entity
            if not keep.all():
                relations, targets = relations[keep], targets[keep]
        return relations, targets

    def actions(self, state: EntityState, target_category: Optional[int] = None,
                forbid_return_to_user: bool = True) -> List[Action]:
        """Valid pruned actions from ``state``.

        ``target_category`` enables CADRL's category-guided pruning; baselines
        pass ``None`` and get plain degree pruning.  A self-loop is always
        available so the agent can terminate early.
        """
        cache_key = (state.current_entity, target_category)
        candidates = self._action_cache.get(cache_key)
        if candidates is None:
            relations, targets = self.action_arrays(state.current_entity,
                                                    target_category)
            candidates = [(RELATION_LIST[relation], target)
                          for relation, target in zip(relations.tolist(),
                                                      targets.tolist())]
            self._action_cache.put(cache_key, candidates)
        if forbid_return_to_user:
            return [action for action in candidates
                    if not (action[1] == state.user_entity
                            and state.current_entity != state.user_entity)]
        # Fresh list: callers may mutate their copy without corrupting the
        # shared LRU cache entry.
        return list(candidates)

    def step(self, state: EntityState, action: Action) -> EntityState:
        """Deterministic transition: move to the action's target entity."""
        _, target = action
        return EntityState(user_entity=state.user_entity, current_entity=target,
                           step=state.step + 1)

    # -- rewards --------------------------------------------------------- #
    def terminal_reward(self, state: EntityState, positive_items: Set[int]) -> float:
        """Binary terminal reward ``1_{Vu}(e_L)`` (Section IV-C.2)."""
        return 1.0 if state.current_entity in positive_items else 0.0

    def is_item(self, entity_id: int) -> bool:
        return self.graph.entities.type_of(entity_id) == EntityType.ITEM

    def initial_state(self, user_entity: int) -> EntityState:
        return EntityState(user_entity=user_entity, current_entity=user_entity, step=0)


class CategoryEnvironment:
    """The category agent's view of ``Gc`` (action space ``A^c``)."""

    def __init__(self, category_graph: CategoryGraph, graph: KnowledgeGraph,
                 representations: Representations, max_actions: int = 10) -> None:
        if max_actions <= 0:
            raise ValueError("max_actions must be positive")
        self.category_graph = category_graph
        self.graph = graph
        self.representations = representations
        self.max_actions = max_actions

    def state_vector(self, state: CategoryState) -> np.ndarray:
        """Concatenation of user, start-category and current-category vectors."""
        return np.concatenate([
            self.representations.entity_vector(state.user_entity),
            self.representations.category_vector(state.start_category),
            self.representations.category_vector(state.current_category),
        ])

    def action_vector(self, category_id: int) -> np.ndarray:
        return self.representations.category_vector(category_id)

    def action_matrix(self, categories: Sequence[int]) -> np.ndarray:
        """Stacked category vectors, one row gather."""
        return self.representations.category[np.asarray(categories, dtype=np.int64)]

    def actions(self, state: CategoryState) -> List[int]:
        """Adjacent categories plus the self-loop, truncated to ``max_actions``.

        Truncation keeps the categories whose representation is most similar to
        the user's, a cheap relevance heuristic that bounds ``|A^c|`` exactly
        like the paper's hyper-parameter (max 10).
        """
        moves = self.category_graph.actions(state.current_category, include_self_loop=True)
        if len(moves) <= self.max_actions:
            return moves
        user_vector = self.representations.entity_vector(state.user_entity)
        scores = []
        for category in moves:
            vector = self.representations.category_vector(category)
            denominator = (np.linalg.norm(user_vector) * np.linalg.norm(vector)) or 1.0
            scores.append(float(np.dot(user_vector, vector) / denominator))
        keep = np.argsort(scores)[::-1][: self.max_actions - 1]
        selected = [moves[i] for i in sorted(keep)]
        if state.current_category not in selected:
            selected.insert(0, state.current_category)
        return selected

    def step(self, state: CategoryState, category_id: int) -> CategoryState:
        return CategoryState(user_entity=state.user_entity,
                             start_category=state.start_category,
                             current_category=category_id,
                             step=state.step + 1)

    def terminal_reward(self, state: CategoryState, target_categories: Set[int]) -> float:
        """Binary terminal reward ``1(c_L)`` — reached a category holding a target item."""
        return 1.0 if state.current_category in target_categories else 0.0

    def initial_state(self, user_entity: int, start_category: int) -> CategoryState:
        return CategoryState(user_entity=user_entity, start_category=start_category,
                             current_category=start_category, step=0)

    def start_category_for(self, user_entity: int, fallback: int = 0) -> int:
        """Initial category: the category of an item directly purchased by the user."""
        purchased = self.graph.purchased_items(user_entity)
        for item in purchased:
            category = self.graph.category_of(item)
            if category is not None:
                return category
        return fallback
