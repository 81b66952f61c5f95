"""Single-agent RL recommenders: PGPR, ADAC, UCPR, ReMR, INFER and CogER.

These baselines share one technical skeleton — the PGPR recipe of training a
single path-walking agent with REINFORCE and recommending via beam search —
and differ in the specific ingredient each paper added:

* **PGPR**  (Xian et al., 2019)   — soft reward from the embedding score + degree pruning.
* **ADAC**  (Zhao et al., 2020)   — demonstration paths (BFS user→item) imitated
  with a cross-entropy warm-up before REINFORCE.
* **UCPR**  (Tai et al., 2021)    — a user-demand memory vector (mean of the
  purchased items' embeddings) appended to the state.
* **ReMR**  (Wang et al., 2022)   — multi-level reasoning: extra reward when the
  walk stays inside the abstract (category-level) region of the user's interests.
* **INFER** (Zhang et al., 2022)  — GNN-smoothed item representations feed the
  policy instead of raw TransE vectors.
* **CogER** (Bing et al., 2023)   — a fast "System 1" heuristic pre-filters the
  action space before the RL "System 2" scores it.

All of them are capped at 3-hop paths by default, which is the design decision
the path-length study (Fig. 5) probes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import nn
from ..data.schema import InteractionDataset, TrainTestSplit
from ..embeddings import TransEConfig, train_transe
from ..kg import build_knowledge_graph
from ..kg.entities import EntityType
from ..kg.pruning import Action, ActionArrays, degree_prune_arrays, ensure_self_loop_arrays
from ..kg.relations import RELATION_LIST, Relation, relation_index
from ..nn import Tensor
from ..nn import functional as F
from ..rl.reinforce import MovingBaseline, ReinforceConfig, apply_update, policy_gradient_loss
from ..rl.trajectory import RecommendationPath
from .base import BaselineRecommender


@dataclass
class SingleAgentConfig:
    """Shared hyper-parameters of the single-agent RL baselines."""

    embedding_dim: int = 32
    hidden_dim: int = 64
    max_hops: int = 3
    epochs: int = 6
    learning_rate: float = 1e-3
    gamma: float = 0.95
    max_actions: int = 60
    transe_epochs: int = 10
    soft_reward_scale: float = 0.5
    beam_width: int = 20
    expansions_per_beam: int = 4
    seed: int = 0


class _SingleAgentPolicy(nn.Module):
    """MLP policy: action scores = A · W2 ReLU(W1 [user; entity; relation; extra])."""

    def __init__(self, state_dim: int, action_dim: int, hidden_dim: int,
                 rng: np.random.Generator) -> None:
        self.input_layer = nn.Linear(state_dim, hidden_dim, rng=rng)
        self.output_layer = nn.Linear(hidden_dim, action_dim, rng=rng)

    def action_logits(self, state_vector: np.ndarray, action_matrix: np.ndarray) -> Tensor:
        query = self.output_layer(F.relu(self.input_layer(Tensor(state_vector))))
        return Tensor(action_matrix) @ query


class SingleAgentRLRecommender(BaselineRecommender):
    """The shared PGPR-style skeleton; subclasses override the hook methods."""

    name = "SingleAgentRL"

    def __init__(self, config: Optional[SingleAgentConfig] = None, seed: int = 0) -> None:
        super().__init__(seed=seed)
        self.config = config or SingleAgentConfig(seed=seed)

    # ------------------------------------------------------------------ #
    # hooks overridden by the concrete baselines
    # ------------------------------------------------------------------ #
    def _extra_state_dim(self) -> int:
        """Extra state features appended by the subclass (e.g. UCPR's demand)."""
        return 0

    def _extra_state(self, user_id: int) -> np.ndarray:
        return np.zeros(0)

    def _item_representation(self, entity_id: int) -> np.ndarray:
        """Representation of an entity used in states/actions."""
        return self._entity_table[entity_id]

    def _prune_actions(self, user_id: int, entity_id: int) -> List[Action]:
        """Candidate actions at ``entity_id`` (subclasses may pre-filter)."""
        return self._with_self_loop(self._degree_pruned(entity_id), entity_id)

    def _degree_pruned(self, entity_id: int) -> ActionArrays:
        """The ``max_actions`` highest-degree neighbours, jittered by ``self._rng``."""
        return degree_prune_arrays(self._graph.adjacency(), entity_id,
                                   self.config.max_actions, rng=self._rng)

    @staticmethod
    def _with_self_loop(actions: ActionArrays, entity_id: int) -> List[Action]:
        relations, targets = ensure_self_loop_arrays(actions, entity_id)
        return [(RELATION_LIST[relation], target)
                for relation, target in zip(relations.tolist(), targets.tolist())]

    def _step_reward(self, user_id: int, entity_id: int) -> float:
        """Reward shaping applied at intermediate steps (default: none)."""
        # repro: ignore[NAN001] no shaping means a real zero reward, not a missing measurement
        return 0.0

    def _terminal_reward(self, user_id: int, entity_id: int, positives: Set[int]) -> float:
        """Terminal reward: binary hit plus the PGPR soft reward for items."""
        if entity_id in positives:
            return 1.0
        if self._graph.entities.is_item(entity_id) and self.config.soft_reward_scale > 0:
            user_entity = self._builder.user_to_entity(user_id)
            score = self._transe.score(user_entity, Relation.PURCHASE, entity_id)
            return self.config.soft_reward_scale * float(1.0 / (1.0 + np.exp(-score)))
        return 0.0  # repro: ignore[NAN001] a miss earns a real zero reward

    def _pretrain(self) -> None:
        """Optional warm-up before REINFORCE (used by ADAC)."""

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def _fit(self, dataset: InteractionDataset, split: TrainTestSplit) -> None:
        config = self.config
        self._rng = np.random.default_rng(config.seed)
        self._graph, self._category_graph, self._builder = build_knowledge_graph(
            dataset, split.train)
        self._transe, _ = train_transe(
            self._graph, TransEConfig(embedding_dim=config.embedding_dim,
                                      epochs=config.transe_epochs, seed=config.seed))
        self._entity_table = np.array(self._transe.entity_embeddings, copy=True)
        self._relation_table = np.array(self._transe.relation_embeddings, copy=True)
        self._prepare_representations()

        state_dim = 3 * config.embedding_dim + self._extra_state_dim()
        action_dim = 2 * config.embedding_dim
        self._policy = _SingleAgentPolicy(state_dim, action_dim, config.hidden_dim,
                                          np.random.default_rng(config.seed + 1))
        self._optimiser = nn.Adam(self._policy.parameters(), lr=config.learning_rate)
        self._reinforce = ReinforceConfig(gamma=config.gamma)
        self._baseline = MovingBaseline()

        self._pretrain()
        self._train_reinforce()

    def _prepare_representations(self) -> None:
        """Hook for subclasses that post-process the entity table (INFER)."""

    def _state_vector(self, user_id: int, entity_id: int, relation: Relation) -> np.ndarray:
        user_entity = self._builder.user_to_entity(user_id)
        return np.concatenate([
            self._entity_table[user_entity],
            self._item_representation(entity_id),
            self._relation_table[relation_index(relation)],
            self._extra_state(user_id),
        ])

    def _action_matrix(self, actions: Sequence[Action]) -> np.ndarray:
        return np.stack([
            np.concatenate([self._relation_table[relation_index(relation)],
                            self._item_representation(target)])
            for relation, target in actions
        ])

    def _train_reinforce(self) -> None:
        config = self.config
        users = [user for user, items in self.train_items.items() if items]
        for _ in range(config.epochs):
            order = self._rng.permutation(len(users))
            for index in order:
                user_id = users[index]
                positives = {self._builder.item_to_entity(item)
                             for item in self.train_items[user_id]}
                self._run_episode(user_id, positives)

    def _run_episode(self, user_id: int, positives: Set[int]) -> None:
        config = self.config
        entity = self._builder.user_to_entity(user_id)
        relation = Relation.SELF_LOOP
        log_probs: List[Tensor] = []
        rewards: List[float] = []
        for _ in range(config.max_hops):
            actions = self._prune_actions(user_id, entity)
            if not actions:
                break
            logits = self._policy.action_logits(self._state_vector(user_id, entity, relation),
                                                self._action_matrix(actions))
            log_distribution = F.log_softmax(logits, axis=-1)
            probabilities = np.exp(log_distribution.data)
            probabilities /= probabilities.sum()
            chosen = int(self._rng.choice(len(actions), p=probabilities))
            log_probs.append(log_distribution[chosen])
            relation, entity = actions[chosen]
            rewards.append(self._step_reward(user_id, entity))
        if rewards:
            rewards[-1] += self._terminal_reward(user_id, entity, positives)
        loss = policy_gradient_loss(log_probs, rewards, self._reinforce, self._baseline)
        apply_update(loss, self._policy.parameters(), self._optimiser, self._reinforce)

    # ------------------------------------------------------------------ #
    # inference: beam search + item scoring
    # ------------------------------------------------------------------ #
    def _beam_search(self, user_id: int) -> List[RecommendationPath]:
        config = self.config
        user_entity = self._builder.user_to_entity(user_id)
        beams: List[Tuple[float, int, Relation, Tuple[Tuple[Relation, int], ...]]] = [
            (0.0, user_entity, Relation.SELF_LOOP, ())
        ]
        collected: List[RecommendationPath] = []
        for _ in range(config.max_hops):
            expansions: List[Tuple[float, int, Relation, Tuple[Tuple[Relation, int], ...]]] = []
            for log_prob, entity, relation, hops in beams:
                actions = self._prune_actions(user_id, entity)
                if not actions:
                    continue
                logits = self._policy.action_logits(
                    self._state_vector(user_id, entity, relation),
                    self._action_matrix(actions))
                log_distribution = F.log_softmax(logits, axis=-1).data
                order = np.argsort(-log_distribution)[: config.expansions_per_beam]
                for index in order:
                    next_relation, next_entity = actions[index]
                    expansions.append((log_prob + float(log_distribution[index]), next_entity,
                                       next_relation, hops + ((next_relation, next_entity),)))
            if not expansions:
                break
            expansions.sort(key=lambda item: item[0], reverse=True)
            beams = expansions[: config.beam_width]
            for log_prob, entity, _, hops in beams:
                if len(hops) >= 2 and self._graph.entities.is_item(entity):
                    collected.append(RecommendationPath(user_entity=user_entity,
                                                        item_entity=entity, hops=hops,
                                                        score=log_prob))
        return collected

    def _score_items(self, user_id: int) -> np.ndarray:
        scores = np.full(self.dataset.num_items, -np.inf)
        for path in self._beam_search(user_id):
            item = self._builder.entity_to_item(path.item_entity)
            if item is None:
                continue
            scores[item] = max(scores[item], path.score)
        # Items never reached by any path fall back to the embedding score so the
        # ranking is total (they land after all path-reached items).
        unreached = ~np.isfinite(scores)
        if np.any(unreached):
            user_entity = self._builder.user_to_entity(user_id)
            item_entities = np.array([self._builder.item_to_entity(item)
                                      for item in range(self.dataset.num_items)])
            fallback = self._transe.score_tails(user_entity, Relation.PURCHASE, item_entities)
            scores[unreached] = -1e6 + fallback[unreached]
        return scores

    def find_paths(self, user_id: int, num_paths: int) -> List[RecommendationPath]:
        """Raw path enumeration for the efficiency study."""
        paths = self._beam_search(user_id)
        paths.sort(key=lambda path: path.score, reverse=True)
        return paths[:num_paths]


# --------------------------------------------------------------------------- #
# concrete baselines
# --------------------------------------------------------------------------- #
class PGPRRecommender(SingleAgentRLRecommender):
    """Policy-Guided Path Reasoning (the pioneering RL-over-KG recommender)."""

    name = "PGPR"


class ADACRecommender(SingleAgentRLRecommender):
    """ADAC: demonstration-guided warm-up followed by REINFORCE fine-tuning."""

    name = "ADAC"

    def __init__(self, config: Optional[SingleAgentConfig] = None, seed: int = 0,
                 demonstration_epochs: int = 2, max_demonstrations_per_user: int = 3) -> None:
        super().__init__(config=config, seed=seed)
        self.demonstration_epochs = demonstration_epochs
        self.max_demonstrations_per_user = max_demonstrations_per_user

    def _pretrain(self) -> None:
        demonstrations = self._mine_demonstrations()
        for _ in range(self.demonstration_epochs):
            self._rng.shuffle(demonstrations)
            for user_id, path in demonstrations:
                self._imitate(user_id, path)

    def _mine_demonstrations(self) -> List[Tuple[int, List[Action]]]:
        """Shortest user→purchased-item paths found by breadth-first search."""
        demonstrations: List[Tuple[int, List[Action]]] = []
        for user_id, items in self.train_items.items():
            user_entity = self._builder.user_to_entity(user_id)
            targets = {self._builder.item_to_entity(item) for item in items}
            found = 0
            queue = deque([(user_entity, [])])
            visited = {user_entity}
            while queue and found < self.max_demonstrations_per_user:
                entity, path = queue.popleft()
                if len(path) >= self.config.max_hops:
                    continue
                for relation, tail in self._graph.outgoing(entity):
                    if tail in visited:
                        continue
                    new_path = path + [(relation, tail)]
                    if tail in targets:
                        # Record multi-hop demonstrations; keep targets out of the
                        # visited set so longer alternative routes can still reach
                        # them (the 1-hop purchase edge itself is not a useful demo).
                        if len(new_path) >= 2:
                            demonstrations.append((user_id, new_path))
                            found += 1
                            if found >= self.max_demonstrations_per_user:
                                break
                        continue
                    visited.add(tail)
                    queue.append((tail, new_path))
        return demonstrations

    def _imitate(self, user_id: int, demonstration: List[Action]) -> None:
        """One cross-entropy step pushing the policy towards the demonstration."""
        entity = self._builder.user_to_entity(user_id)
        relation = Relation.SELF_LOOP
        loss: Optional[Tensor] = None
        for target_relation, target_entity in demonstration:
            actions = self._prune_actions(user_id, entity)
            try:
                target_index = actions.index((target_relation, target_entity))
            except ValueError:
                actions = actions + [(target_relation, target_entity)]
                target_index = len(actions) - 1
            logits = self._policy.action_logits(self._state_vector(user_id, entity, relation),
                                                self._action_matrix(actions))
            step_loss = F.cross_entropy_with_logits(logits, target_index)
            loss = step_loss if loss is None else loss + step_loss
            relation, entity = target_relation, target_entity
        if loss is not None:
            self._optimiser.zero_grad()
            loss.backward()
            nn.clip_grad_norm(self._policy.parameters(), 5.0)
            self._optimiser.step()


class UCPRRecommender(SingleAgentRLRecommender):
    """UCPR: user-centric path reasoning with a demand memory in the state."""

    name = "UCPR"

    def _extra_state_dim(self) -> int:
        return self.config.embedding_dim

    def _extra_state(self, user_id: int) -> np.ndarray:
        demand = self._demand_vectors.get(user_id)
        if demand is None:
            return np.zeros(self.config.embedding_dim)
        return demand

    def _prepare_representations(self) -> None:
        self._demand_vectors: Dict[int, np.ndarray] = {}
        for user_id, items in self.train_items.items():
            if not items:
                continue
            vectors = [self._entity_table[self._builder.item_to_entity(item)] for item in items]
            self._demand_vectors[user_id] = np.mean(vectors, axis=0)

    def _step_reward(self, user_id: int, entity_id: int) -> float:
        """Small shaping towards entities aligned with the user's demand vector."""
        demand = self._demand_vectors.get(user_id)
        if demand is None or not self._graph.entities.is_item(entity_id):
            return 0.0  # repro: ignore[NAN001] non-items earn a real zero shaping reward
        vector = self._entity_table[entity_id]
        denominator = (np.linalg.norm(demand) * np.linalg.norm(vector)) or 1.0
        return 0.1 * float(demand @ vector / denominator)


class ReMRRecommender(SingleAgentRLRecommender):
    """ReMR: multi-level reasoning — category-level reward shaping on top of PGPR."""

    name = "ReMR"

    def _prepare_representations(self) -> None:
        self._user_categories: Dict[int, Set[int]] = {}
        for user_id, items in self.train_items.items():
            categories = set()
            for item in items:
                category = self._graph.category_of(self._builder.item_to_entity(item))
                if category is not None:
                    categories.add(category)
            self._user_categories[user_id] = categories

    def _step_reward(self, user_id: int, entity_id: int) -> float:
        if not self._graph.entities.is_item(entity_id):
            return 0.0  # repro: ignore[NAN001] non-items earn a real zero shaping reward
        category = self._graph.category_of(entity_id)
        if category is None:
            return 0.0  # repro: ignore[NAN001] uncategorised items earn a real zero reward
        return 0.1 if category in self._user_categories.get(user_id, set()) else 0.0


class INFERRecommender(SingleAgentRLRecommender):
    """INFER: neighbour-smoothed (GNN-style) item representations feed the policy."""

    name = "INFER"

    def __init__(self, config: Optional[SingleAgentConfig] = None, seed: int = 0,
                 smoothing_hops: int = 1, smoothing_weight: float = 0.5) -> None:
        super().__init__(config=config, seed=seed)
        self.smoothing_hops = smoothing_hops
        self.smoothing_weight = smoothing_weight

    def _prepare_representations(self) -> None:
        table = self._entity_table
        for _ in range(self.smoothing_hops):
            smoothed = np.array(table, copy=True)
            for item in self._graph.entities.ids_of_type(EntityType.ITEM):
                neighbors = [tail for _, tail in self._graph.outgoing(item)
                             if not self._graph.entities.is_user(tail)]
                if not neighbors:
                    continue
                neighbour_mean = np.mean([table[n] for n in neighbors], axis=0)
                smoothed[item] = ((1.0 - self.smoothing_weight) * table[item]
                                  + self.smoothing_weight * neighbour_mean)
            table = smoothed
        self._entity_table = table


class CogERRecommender(SingleAgentRLRecommender):
    """CogER: a fast heuristic "System 1" filter narrows actions before RL scoring."""

    name = "CogER"

    def __init__(self, config: Optional[SingleAgentConfig] = None, seed: int = 0,
                 system1_keep: int = 12) -> None:
        super().__init__(config=config, seed=seed)
        self.system1_keep = system1_keep

    def _prune_actions(self, user_id: int, entity_id: int) -> List[Action]:
        relations, targets = self._degree_pruned(entity_id)
        if len(targets) > self.system1_keep:
            user_entity = self._builder.user_to_entity(user_id)
            user_vector = self._entity_table[user_entity]
            similarities = np.array([
                float(user_vector @ self._entity_table[target]) for target in targets.tolist()
            ])
            keep = np.argsort(-similarities)[: self.system1_keep]
            relations, targets = relations[keep], targets[keep]
        return self._with_self_loop((relations, targets), entity_id)
