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
from ..darl.shared_policy import (GradientFactors, HeadActivations, ScoreActivations,
                                  policy_head, policy_head_backward, sample_index,
                                  score_actions, scores_backward)
from ..data.schema import InteractionDataset, TrainTestSplit
from ..embeddings import TransEConfig, train_transe
from ..kg import build_knowledge_graph
from ..kg.entities import EntityType
from ..kg.pruning import Action, ActionArrays, degree_prune_arrays, ensure_self_loop_arrays
from ..kg.relations import RELATION_LIST, Relation, relation_index
from ..rl.reinforce import (MovingBaseline, ReinforceConfig, apply_gradients,
                            reinforce_advantages, reinforce_loss)
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

    def validate(self) -> None:
        for name in ("max_hops", "max_actions", "beam_width", "expansions_per_beam"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


class _SingleAgentPolicy(nn.Module):
    """MLP policy: action scores = A · W2 ReLU(W1 [user; entity; relation; extra])."""

    def __init__(self, state_dim: int, action_dim: int, hidden_dim: int,
                 rng: np.random.Generator) -> None:
        self.input_layer = nn.Linear(state_dim, hidden_dim, rng=rng)
        self.output_layer = nn.Linear(hidden_dim, action_dim, rng=rng)


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
        config.validate()
        self._reinforce = ReinforceConfig(gamma=config.gamma)
        self._reinforce.validate()
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

    def _policy_step(self, user_id: int, entity: int, relation: Relation,
                     actions: Sequence[Action]) -> Tuple[ScoreActivations, HeadActivations]:
        """Score ``actions`` from the walk's state: activations and log-softmax head."""
        scores = score_actions(self._policy.input_layer, self._policy.output_layer,
                               self._state_vector(user_id, entity, relation),
                               self._action_matrix(actions))
        return scores, policy_head(scores.logits)

    def _run_episode(self, user_id: int, positives: Set[int]) -> float:
        """Sample one walk and apply its REINFORCE update; returns the loss."""
        config = self.config
        entity = self._builder.user_to_entity(user_id)
        relation = Relation.SELF_LOOP
        steps: List[Tuple[ScoreActivations, HeadActivations, int]] = []
        rewards: List[float] = []
        for _ in range(config.max_hops):
            actions = self._prune_actions(user_id, entity)
            if not actions:
                break
            scores, head = self._policy_step(user_id, entity, relation, actions)
            probabilities = head.probs / head.probs.sum()
            chosen = sample_index(probabilities, self._rng)
            steps.append((scores, head, chosen))
            relation, entity = actions[chosen]
            rewards.append(self._step_reward(user_id, entity))
        if not steps:
            return float("nan")  # no decision was recorded: no loss measured
        rewards[-1] += self._terminal_reward(user_id, entity, positives)
        advantages = reinforce_advantages(rewards, self._reinforce.gamma, self._baseline)
        self._update(steps, [-advantage for advantage in advantages])
        return reinforce_loss([float(head.log_probs[chosen]) for _, head, chosen in steps],
                              advantages)

    def _update(self, steps: List[Tuple[ScoreActivations, HeadActivations, int]],
                grad_log_probs: List[float]) -> None:
        """Back-propagate each step's ``d loss / d log π(a)``, then clip and step.

        The per-step parameter gradients are added latest step first, the
        order in which :meth:`repro.nn.Tensor.backward` accumulates them, so
        they equal the autograd oracle's bit for bit.
        """
        def backward() -> None:
            factors = GradientFactors()
            for (scores, head, chosen), grad in zip(reversed(steps), reversed(grad_log_probs)):
                scores_backward(self._policy.input_layer, self._policy.output_layer, scores,
                                policy_head_backward(head, chosen, grad, None), factors)
            factors.write()

        apply_gradients(self._optimiser, self._reinforce.gradient_clip, backward)

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
                log_distribution = self._log_policy(user_id, entity, relation, actions)
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

    def _log_policy(self, user_id: int, entity: int, relation: Relation,
                    actions: Sequence[Action]) -> np.ndarray:
        """Log-probabilities of ``actions``, the beam search's expansion scores."""
        return self._policy_step(user_id, entity, relation, actions)[1].log_probs

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
        steps: List[Tuple[ScoreActivations, HeadActivations, int]] = []
        for target_relation, target_entity in demonstration:
            actions = self._prune_actions(user_id, entity)
            try:
                target_index = actions.index((target_relation, target_entity))
            except ValueError:
                actions = actions + [(target_relation, target_entity)]
                target_index = len(actions) - 1
            scores, head = self._policy_step(user_id, entity, relation, actions)
            steps.append((scores, head, target_index))
            relation, entity = target_relation, target_entity
        if steps:
            # loss = -Σ log π(target): every step's log-probability gradient is -1.
            self._update(steps, [-1.0] * len(steps))


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
