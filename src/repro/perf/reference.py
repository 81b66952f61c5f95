"""Frozen reference implementations of the vectorised hot paths.

When the beam search, the milestone rollout, the pruning and the TransE
trainer were vectorised, their original one-Python-iteration-per-beam/
-user/-neighbour/-triplet implementations moved here; so did the autograd
REINFORCE loss and update (:func:`policy_gradient_loss`,
:func:`apply_update`), the autograd single-agent baselines
(:class:`ReferenceSingleAgent`), the autograd DARL training episode
(:class:`ReferenceDARLTrainer`, with the ``Tensor`` policy forward it
differentiates) and the autograd CGGNN training step
(:class:`ReferenceCGGNNTrainer`, with the ``Tensor`` CGGNN forward,
:func:`cggnn_forward`) when training switched to hand-written numpy
backwards.  They serve two purposes:

* **equivalence oracles** — ``tests/test_perf_equivalence.py`` pins the
  vectorised implementations to these references (identical top-k items and
  explanation paths, all-close embeddings, identical pruned action sets,
  bit-identical DARL, CGGNN and single-agent gradients, training histories
  and weights);
* **in-run benchmark baselines** — ``python -m repro bench`` measures both
  sides in the same process on the same data, so the reported speedups are
  machine-independent ratios rather than absolute timings.

Nothing in the production stack calls this module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import nn
from ..cggnn import CGGNN, CGGNNTrainer
from ..cggnn.category_attention import _MASK_FILL, CategoryAttentionLayer
from ..cggnn.gating import GatedAggregationLayer
from ..cggnn.propagation import AdaptivePropagationLayer
from ..darl.agents import CategoryAgent, EntityAgent
from ..darl.collaborative import action_target_categories
from ..darl.inference import PathRecommender
from ..darl.shared_policy import SharedPolicyNetworks
from ..darl.trainer import DARLTrainer
from ..embeddings.transe import TransEConfig, TransEModel
from ..kg.graph import KnowledgeGraph
from ..kg.pruning import Action
from ..kg.relations import Relation, relation_index
from ..nn import Tensor
from ..nn import functional as F
from ..rl.environment import EntityState
from ..rl.reinforce import MovingBaseline, ReinforceConfig
from ..rl.rewards import collaborative_rewards, consistency_reward
from ..rl.trajectory import (CategoryStep, EntityStep, EpisodeResult, RecommendationPath,
                             discounted_returns)

NumpyLSTMState = Tuple[np.ndarray, np.ndarray]


def _relation_index_reference(relation: Relation) -> int:
    """The pre-PR ``relation_index``: a linear scan of the enum per lookup.

    ``repro.kg.relations.relation_index`` is a dict hit nowadays; the
    reference trainer keeps the original O(num_relations) lookup so the
    baseline reflects the true pre-PR cost of building the triplet table.
    """
    return list(Relation).index(relation)


# --------------------------------------------------------------------------- #
# scalar beam search (pre-vectorisation PathRecommender.search)
# --------------------------------------------------------------------------- #
@dataclass
class _Beam:
    """Internal beam-search state (one partial entity-agent walk)."""

    entity_state: EntityState
    entity_hidden: np.ndarray
    entity_lstm: NumpyLSTMState
    last_relation: Relation
    log_prob: float
    hops: Tuple[Tuple[Relation, int], ...] = ()


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


def category_milestones_reference(recommender: PathRecommender,
                                  user_entity: int) -> List[Optional[int]]:
    """The pre-batching greedy milestone rollout: one user, one step at a time.

    ``PathRecommender`` rolls milestones out in batches (a batch of one for a
    single user); this is the single-user loop it replaced, step for step.
    """
    if not recommender.use_dual_agent:
        return [None] * recommender.max_path_length
    environment = recommender.category_environment
    policy = recommender.policy
    representations = recommender.representations
    start = environment.start_category_for(user_entity)
    state = environment.initial_state(user_entity, start)
    lstm_state = policy.initial_state_numpy()
    hidden, lstm_state = policy.encode_category_step_numpy(
        representations.category_vector(start), None, lstm_state)
    user_vector = representations.entity_vector(user_entity)

    milestones: List[Optional[int]] = []
    for _ in range(recommender.max_path_length):
        actions = environment.actions(state)
        action_matrix = environment.action_matrix(actions)
        logits = policy.category_action_logits_numpy(
            user_vector, representations.category_vector(state.current_category),
            hidden, action_matrix)
        chosen = actions[int(np.argmax(logits))]
        milestones.append(chosen)
        state = environment.step(state, chosen)
        hidden, lstm_state = policy.encode_category_step_numpy(
            representations.category_vector(chosen), hidden, lstm_state)
    return milestones


class ScalarPathRecommender(PathRecommender):
    """A :class:`PathRecommender` whose beam search runs one beam at a time.

    Shares every collaborator (environments, caches, policy) with the
    vectorised implementation; the search loop and the milestone rollout are
    the pre-vectorisation scalar ones, so a comparison between the two
    isolates exactly the vectorisation change.
    """

    def recommend(self, user_entity, exclude_items=None, top_k=None):
        """Pre-vectorisation single-user path: one scalar search."""
        candidates = self.search(user_entity, exclude_items or set())
        ranked = sorted(candidates.values(), key=lambda path: path.score, reverse=True)
        return ranked[:top_k or self.config.top_k]

    def find_paths(self, user_entity, num_paths):
        """Pre-vectorisation path finding: one scalar search."""
        candidates = self.search(user_entity, exclude_items=set(), keep_all_paths=True)
        paths = sorted(candidates.values(), key=lambda path: path.score, reverse=True)
        return paths[:num_paths]

    def warm_milestones(self, user_entities):
        """Pre-batching rollout: one scalar rollout per missing user."""
        missing = [user for user in dict.fromkeys(user_entities)
                   if user not in self.milestone_cache]
        for user in missing:
            self.store_milestones(user, category_milestones_reference(self, user))
        return len(missing)

    def recommend_many(self, user_entities, exclude_items=None, top_k=None):
        """Pre-vectorisation batch path: one independent search per user."""
        exclude_items = exclude_items or {}
        return {
            user: self.recommend(user, exclude_items.get(user, set()), top_k)
            for user in dict.fromkeys(user_entities)
        }

    def recommend_requests(self, requests):
        """Pre-vectorisation request batching: one scalar search per request."""
        return [self.recommend(user, exclude_items, top_k)
                for user, exclude_items, top_k in requests]

    def search(self, user_entity: int, exclude_items: Set[int],
               keep_all_paths: bool = False) -> Dict[int, RecommendationPath]:
        milestones = self.category_milestones(user_entity)
        beams = [self._initial_beam(user_entity)]
        found: Dict[int, RecommendationPath] = {}

        for depth in range(1, self.max_path_length + 1):
            guided_category = milestones[depth - 1]
            expansions: List[_Beam] = []
            for beam in beams:
                expansions.extend(self._expand(beam, guided_category))
            if not expansions:
                break
            expansions.sort(key=lambda candidate: candidate.log_prob, reverse=True)
            survivors = expansions[: self.config.beam_width]
            beams = [self._advance_history(beam) for beam in survivors]

            if depth >= self.config.min_path_length:
                for beam in beams:
                    self._collect_beam(beam, user_entity, exclude_items, found,
                                       keep_all_paths)
        return found

    def _initial_beam(self, user_entity: int) -> _Beam:
        entity_state = self.entity_environment.initial_state(user_entity)
        lstm_state = self.policy.initial_state_numpy()
        hidden, lstm_state = self.policy.encode_entity_step_numpy(
            self.representations.relation_vector(Relation.SELF_LOOP),
            self.representations.entity_vector(user_entity), None, lstm_state)
        return _Beam(entity_state=entity_state, entity_hidden=hidden,
                     entity_lstm=lstm_state, last_relation=Relation.SELF_LOOP,
                     log_prob=0.0)

    def _expand(self, beam: _Beam, guided_category: Optional[int]) -> List[_Beam]:
        """Generate the highest-probability child beams of ``beam``."""
        actions = self.entity_environment.actions(beam.entity_state,
                                                  target_category=guided_category)
        if not actions:
            return []
        cache_key = (beam.entity_state.current_entity, guided_category,
                     beam.entity_state.user_entity)
        action_matrix = self.entity_environment.action_matrix(actions, cache_key=cache_key)
        logits = self.policy.entity_action_logits_numpy(
            self.representations.entity_vector(beam.entity_state.current_entity),
            self.representations.relation_vector(beam.last_relation),
            beam.entity_hidden, action_matrix)
        categories = action_target_categories(
            self.graph, np.array([target for _, target in actions], dtype=np.int64))
        logits = logits + self.guidance.guidance_bonus(categories, guided_category)
        log_probs = _log_softmax(logits)

        order = np.argsort(-log_probs)[: self.config.expansions_per_beam]
        children: List[_Beam] = []
        for index in order:
            relation, target = actions[index]
            children.append(replace(
                beam,
                entity_state=self.entity_environment.step(beam.entity_state,
                                                          actions[index]),
                last_relation=relation,
                log_prob=beam.log_prob + float(log_probs[index]),
                hops=beam.hops + ((relation, target),),
            ))
        return children

    def _advance_history(self, beam: _Beam) -> _Beam:
        """Update the entity history encoder for a surviving beam."""
        relation, target = beam.hops[-1]
        hidden, lstm_state = self.policy.encode_entity_step_numpy(
            self.representations.relation_vector(relation),
            self.representations.entity_vector(target),
            None, beam.entity_lstm)
        return replace(beam, entity_hidden=hidden, entity_lstm=lstm_state)

    def _collect_beam(self, beam: _Beam, user_entity: int, exclude_items: Set[int],
                      found: Dict[int, RecommendationPath],
                      keep_all_paths: bool) -> None:
        """Record the beam's endpoint if it is a recommendable item."""
        entity = beam.entity_state.current_entity
        if not self.entity_environment.is_item(entity):
            return
        if entity in exclude_items:
            return
        path = RecommendationPath(user_entity=user_entity, item_entity=entity,
                                  hops=beam.hops, score=beam.log_prob)
        key = entity if not keep_all_paths else len(found)
        existing = found.get(key)
        if existing is None or path.score > existing.score:
            found[key] = path


# --------------------------------------------------------------------------- #
# list-based action pruning (pre-CSR repro.kg.pruning)
# --------------------------------------------------------------------------- #
def degree_prune(graph: KnowledgeGraph, entity_id: int, max_actions: int,
                 rng: Optional[np.random.Generator] = None) -> List[Action]:
    """Keep the ``max_actions`` neighbours with the highest degree.

    The reference for :func:`repro.kg.degree_prune_arrays`.  Ties are broken
    towards the later neighbour unless ``rng`` adds a jitter.
    """
    actions = graph.outgoing(entity_id)
    if len(actions) <= max_actions:
        return actions
    scored = [(graph.degree(tail), i) for i, (_, tail) in enumerate(actions)]
    if rng is not None:
        jitter = rng.random(len(scored)) * 1e-6
        scored = [(score + jitter[i], i) for (score, i) in scored]
    scored.sort(reverse=True)
    return [actions[i] for _, i in scored[:max_actions]]


def category_guided_prune(graph: KnowledgeGraph, entity_id: int, max_actions: int,
                          target_category: Optional[int]) -> List[Action]:
    """Guidance-aware pruning, the reference for
    :func:`repro.kg.category_guided_prune_arrays`.

    Actions leading into ``target_category`` are kept first; remaining slots
    go to the highest-degree alternatives.
    """
    actions = graph.outgoing(entity_id)
    if len(actions) <= max_actions:
        return actions

    guided: List[Action] = []
    rest: List[Action] = []
    for relation, tail in actions:
        if target_category is not None and graph.category_of(tail) == target_category:
            guided.append((relation, tail))
        else:
            rest.append((relation, tail))

    if len(guided) >= max_actions:
        return guided[:max_actions]
    order = np.argsort([-graph.degree(tail) for _, tail in rest])
    guided.extend(rest[i] for i in order[:max_actions - len(guided)])
    return guided


def ensure_self_loop(actions: List[Action], entity_id: int) -> List[Action]:
    """Append a self-loop action so the walker can stop early (PGPR convention)."""
    result = list(actions)
    if not any(rel == Relation.SELF_LOOP for rel, _ in result):
        result.append((Relation.SELF_LOOP, entity_id))
    return result


# --------------------------------------------------------------------------- #
# scalar TransE training (pre-vectorisation train_transe)
# --------------------------------------------------------------------------- #
def train_transe_reference(graph: KnowledgeGraph,
                           config: Optional[TransEConfig] = None
                           ) -> Tuple[TransEModel, List[float]]:
    """The pre-vectorisation TransE trainer, kept verbatim.

    Per-triplet index columns stay strided views, the triplet table is rebuilt
    from Python objects on every call, and each margin step issues six
    ``np.add.at`` scatter passes — exactly the costs the vectorised
    :func:`repro.embeddings.train_transe` removes.  Draws from the RNG in the
    same order as the vectorised trainer, so same-seed runs are comparable.
    """
    config = config or TransEConfig()
    config.validate()
    model = TransEModel(graph.num_entities, config)
    rng = np.random.default_rng(config.seed + 1)

    triplets = np.array([(t.head, _relation_index_reference(t.relation), t.tail)
                         for t in graph.triplets()], dtype=np.int64)
    if len(triplets) == 0:
        return model, []

    losses: List[float] = []
    num_entities = graph.num_entities
    for _ in range(config.epochs):
        order = rng.permutation(len(triplets))
        epoch_loss = 0.0
        count = 0
        for start in range(0, len(order), config.batch_size):
            batch = triplets[order[start:start + config.batch_size]]
            heads, relations, tails = batch[:, 0], batch[:, 1], batch[:, 2]
            for _ in range(config.negative_samples):
                corrupt_heads = rng.random(len(batch)) < 0.5
                neg_heads = heads.copy()
                neg_tails = tails.copy()
                replacements = rng.integers(0, num_entities, size=len(batch))
                neg_heads[corrupt_heads] = replacements[corrupt_heads]
                neg_tails[~corrupt_heads] = replacements[~corrupt_heads]

                loss = _margin_step_reference(model, config, heads, relations, tails,
                                              neg_heads, neg_tails)
                epoch_loss += loss
                count += 1
        model._normalize_entities()
        losses.append(epoch_loss / max(count, 1))
    return model, losses


def _margin_step_reference(model: TransEModel, config: TransEConfig,
                           heads: np.ndarray, relations: np.ndarray,
                           tails: np.ndarray, neg_heads: np.ndarray,
                           neg_tails: np.ndarray) -> float:
    """One SGD step of the margin ranking loss; returns the batch loss."""
    ent = model.entity_embeddings
    rel = model.relation_embeddings

    pos_diff = ent[heads] + rel[relations] - ent[tails]
    neg_diff = ent[neg_heads] + rel[relations] - ent[neg_tails]
    pos_dist = np.linalg.norm(pos_diff, axis=1)
    neg_dist = np.linalg.norm(neg_diff, axis=1)
    violation = config.margin + pos_dist - neg_dist
    active = violation > 0
    if not np.any(active):
        return 0.0  # repro: ignore[NAN001] no margin violations: the batch loss really is 0

    lr = config.learning_rate
    # d/dx ||x|| = x / ||x||
    pos_grad = pos_diff[active] / (pos_dist[active, None] + 1e-12)
    neg_grad = neg_diff[active] / (neg_dist[active, None] + 1e-12)

    np.add.at(ent, heads[active], -lr * pos_grad)
    np.add.at(ent, tails[active], lr * pos_grad)
    np.add.at(rel, relations[active], -lr * pos_grad)
    np.add.at(ent, neg_heads[active], lr * neg_grad)
    np.add.at(ent, neg_tails[active], -lr * neg_grad)
    np.add.at(rel, relations[active], lr * neg_grad)

    return float(np.mean(violation[active]))


# --------------------------------------------------------------------------- #
# autograd REINFORCE loss and update (pre-fusion repro.rl.reinforce)
# --------------------------------------------------------------------------- #
def policy_gradient_loss(log_probs: Sequence[Tensor], rewards: Sequence[float],
                         config: ReinforceConfig, baseline: Optional[MovingBaseline] = None,
                         entropies: Optional[Sequence[Tensor]] = None) -> Optional[Tensor]:
    """Assemble the REINFORCE loss ``-Σ_l (G_l - b) log π(a_l|s_l)``.

    Returns ``None`` when there are no recorded decisions (e.g. an episode that
    terminated immediately), so callers can skip the update cleanly.
    """
    config.validate()
    if len(log_probs) != len(rewards):
        raise ValueError("log_probs and rewards must have the same length")
    if not log_probs:
        return None
    returns = discounted_returns(rewards, config.gamma)
    baseline_value = baseline.value if baseline is not None else 0.0
    if baseline is not None:
        baseline.update(returns[0])

    loss: Optional[Tensor] = None
    for log_prob, step_return in zip(log_probs, returns):
        advantage = step_return - baseline_value
        term = log_prob * (-advantage)
        loss = term if loss is None else loss + term
    if entropies and config.entropy_weight > 0.0:
        for entropy in entropies:
            loss = loss + entropy * (-config.entropy_weight)
    return loss


def apply_update(loss: Optional[Tensor], parameters: Sequence[Tensor],
                 optimiser: nn.Optimizer, config: ReinforceConfig) -> float:
    """Backpropagate ``loss`` and step the optimiser; returns the loss value."""
    if loss is None:
        return float("nan")  # no update performed, so no loss was measured
    optimiser.zero_grad()
    loss.backward()
    nn.clip_grad_norm(list(parameters), config.gradient_clip)
    optimiser.step()
    return loss.item()


# --------------------------------------------------------------------------- #
# autograd single-agent baselines (pre-fusion repro.baselines.rl_single)
# --------------------------------------------------------------------------- #
class ReferenceSingleAgent:
    """Mixin over a :class:`repro.baselines.rl_single.SingleAgentRLRecommender`
    whose REINFORCE episode, ADAC imitation step and beam-search forward
    build and walk an autograd graph.

    Mix it in front of a concrete baseline, e.g.
    ``type("ReferencePGPR", (ReferenceSingleAgent, PGPRRecommender), {})``.
    Everything else (pruning, rewards, random streams, optimiser) is the
    baseline's own, so the numpy baseline must reproduce its losses,
    gradients, weights and path scores bit for bit.
    """

    def _action_logits(self, user_id: int, entity: int, relation: Relation,
                       actions: Sequence[Action]) -> Tensor:
        policy = self._policy
        query = policy.output_layer(F.relu(policy.input_layer(
            Tensor(self._state_vector(user_id, entity, relation)))))
        return Tensor(self._action_matrix(actions)) @ query

    def _run_episode(self, user_id: int, positives: Set[int]) -> float:
        entity = self._builder.user_to_entity(user_id)
        relation = Relation.SELF_LOOP
        log_probs: List[Tensor] = []
        rewards: List[float] = []
        for _ in range(self.config.max_hops):
            actions = self._prune_actions(user_id, entity)
            if not actions:
                break
            log_distribution = F.log_softmax(
                self._action_logits(user_id, entity, relation, actions), axis=-1)
            probabilities = np.exp(log_distribution.data)
            probabilities /= probabilities.sum()
            chosen = int(self._rng.choice(len(actions), p=probabilities))
            log_probs.append(log_distribution[chosen])
            relation, entity = actions[chosen]
            rewards.append(self._step_reward(user_id, entity))
        if rewards:
            rewards[-1] += self._terminal_reward(user_id, entity, positives)
        loss = policy_gradient_loss(log_probs, rewards, self._reinforce, self._baseline)
        return apply_update(loss, self._policy.parameters(), self._optimiser,
                            self._reinforce)

    def _imitate(self, user_id: int, demonstration: List[Action]) -> None:
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
            log_probs = F.log_softmax(
                self._action_logits(user_id, entity, relation, actions), axis=-1)
            step_loss = -log_probs[target_index]
            loss = step_loss if loss is None else loss + step_loss
            relation, entity = target_relation, target_entity
        if loss is not None:
            self._optimiser.zero_grad()
            loss.backward()
            nn.clip_grad_norm(self._policy.parameters(), 5.0)
            self._optimiser.step()

    def _log_policy(self, user_id: int, entity: int, relation: Relation,
                    actions: Sequence[Action]) -> np.ndarray:
        return F.log_softmax(self._action_logits(user_id, entity, relation, actions),
                             axis=-1).data


# --------------------------------------------------------------------------- #
# autograd DARL training episode (pre-fusion DARLTrainer)
# --------------------------------------------------------------------------- #
# The Tensor-path policy forward the autograd episode differentiates through:
# the pre-fusion ``SharedPolicyNetworks`` methods of the same names.
TensorLSTMState = Tuple[Tensor, Tensor]


def _partner(policy: SharedPolicyNetworks, partner_hidden: Optional[Tensor]) -> Tensor:
    if partner_hidden is None or not policy.config.share_history:
        return Tensor(np.zeros(policy.config.hidden_size))
    return partner_hidden


def encode_entity_step(policy: SharedPolicyNetworks, relation_vector: np.ndarray,
                       entity_vector: np.ndarray, partner_hidden: Optional[Tensor],
                       state: TensorLSTMState) -> Tuple[Tensor, TensorLSTMState]:
    """Advance the entity history encoder with the latest hop (Eq. 14)."""
    step = nn.concat([Tensor(relation_vector), Tensor(entity_vector),
                      _partner(policy, partner_hidden)], axis=-1)
    hidden, cell = policy.entity_lstm(step, state)
    return hidden, (hidden, cell)


def encode_category_step(policy: SharedPolicyNetworks, category_vector: np.ndarray,
                         partner_hidden: Optional[Tensor],
                         state: TensorLSTMState) -> Tuple[Tensor, TensorLSTMState]:
    """Advance the category history encoder with the latest category (Eq. 13)."""
    step = nn.concat([Tensor(category_vector), _partner(policy, partner_hidden)], axis=-1)
    hidden, cell = policy.category_lstm(step, state)
    return hidden, (hidden, cell)


def entity_action_logits(policy: SharedPolicyNetworks, entity_vector: np.ndarray,
                         relation_vector: np.ndarray, history_hidden: Tensor,
                         action_matrix: np.ndarray) -> Tensor:
    """Unnormalised scores over the entity agent's candidate actions (Eq. 16)."""
    state_input = nn.concat([Tensor(entity_vector), Tensor(relation_vector),
                             history_hidden], axis=-1)
    query = policy.entity_mlp_out(F.relu(policy.entity_mlp_in(state_input)))
    return Tensor(action_matrix) @ query


def category_action_logits(policy: SharedPolicyNetworks, user_vector: np.ndarray,
                           category_vector: np.ndarray, history_hidden: Tensor,
                           action_matrix: np.ndarray) -> Tensor:
    """Unnormalised scores over the category agent's candidate actions (Eq. 15)."""
    state_input = nn.concat([Tensor(user_vector), Tensor(category_vector),
                             history_hidden], axis=-1)
    query = policy.category_mlp_out(F.relu(policy.category_mlp_in(state_input)))
    return Tensor(action_matrix) @ query


def policy_distribution(logits: Tensor) -> Tensor:
    """Softmax policy over candidate actions."""
    return F.softmax(logits, axis=-1)


@dataclass
class _AutogradDecision:
    """One agent step of the autograd episode (either agent)."""

    chosen_index: int
    choice: object                 # category id or (relation, entity) action
    log_prob: Tensor
    entropy: Tensor
    new_hidden: Tensor
    new_lstm_state: TensorLSTMState
    actions: list
    probabilities: np.ndarray
    base_logits: Optional[np.ndarray] = None
    target_categories: Optional[np.ndarray] = None

    @property
    def alternative_categories(self) -> List[int]:
        return [c for i, c in enumerate(self.actions) if i != self.chosen_index]

    @property
    def alternative_probabilities(self) -> List[float]:
        return [float(p) for i, p in enumerate(self.probabilities) if i != self.chosen_index]


def _sample(log_probs: Tensor, rng: np.random.Generator) -> Tuple[np.ndarray, int]:
    probabilities = np.exp(log_probs.data)
    probabilities = probabilities / probabilities.sum()
    return probabilities, int(rng.choice(len(probabilities), p=probabilities))


def _category_decide(agent: CategoryAgent, state, partner_hidden: Optional[Tensor],
                     history_hidden: Tensor, lstm_state: TensorLSTMState,
                     rng: np.random.Generator) -> _AutogradDecision:
    actions = agent.environment.actions(state)
    action_matrix = agent.environment.action_matrix(actions)
    user_vector = agent.environment.representations.entity_vector(state.user_entity)
    current_vector = agent.environment.representations.category_vector(state.current_category)

    logits = category_action_logits(agent.policy, user_vector, current_vector,
                                    history_hidden, action_matrix)
    log_probs = F.log_softmax(logits, axis=-1)
    entropy = -(log_probs.exp() * log_probs).sum()
    probabilities, chosen_index = _sample(log_probs, rng)
    chosen_category = actions[chosen_index]

    chosen_vector = agent.environment.representations.category_vector(chosen_category)
    new_hidden, new_lstm_state = encode_category_step(agent.policy, chosen_vector,
                                                      partner_hidden, lstm_state)
    return _AutogradDecision(chosen_index, chosen_category, log_probs[chosen_index],
                             entropy, new_hidden, new_lstm_state, actions, probabilities)


def _entity_decide(agent: EntityAgent, state, last_relation: Relation,
                   partner_hidden: Optional[Tensor], history_hidden: Tensor,
                   lstm_state: TensorLSTMState, rng: np.random.Generator,
                   guided_category: Optional[int]) -> _AutogradDecision:
    actions = agent.environment.actions(state, target_category=guided_category)
    action_matrix = agent.environment.action_matrix(actions)
    entity_vector = agent.environment.representations.entity_vector(state.current_entity)
    relation_vector = agent.environment.representations.relation_vector(last_relation)

    logits = entity_action_logits(agent.policy, entity_vector, relation_vector,
                                  history_hidden, action_matrix)
    target_categories = action_target_categories(
        agent.environment.graph, np.array([target for _, target in actions], dtype=np.int64))
    bonus = agent.guidance.guidance_bonus(target_categories, guided_category)
    guided_logits = logits + Tensor(bonus)

    log_probs = F.log_softmax(guided_logits, axis=-1)
    entropy = -(log_probs.exp() * log_probs).sum()
    probabilities, chosen_index = _sample(log_probs, rng)
    chosen_action = actions[chosen_index]

    chosen_relation_vector = agent.environment.representations.relation_vector(
        chosen_action[0])
    chosen_entity_vector = agent.environment.representations.entity_vector(chosen_action[1])
    new_hidden, new_lstm_state = encode_entity_step(
        agent.policy, chosen_relation_vector, chosen_entity_vector, partner_hidden,
        lstm_state)
    return _AutogradDecision(chosen_index, chosen_action, log_probs[chosen_index], entropy,
                             new_hidden, new_lstm_state, actions, probabilities,
                             base_logits=np.array(logits.data, copy=True),
                             target_categories=target_categories)


class ReferenceDARLTrainer(DARLTrainer):
    """A :class:`DARLTrainer` whose episodes build and walk an autograd graph.

    Same configuration, environments, random streams, policy and optimiser
    as the fused trainer; only the episode differs: the log-probabilities
    and entropies are ``Tensor`` s, the REINFORCE loss is assembled with
    :func:`repro.rl.reinforce.policy_gradient_loss` and differentiated by
    ``loss.backward()``.  The fused trainer must reproduce its gradients,
    histories and weights bit for bit.
    """

    def _run_training_episode(self, user_entity: int, positives: Set[int]
                              ) -> Tuple[EpisodeResult, float]:
        target_categories = {
            category for category in
            (self.graph.category_of(item) for item in positives)
            if category is not None
        }

        episode = EpisodeResult(user_id=user_entity, start_entity=user_entity)
        entity_state = self.entity_environment.initial_state(user_entity)
        entity_lstm = self.policy.entity_lstm.initial_state()
        category_lstm = self.policy.category_lstm.initial_state()

        user_vector = self.representations.entity_vector(user_entity)
        entity_hidden, entity_lstm = encode_entity_step(
            self.policy, self.representations.relation_vector(Relation.SELF_LOOP),
            user_vector, None, entity_lstm)

        use_dual = self.config.use_dual_agent
        category_state = None
        category_hidden = None
        if use_dual:
            start_category = self.category_environment.start_category_for(user_entity)
            category_state = self.category_environment.initial_state(user_entity, start_category)
            category_hidden, category_lstm = encode_category_step(
                self.policy, self.representations.category_vector(start_category), None,
                category_lstm)

        entity_log_probs: List[Tensor] = []
        category_log_probs: List[Tensor] = []
        entity_entropies: List[Tensor] = []
        category_entropies: List[Tensor] = []
        guidance_rewards: List[float] = []
        consistency_rewards: List[float] = []
        last_relation = Relation.SELF_LOOP

        for _ in range(self.config.max_path_length):
            guided_category: Optional[int] = None
            category_decision = None
            if use_dual:
                category_decision = _category_decide(
                    self.category_agent, category_state, entity_hidden, category_hidden,
                    category_lstm, self.rng)
                guided_category = category_decision.choice

            entity_decision = _entity_decide(
                self.entity_agent, entity_state, last_relation, category_hidden,
                entity_hidden, entity_lstm, self.rng, guided_category)

            if use_dual and self.config.use_collaborative_rewards:
                step_guidance = self.guidance.kl_guidance_reward(
                    entity_decision.base_logits, entity_decision.target_categories,
                    category_decision.choice,
                    category_decision.alternative_categories,
                    category_decision.alternative_probabilities)
            else:
                step_guidance = 0.0

            next_entity_state = self.entity_environment.step(entity_state,
                                                             entity_decision.choice)
            if use_dual:
                next_category_state = self.category_environment.step(
                    category_state, category_decision.choice)
                if self.config.use_collaborative_rewards:
                    step_consistency = consistency_reward(
                        self.category_environment.state_vector(next_category_state),
                        self.entity_environment.state_vector(next_entity_state))
                else:
                    step_consistency = 0.0
            else:
                next_category_state = None
                step_consistency = 0.0

            guidance_rewards.append(step_guidance)
            consistency_rewards.append(step_consistency)
            entity_log_probs.append(entity_decision.log_prob)
            entity_entropies.append(entity_decision.entropy)
            if use_dual:
                category_log_probs.append(category_decision.log_prob)
                category_entropies.append(category_decision.entropy)

            episode.entity_steps.append(EntityStep(
                entity_id=entity_decision.choice[1],
                relation=entity_decision.choice[0],
                log_prob=entity_decision.log_prob.item()))
            if use_dual:
                episode.category_steps.append(CategoryStep(
                    category_id=category_decision.choice,
                    log_prob=category_decision.log_prob.item()))

            entity_state = next_entity_state
            last_relation = entity_decision.choice[0]
            entity_hidden = entity_decision.new_hidden
            entity_lstm = entity_decision.new_lstm_state
            if use_dual:
                category_state = next_category_state
                category_hidden = category_decision.new_hidden
                category_lstm = category_decision.new_lstm_state

        terminal_entity = self.entity_environment.terminal_reward(entity_state, positives)
        terminal_category = (
            self.category_environment.terminal_reward(category_state, target_categories)
            if use_dual else 0.0)

        rewards = collaborative_rewards(
            terminal_category=terminal_category,
            terminal_entity=terminal_entity,
            guidance=guidance_rewards,
            consistency=consistency_rewards,
            alpha_pe=self.config.alpha_pe if self.config.use_collaborative_rewards else 0.0,
            alpha_pc=self.config.alpha_pc if self.config.use_collaborative_rewards else 0.0,
        )
        for step, reward in zip(episode.entity_steps, rewards["entity"]):
            step.reward = reward
        for step, reward in zip(episode.category_steps, rewards["category"]):
            step.reward = reward

        category_reward_stream = rewards["category"] if category_log_probs else []
        entity_loss = policy_gradient_loss(entity_log_probs, rewards["entity"],
                                           self.reinforce_config, self._entity_baseline,
                                           entropies=entity_entropies)
        category_loss = policy_gradient_loss(category_log_probs, category_reward_stream,
                                             self.reinforce_config, self._category_baseline,
                                             entropies=category_entropies)
        if entity_loss is None and category_loss is None:
            return episode, float("nan")
        if entity_loss is None:
            total = category_loss
        elif category_loss is None:
            total = entity_loss
        else:
            total = entity_loss + category_loss
        return episode, apply_update(total, self.policy.parameters(), self.optimiser,
                                     self.reinforce_config)


# --------------------------------------------------------------------------- #
# autograd CGGNN training step (pre-fusion CGGNN.forward + loss.backward())
# --------------------------------------------------------------------------- #
def propagation_forward(layer: AdaptivePropagationLayer, item_states: Tensor,
                        neighbor_states: Tensor, relation_states: Tensor,
                        purchase_state: Tensor, neighbor_mask: np.ndarray,
                        neighbor_is_outgoing: np.ndarray) -> Tensor:
    """The ``Tensor`` form of :meth:`AdaptivePropagationLayer.forward` (Eq. 1-3)."""
    num_items, max_neighbors, dim = neighbor_states.shape
    item_tiled = item_states.reshape(num_items, 1, dim) * Tensor(
        np.ones((1, max_neighbors, 1)))
    purchase_tiled = purchase_state.reshape(1, 1, dim) * Tensor(
        np.ones((num_items, max_neighbors, 1)))
    triplet_input = nn.concat(
        [item_tiled, neighbor_states, relation_states, purchase_tiled], axis=-1)
    triplet_repr = F.sigmoid(layer.triplet_transform(triplet_input))
    attention = F.sigmoid(layer.attention(triplet_repr))
    mask = Tensor(neighbor_mask[..., None])
    outgoing = Tensor(neighbor_is_outgoing[..., None])
    incoming = Tensor((1.0 - neighbor_is_outgoing)[..., None])
    interaction = neighbor_states * relation_states
    message_out = layer.transform_out(interaction) * outgoing
    message_in = layer.transform_in(interaction) * incoming
    weighted = attention * mask * (message_out + message_in)
    return weighted.sum(axis=1)


def gating_forward(layer: GatedAggregationLayer, message: Tensor,
                   item_states: Tensor) -> Tensor:
    """The ``Tensor`` form of :meth:`GatedAggregationLayer.forward` (Eq. 4-7)."""
    update_gate = F.sigmoid(layer.update_from_message(message)
                            + layer.update_from_self(item_states))
    reset_gate = F.sigmoid(layer.reset_from_message(message)
                           + layer.reset_from_self(item_states))
    candidate = F.tanh(layer.candidate_from_message(message)
                       + layer.candidate_from_gated(reset_gate * item_states))
    return (1.0 - update_gate) * item_states + update_gate * candidate


def category_attention_forward(layer: CategoryAttentionLayer, item_states: Tensor,
                               category_states: Tensor,
                               category_mask: np.ndarray) -> Tensor:
    """The ``Tensor`` form of :meth:`CategoryAttentionLayer.forward` (Eq. 8-10)."""
    num_items, max_categories, dim = category_states.shape
    item_tiled = item_states.reshape(num_items, 1, dim) * Tensor(
        np.ones((1, max_categories, 1)))
    pair = nn.concat([item_tiled, category_states], axis=-1)
    scores = F.leaky_relu(layer.score_transform(pair), layer.negative_slope)
    scores = scores.reshape(num_items, max_categories)
    masked_scores = scores + Tensor((1.0 - category_mask) * _MASK_FILL)
    attention = F.softmax(masked_scores, axis=-1)
    attention = attention * Tensor(category_mask)
    normaliser = attention.sum(axis=-1, keepdims=True) + 1e-12
    attention = attention / normaliser
    weighted = category_states * attention.reshape(num_items, max_categories, 1)
    return weighted.sum(axis=1)


def cggnn_forward(model: CGGNN) -> Tensor:
    """The ``Tensor`` form of :meth:`CGGNN.forward`: the refined item matrix."""
    table = model.table
    config = model.config
    item_states = model.item_embeddings
    purchase_state = Tensor(model._static_relations[relation_index(Relation.PURCHASE)])
    relation_states = Tensor(model._static_relations[table.neighbor_relations])
    static_neighbor_states = model._static_entities[table.neighbor_entities]

    if config.use_ggnn:
        for propagation, gating in zip(model.propagation_layers, model.gating_layers):
            gathered_items = item_states.index_select(
                model._neighbor_item_positions.reshape(-1)
            ).reshape(table.num_items, table.max_neighbors, config.embedding_dim)
            is_item = Tensor(model._neighbor_is_item[..., None])
            static = Tensor(static_neighbor_states)
            neighbor_states = gathered_items * is_item + static * (1.0 - is_item)
            message = propagation_forward(propagation, item_states, neighbor_states,
                                          relation_states, purchase_state,
                                          table.neighbor_mask, table.neighbor_is_outgoing)
            item_states = gating_forward(gating, message, item_states)

    if config.use_category_attention and config.num_category_layers > 0:
        context = item_states
        category_states = model.category_table.index_select(
            table.category_ids.reshape(-1)
        ).reshape(table.num_items, table.max_categories, config.embedding_dim)
        for layer in model.category_layers:
            context = category_attention_forward(layer, context, category_states,
                                                 table.category_mask)
        item_states = item_states + config.delta * context
    return item_states


class ReferenceCGGNNTrainer(CGGNNTrainer):
    """A :class:`CGGNNTrainer` whose steps build and walk an autograd graph.

    Same model, batches, random streams, clipping and optimiser as the fused
    trainer; only the step differs: the forward pass is the ``Tensor`` graph
    of :func:`cggnn_forward` plus the BPR loss, differentiated by
    ``loss.backward()``.  The fused trainer must reproduce its gradients,
    loss histories and weights bit for bit.
    """

    def _loss_and_gradients(self, users: np.ndarray, positives: np.ndarray,
                            negatives: np.ndarray) -> float:
        item_matrix = cggnn_forward(self.model)
        purchase_vector = self.model._static_relations[relation_index(Relation.PURCHASE)]
        query_tensor = Tensor(self.model._static_entities[users] + purchase_vector)
        positive_states = item_matrix.index_select(positives)

        positive_diff = query_tensor - positive_states
        positive_scores = -(positive_diff * positive_diff).sum(axis=1)
        loss_terms = []
        for column in range(negatives.shape[1]):
            negative_states = item_matrix.index_select(negatives[:, column])
            negative_diff = query_tensor - negative_states
            negative_scores = -(negative_diff * negative_diff).sum(axis=1)
            margin = positive_scores - negative_scores
            loss_terms.append((-(margin.sigmoid().clip(1e-9, 1.0).log())).mean())
        loss = loss_terms[0]
        for term in loss_terms[1:]:
            loss = loss + term
        loss = loss * (1.0 / len(loss_terms))
        loss.backward()
        return loss.item()
