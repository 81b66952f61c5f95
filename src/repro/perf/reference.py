"""Frozen scalar reference implementations of the vectorised hot paths.

When the beam search, the milestone rollout, the pruning and the TransE
trainer were vectorised, their original one-Python-iteration-per-beam/
-user/-neighbour/-triplet implementations moved here.  They serve two purposes:

* **equivalence oracles** — ``tests/test_perf_equivalence.py`` pins the
  vectorised implementations to these references (identical top-k items and
  explanation paths, all-close embeddings, identical pruned action sets);
* **in-run benchmark baselines** — ``python -m repro bench`` measures both
  sides in the same process on the same data, so the reported speedups are
  machine-independent ratios rather than absolute timings.

Nothing in the production stack calls this module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..darl.collaborative import action_target_categories
from ..darl.inference import PathRecommender
from ..embeddings.transe import TransEConfig, TransEModel
from ..kg.graph import KnowledgeGraph
from ..kg.pruning import Action
from ..kg.relations import Relation
from ..rl.environment import EntityState
from ..rl.trajectory import RecommendationPath

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
        categories = action_target_categories(self.graph, actions)
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
