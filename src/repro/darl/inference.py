"""Beam-search inference: from a trained policy to top-k items + explanation paths.

The paper's recommendation protocol searches paths from each user and ranks
the reached items; the path itself is the explanation (Fig. 7).  This module
performs a guided beam search:

* the **category agent** rolls out one greedy milestone trajectory per user —
  a single category-level path, exactly as in training;
* the **entity agent** expands a beam of KG walks, scored by the shared policy
  with the guidance bonus towards the current milestone.

Inference never needs gradients, so it runs on the policy's NumPy fast path;
this is what the efficiency study (Table III) measures.  Every entry point
(:meth:`PathRecommender.recommend`, :meth:`~PathRecommender.recommend_many`,
serving bursts) is a batch through :meth:`PathRecommender.recommend_requests`,
and the search is *vectorised over the whole frontier*: at every depth the
candidate actions of all live beams — across all requests of a batch — are
concatenated into one ``(total_candidates, 2 * dim)`` gather from the frozen
representation tables and scored with a single policy-query matmul, instead of
one Python iteration (LSTM step, MLP, sort) per beam.  The scalar reference
implementation this replaced lives on as :class:`repro.perf.reference.
ScalarPathRecommender` and is pinned equal by the equivalence tests.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from dataclasses import dataclass

from ..cggnn.model import Representations
from ..kg.category_graph import CategoryGraph
from ..kg.graph import KnowledgeGraph
from ..kg.relations import RELATION_LIST, Relation, relation_index
from ..rl.environment import CategoryEnvironment, EntityEnvironment
from ..rl.trajectory import RecommendationPath
from .collaborative import GuidanceModel
from .shared_policy import SharedPolicyNetworks

NumpyLSTMState = Tuple[np.ndarray, np.ndarray]

_SELF_LOOP_INDEX = relation_index(Relation.SELF_LOOP)


@dataclass
class InferenceConfig:
    """Beam-search hyper-parameters."""

    beam_width: int = 20
    expansions_per_beam: int = 3
    top_k: int = 10
    min_path_length: int = 2

    def validate(self) -> None:
        if self.beam_width <= 0 or self.expansions_per_beam <= 0 or self.top_k <= 0:
            raise ValueError("beam-search sizes must be positive")
        if self.min_path_length <= 0:
            raise ValueError("min_path_length must be positive")


#: Compiled inference is used up to this many entities: beyond it the dense
#: per-depth ``(beams, num_entities)`` score table (and the precomputed
#: projection tables themselves) stop paying for themselves and the search
#: falls back to the uncompiled policy calls.
_COMPILED_MAX_ENTITIES = 4096


class _CompiledInference:
    """Frozen-policy inference tables: embeddings pre-multiplied through
    the policy weights.

    Beam search only ever feeds the entity LSTM and the query MLP with rows
    of the (frozen) representation tables, so the input-side matmuls can be
    done once per table instead of once per depth: a step's LSTM gates become
    two row gathers plus the ``hidden @ W_hh`` product, and candidate scoring
    becomes one ``(B, mlp_hidden)`` activation against score tables that
    already absorbed the output projection.  Exactly the same arithmetic as
    :class:`SharedPolicyNetworks`'s numpy fast path, re-associated.
    """

    def __init__(self, policy: SharedPolicyNetworks,
                 representations: Representations) -> None:
        dim = representations.dim
        entity_table = representations.entity
        relation_table = representations.relation

        cell = policy.entity_lstm
        weight_ih = cell.weight_ih.data            # (2*dim + h, 4h)
        self.hidden_size = cell.hidden_size
        self.lstm_relation = relation_table @ weight_ih[:dim]
        self.lstm_entity = entity_table @ weight_ih[dim:2 * dim]
        self.lstm_weight_hh = cell.weight_hh.data
        self.lstm_bias = cell.bias.data

        weight_in = policy.entity_mlp_in.weight.data    # (2*dim + h, m)
        self.query_entity = entity_table @ weight_in[:dim]
        self.query_relation = relation_table @ weight_in[dim:2 * dim]
        self.query_hidden = weight_in[2 * dim:]
        self.query_bias = policy.entity_mlp_in.bias.data

        weight_out = policy.entity_mlp_out.weight.data  # (m, 2*dim)
        bias_out = policy.entity_mlp_out.bias.data
        self.score_relation = weight_out[:, :dim] @ relation_table.T   # (m, R)
        self.score_relation_bias = bias_out[:dim] @ relation_table.T   # (R,)
        self.score_entity = weight_out[:, dim:] @ entity_table.T       # (m, N)
        self.score_entity_bias = bias_out[dim:] @ entity_table.T       # (N,)

    @classmethod
    def fits(cls, representations: Representations) -> bool:
        return representations.entity.shape[0] <= _COMPILED_MAX_ENTITIES

    def lstm_step(self, relation_idx: np.ndarray, entity_idx: np.ndarray,
                  state: NumpyLSTMState) -> Tuple[np.ndarray, NumpyLSTMState]:
        """Batched entity-LSTM step from table rows (partner share is zero
        during inference, exactly as in the uncompiled fast path)."""
        hidden, memory = state
        gates = self.lstm_relation[relation_idx] + self.lstm_entity[entity_idx]
        gates += hidden @ self.lstm_weight_hh
        gates += self.lstm_bias
        h = self.hidden_size
        sigmoid = lambda x: 1.0 / (1.0 + np.exp(-x))  # noqa: E731
        input_gate = sigmoid(gates[..., 0:h])
        forget_gate = sigmoid(gates[..., h:2 * h])
        candidate = np.tanh(gates[..., 2 * h:3 * h])
        output_gate = sigmoid(gates[..., 3 * h:4 * h])
        new_memory = forget_gate * memory + input_gate * candidate
        new_hidden = output_gate * np.tanh(new_memory)
        return new_hidden, (new_hidden, new_memory)

    def score_tables(self, entity_idx: np.ndarray, relation_idx: np.ndarray,
                     hidden: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-beam ``(relation_scores, target_scores)`` dense score tables."""
        pre = self.query_entity[entity_idx] + self.query_relation[relation_idx]
        pre += hidden @ self.query_hidden
        pre += self.query_bias
        np.maximum(pre, 0.0, out=pre)
        relation_scores = pre @ self.score_relation + self.score_relation_bias
        target_scores = pre @ self.score_entity + self.score_entity_bias
        return relation_scores, target_scores


@dataclass
class _Frontier:
    """The live beams of one batched search, in struct-of-arrays form.

    Beams are kept grouped by query slot (ascending), and within one query
    sorted by descending cumulative log-probability — the invariant the
    per-depth pruning re-establishes, matching the scalar implementation's
    per-beam list order.
    """

    query: np.ndarray       # int64 (B,)  — index into the query batch
    entity: np.ndarray      # int64 (B,)  — current entity of each beam
    relation: np.ndarray    # int64 (B,)  — relation index of the last hop
    log_prob: np.ndarray    # float64 (B,)
    hidden: np.ndarray      # float64 (B, hidden_size)
    lstm: NumpyLSTMState    # float64 (B, hidden_size) pair
    hops: List[Tuple[Tuple[Relation, int], ...]]

    def __len__(self) -> int:
        return len(self.entity)


def _ranked(candidates: Dict[int, RecommendationPath]) -> List[RecommendationPath]:
    """One search's candidate paths, best score first."""
    return sorted(candidates.values(), key=lambda path: path.score, reverse=True)


class PathRecommender:
    """Turns a trained policy into ranked recommendations with explanations."""

    def __init__(self, graph: KnowledgeGraph, category_graph: CategoryGraph,
                 representations: Representations, policy: SharedPolicyNetworks,
                 guidance: Optional[GuidanceModel] = None,
                 max_path_length: int = 6, max_entity_actions: int = 50,
                 max_category_actions: int = 10, use_dual_agent: bool = True,
                 config: Optional[InferenceConfig] = None,
                 milestone_cache_limit: int = 16384) -> None:
        self.graph = graph
        self.representations = representations
        self.policy = policy
        self.guidance = guidance or GuidanceModel()
        self.max_path_length = max_path_length
        self.use_dual_agent = use_dual_agent
        self.config = config or InferenceConfig()
        self.config.validate()
        if max_path_length <= 0:
            raise ValueError("max_path_length must be positive")
        if self.config.min_path_length > max_path_length:
            raise ValueError(
                f"min_path_length ({self.config.min_path_length}) cannot exceed "
                f"max_path_length ({max_path_length}); such a configuration can "
                "never emit a recommendation")
        if milestone_cache_limit <= 0:
            raise ValueError("milestone_cache_limit must be positive")
        # Per-user greedy milestone trajectories.  The trajectory only depends
        # on the (frozen) policy and representations, so it is safe to reuse
        # across recommend/find_paths calls; every search seeds it with one
        # batched rollout for its missing users.  LRU-bounded so a long-lived
        # serving process does not grow it one entry per distinct user forever.
        self.milestone_cache: "OrderedDict[int, List[Optional[int]]]" = OrderedDict()
        self.milestone_cache_limit = milestone_cache_limit
        # Lazily compiled inference tables (policy weights folded through the
        # frozen representation tables); None until first use or when the
        # entity table is too large for the dense tables to pay off.
        self._compiled: Optional[_CompiledInference] = None
        self._compiled_checked = False
        self.entity_environment = EntityEnvironment(graph, representations,
                                                    max_actions=max_entity_actions)
        self.category_environment = CategoryEnvironment(category_graph, graph, representations,
                                                        max_actions=max_category_actions)

    @classmethod
    def like(cls, source: "PathRecommender", *,
             graph: Optional[KnowledgeGraph] = None,
             category_graph: Optional[CategoryGraph] = None,
             representations: Optional[Representations] = None) -> "PathRecommender":
        """A fresh recommender with ``source``'s search settings.

        Same policy and guidance objects, path length cap, action caps,
        dual-agent switch, :class:`InferenceConfig` and milestone cache limit,
        but its own milestone and action caches.  The tables default to
        ``source``'s.  Every serving replica (cluster shard, scaled-up shard,
        live generation) is built here, so replicas over the same tables
        answer bit-identically.
        """
        return cls(source.graph if graph is None else graph,
                   (source.category_environment.category_graph
                    if category_graph is None else category_graph),
                   source.representations if representations is None else representations,
                   source.policy, guidance=source.guidance,
                   max_path_length=source.max_path_length,
                   max_entity_actions=source.entity_environment.max_actions,
                   max_category_actions=source.category_environment.max_actions,
                   use_dual_agent=source.use_dual_agent,
                   config=source.config,
                   milestone_cache_limit=source.milestone_cache_limit)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def recommend(self, user_entity: int, exclude_items: Optional[Set[int]] = None,
                  top_k: Optional[int] = None) -> List[RecommendationPath]:
        """Top-k recommended items for a user, each with its best explanation path."""
        return self.recommend_requests([(user_entity, exclude_items or set(), top_k)])[0]

    def recommend_many(self, user_entities: Sequence[int],
                       exclude_items: Optional[Dict[int, Set[int]]] = None,
                       top_k: Optional[int] = None) -> Dict[int, List[RecommendationPath]]:
        """Batched :meth:`recommend`: ``{user: top-k paths}`` per distinct user."""
        exclude_items = exclude_items or {}
        users = list(dict.fromkeys(user_entities))
        found = self.recommend_requests([(user, exclude_items.get(user, set()), top_k)
                                         for user in users])
        return dict(zip(users, found))

    def recommend_requests(self, requests: Sequence[Tuple[int, Set[int], Optional[int]]]
                           ) -> List[List[RecommendationPath]]:
        """Batched searches for ``(user, exclude_items, top_k)`` triples.

        The single search entry point: one frontier search per request slot
        (so the same user may appear twice with different exclusions), all
        advanced in lock-step after one batched milestone rollout for the
        users missing from the cache.  ``top_k=None`` means ``config.top_k``;
        a non-positive ``top_k`` raises :class:`ValueError`.
        """
        limits = [self.config.top_k if top_k is None else top_k
                  for _, _, top_k in requests]
        if any(limit <= 0 for limit in limits):
            raise ValueError(f"top_k must be positive, got {min(limits)}")
        if not requests:
            return []
        self.warm_milestones([user for user, _, _ in requests])
        queries = [(user, exclude_items, self.category_milestones(user))
                   for user, exclude_items, _ in requests]
        found = self._search_frontier(queries, keep_all_paths=False)
        return [_ranked(candidates)[:limit] for candidates, limit in zip(found, limits)]

    def find_paths(self, user_entity: int, num_paths: int) -> List[RecommendationPath]:
        """Enumerate up to ``num_paths`` item-terminated paths (efficiency metric).

        This is the "path finding" workload of Table III: raw path discovery
        without the top-k ranking step.
        """
        query = (user_entity, set(), self.category_milestones(user_entity))
        return _ranked(self._search_frontier([query], keep_all_paths=True)[0])[:num_paths]

    # ------------------------------------------------------------------ #
    # category milestone trajectory (one per user, greedy)
    # ------------------------------------------------------------------ #
    def category_milestones(self, user_entity: int) -> List[Optional[int]]:
        """Cached greedy milestone trajectory for ``user_entity``.

        The trajectory is deterministic given the frozen policy, so repeated
        searches for the same user (warm-up, batched serving, find_paths after
        recommend) skip the category-agent rollout entirely.
        """
        if user_entity in self.milestone_cache:
            self.milestone_cache.move_to_end(user_entity)
        else:
            self.warm_milestones([user_entity])
        return self.milestone_cache[user_entity]

    def store_milestones(self, user_entity: int,
                         milestones: List[Optional[int]]) -> None:
        """Insert one trajectory, evicting least-recently-used beyond the limit."""
        self.milestone_cache[user_entity] = milestones
        self.milestone_cache.move_to_end(user_entity)
        while len(self.milestone_cache) > self.milestone_cache_limit:
            self.milestone_cache.popitem(last=False)

    def clear_milestone_cache(self) -> None:
        """Drop all cached milestone trajectories."""
        self.milestone_cache.clear()

    def warm_milestones(self, user_entities: Sequence[int]) -> int:
        """Batch-compute milestone trajectories for users missing from the cache.

        Returns the number of users actually rolled out; users already cached
        (or duplicated within ``user_entities``) cost nothing.
        """
        missing = [user for user in dict.fromkeys(user_entities)
                   if user not in self.milestone_cache]
        for user, milestones in self._batched_category_milestones(missing).items():
            self.store_milestones(user, milestones)
        return len(missing)

    def _batched_category_milestones(self, users: Sequence[int]
                                     ) -> Dict[int, List[Optional[int]]]:
        """Greedy milestone trajectories for many users in one vectorised rollout.

        The LSTM history encoding and the policy-query MLP run for the whole
        batch at once; only the per-user action enumeration and argmax stay in
        Python (the action sets have different sizes per user).  A batch of
        one reproduces the scalar rollout kept in :mod:`repro.perf.reference`.
        """
        users = list(dict.fromkeys(users))
        length = self.max_path_length
        if not users:
            return {}
        if not self.use_dual_agent:
            return {user: [None] * length for user in users}

        environment = self.category_environment
        policy = self.policy
        representations = self.representations

        starts = [environment.start_category_for(user) for user in users]
        states = [environment.initial_state(user, start)
                  for user, start in zip(users, starts)]
        user_vectors = representations.entity[users]
        # Each step encodes the category the walk stands on (the start, then
        # the previous choice) before scoring the next move; the last choice
        # is never scored against, so it is never encoded.
        current = representations.category[starts]
        hidden, lstm_state = None, policy.initial_state_numpy(batch_size=len(users))

        milestones: Dict[int, List[Optional[int]]] = {user: [] for user in users}
        for _ in range(length):
            hidden, lstm_state = policy.encode_category_step_numpy(current, hidden,
                                                                   lstm_state)
            queries = policy.category_query_numpy(user_vectors, current, hidden)
            chosen: List[int] = []
            for index, state in enumerate(states):
                actions = environment.actions(state)
                logits = environment.action_matrix(actions) @ queries[index]
                category = actions[int(np.argmax(logits))]
                chosen.append(category)
                milestones[users[index]].append(category)
                states[index] = environment.step(state, category)
            current = representations.category[chosen]
        return milestones

    # ------------------------------------------------------------------ #
    # vectorised beam search over the entity-level KG
    # ------------------------------------------------------------------ #
    def _compiled_inference(self) -> Optional[_CompiledInference]:
        """The compiled inference tables, or ``None`` on oversized graphs."""
        if not self._compiled_checked:
            self._compiled_checked = True
            if _CompiledInference.fits(self.representations):
                self._compiled = _CompiledInference(self.policy, self.representations)
        return self._compiled

    def _initial_frontier(self, queries: Sequence[Tuple[int, Set[int],
                                                        List[Optional[int]]]]
                          ) -> _Frontier:
        """One root beam per query, history seeded with the user self-loop hop."""
        users = np.array([user for user, _, _ in queries], dtype=np.int64)
        batch = len(users)
        relation_indices = np.full(batch, _SELF_LOOP_INDEX, dtype=np.int64)
        compiled = self._compiled_inference()
        if compiled is not None:
            hidden, lstm = compiled.lstm_step(
                relation_indices, users,
                self.policy.initial_state_numpy(batch_size=batch))
        else:
            hidden, lstm = self.policy.encode_entity_step_numpy(
                np.broadcast_to(self.representations.relation[_SELF_LOOP_INDEX],
                                (batch, self.representations.dim)),
                self.representations.entity[users], None,
                self.policy.initial_state_numpy(batch_size=batch))
        return _Frontier(query=np.arange(batch, dtype=np.int64), entity=users,
                         relation=relation_indices,
                         log_prob=np.zeros(batch), hidden=hidden, lstm=lstm,
                         hops=[() for _ in range(batch)])

    def _candidate_actions(self, frontier: _Frontier, users: np.ndarray,
                           guided: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated candidate actions of every live beam.

        Returns ``(relations, targets, beam_of, segment_lengths)`` where the
        first three are parallel arrays over all candidates.  Only the cached
        per-``(entity, milestone)`` array lookups stay in Python; the per-user
        return-to-user ban is one vectorised mask over the concatenation (the
        caches stay user-agnostic).
        """
        action_arrays = self.entity_environment.action_arrays
        beam_count = len(frontier)
        relation_chunks: List[np.ndarray] = []
        target_chunks: List[np.ndarray] = []
        lengths = np.zeros(beam_count, dtype=np.int64)
        entities = frontier.entity.tolist()
        categories = guided.tolist()
        # Per-call memo: a large frontier revisits the same (entity, milestone)
        # pair many times; skip even the LRU bookkeeping for repeats.
        memo: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        for index, key in enumerate(zip(entities, categories)):
            chunk = memo.get(key)
            if chunk is None:
                entity, category = key
                chunk = action_arrays(entity, category if category >= 0 else None)
                memo[key] = chunk
            relation_chunks.append(chunk[0])
            target_chunks.append(chunk[1])
            lengths[index] = len(chunk[1])
        relations = np.concatenate(relation_chunks).astype(np.int64)
        targets = np.concatenate(target_chunks).astype(np.int64)
        beam_of = np.repeat(np.arange(beam_count, dtype=np.int64), lengths)

        # Ban hops back to the query's user (unless the beam sits on the user).
        user_of = users[frontier.query[beam_of]]
        banned = (targets == user_of) & (frontier.entity[beam_of] != user_of)
        if banned.any():
            keep = ~banned
            relations, targets, beam_of = (relations[keep], targets[keep],
                                           beam_of[keep])
            lengths = np.bincount(beam_of, minlength=beam_count)
        return relations, targets, beam_of, lengths

    def _search_frontier(self, queries: Sequence[Tuple[int, Set[int],
                                                       List[Optional[int]]]],
                         keep_all_paths: bool) -> List[Dict[int, RecommendationPath]]:
        """Run all queries' beam searches in lock-step, one score call per depth.

        Each query is ``(user_entity, exclude_items, milestones)``.  Returns
        one ``{key: RecommendationPath}`` dict per query (keyed by item for
        deduplicated search, by running index with ``keep_all_paths``).
        """
        representations = self.representations
        policy = self.policy
        adjacency = self.graph.adjacency()
        compiled = self._compiled_inference()
        strength = self.guidance.strength
        beam_width = self.config.beam_width
        expansions = self.config.expansions_per_beam

        users = np.array([user for user, _, _ in queries], dtype=np.int64)
        # Milestones as ints with -1 standing in for "no guidance".
        guided_by_depth = np.full((self.max_path_length, len(queries)), -1,
                                  dtype=np.int64)
        for slot, (_, _, milestones) in enumerate(queries):
            # Extra trailing entries are ignored, like the scalar search did.
            for depth, milestone in enumerate(milestones[:self.max_path_length]):
                if milestone is not None:
                    guided_by_depth[depth, slot] = milestone

        frontier = self._initial_frontier(queries)
        found: List[Dict[int, RecommendationPath]] = [{} for _ in queries]

        for depth in range(1, self.max_path_length + 1):
            guided = guided_by_depth[depth - 1][frontier.query]
            relations, targets, beam_of, lengths = self._candidate_actions(
                frontier, users, guided)
            if len(targets) == 0:
                break

            # One policy call for every live beam:
            # logits[i] = action_vector(i) · query(beam_of[i]), with the query
            # split into its relation and target halves so every logit is two
            # scalar gathers out of dense per-beam score tables.  With
            # compiled inference the tables come straight out of the folded
            # projection matrices; otherwise the relation half is a dense
            # (B, num_relations) product and the target half is dense up to a
            # size heuristic, falling back to a per-candidate einsum on large
            # graphs where the dense rectangle would not pay for itself.
            if compiled is not None:
                relation_scores, target_scores = compiled.score_tables(
                    frontier.entity, frontier.relation, frontier.hidden)
                logits = (relation_scores[beam_of, relations]
                          + target_scores[beam_of, targets])
            else:
                queries_matrix = policy.entity_query_numpy(
                    representations.entity[frontier.entity],
                    representations.relation[frontier.relation],
                    frontier.hidden)
                dim = representations.dim
                relation_queries = queries_matrix[:, :dim]
                target_queries = queries_matrix[:, dim:]
                relation_scores = relation_queries @ representations.relation.T
                num_entities = representations.entity.shape[0]
                if len(frontier) * num_entities <= 32 * len(targets):
                    target_scores = target_queries @ representations.entity.T
                    logits = (relation_scores[beam_of, relations]
                              + target_scores[beam_of, targets])
                else:
                    logits = (relation_scores[beam_of, relations]
                              + np.einsum("ij,ij->i",
                                          representations.entity[targets],
                                          target_queries[beam_of]))
            guided_of_candidate = guided[beam_of]
            logits = logits + strength * (
                (adjacency.entity_category[targets] == guided_of_candidate)
                & (guided_of_candidate >= 0))

            # Per-beam log-softmax + top expansions on a padded (B, max_len)
            # matrix; padding scores -inf so it never wins.
            starts = np.zeros(len(frontier), dtype=np.int64)
            np.cumsum(lengths[:-1], out=starts[1:])
            columns = np.arange(len(targets), dtype=np.int64) - starts[beam_of]
            padded = np.full((len(frontier), int(lengths.max())), -np.inf)
            padded[beam_of, columns] = logits
            shifted = padded - padded.max(axis=1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

            if log_probs.shape[1] > expansions:
                # Top-e per row: O(n) partition, then sort just the e winners.
                rows = np.arange(len(frontier))[:, None]
                part = np.argpartition(-log_probs, expansions - 1,
                                       axis=1)[:, :expansions]
                order = part[rows, np.argsort(-log_probs[rows, part], axis=1)]
            else:
                order = np.argsort(-log_probs, axis=1)[:, :expansions]
            valid = (order < lengths[:, None]).ravel()
            parent = np.repeat(np.arange(len(frontier), dtype=np.int64),
                               order.shape[1])[valid]
            column = order.ravel()[valid]
            if len(parent) == 0:
                break
            flat = starts[parent] + column
            child_relation = relations[flat]
            child_target = targets[flat]
            child_total = frontier.log_prob[parent] + log_probs[parent, column]
            child_query = frontier.query[parent]

            # Per-query pruning to beam_width: stable sort by (query asc,
            # score desc), then keep each query's first beam_width children.
            ranked = np.lexsort((np.arange(len(child_total)), -child_total,
                                 child_query))
            counts = np.bincount(child_query, minlength=len(queries))
            block_starts = np.zeros(len(queries), dtype=np.int64)
            np.cumsum(counts[:-1], out=block_starts[1:])
            within_block = np.arange(len(ranked)) - block_starts[child_query[ranked]]
            keep = ranked[within_block < beam_width]

            survivors_parent = parent[keep]
            hops = [frontier.hops[p] + ((RELATION_LIST[r], int(t)),)
                    for p, r, t in zip(survivors_parent.tolist(),
                                       child_relation[keep].tolist(),
                                       child_target[keep].tolist())]
            if depth < self.max_path_length:
                # Advance the history encoder for the surviving beams; at the
                # final depth the hidden states are never read again, so the
                # (batched) LSTM step is skipped outright.
                parent_state = (frontier.lstm[0][survivors_parent],
                                frontier.lstm[1][survivors_parent])
                if compiled is not None:
                    hidden, lstm = compiled.lstm_step(
                        child_relation[keep], child_target[keep], parent_state)
                else:
                    hidden, lstm = policy.encode_entity_step_numpy(
                        representations.relation[child_relation[keep]],
                        representations.entity[child_target[keep]], None,
                        parent_state)
            else:
                hidden, lstm = frontier.hidden, frontier.lstm
            frontier = _Frontier(query=child_query[keep],
                                 entity=child_target[keep],
                                 relation=child_relation[keep],
                                 log_prob=child_total[keep],
                                 hidden=hidden, lstm=lstm, hops=hops)

            if depth >= self.config.min_path_length:
                self._collect(frontier, queries, adjacency, found, keep_all_paths)
        return found

    def _collect(self, frontier: _Frontier,
                 queries: Sequence[Tuple[int, Set[int], List[Optional[int]]]],
                 adjacency, found: List[Dict[int, RecommendationPath]],
                 keep_all_paths: bool) -> None:
        """Record every beam whose endpoint is a recommendable item."""
        is_item = adjacency.is_item[frontier.entity]
        for index in np.flatnonzero(is_item).tolist():
            slot = int(frontier.query[index])
            entity = int(frontier.entity[index])
            user, exclude_items, _ = queries[slot]
            if entity in exclude_items:
                continue
            score = float(frontier.log_prob[index])
            bucket = found[slot]
            key = entity if not keep_all_paths else len(bucket)
            existing = bucket.get(key)
            if existing is not None and score <= existing.score:
                continue
            bucket[key] = RecommendationPath(user_entity=int(user),
                                             item_entity=entity,
                                             hops=frontier.hops[index],
                                             score=score)
