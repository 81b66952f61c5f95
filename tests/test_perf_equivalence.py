"""Vectorised ≡ scalar equivalence, CSR adjacency, cache bounds, bench harness.

The vectorised hot paths (CSR pruning, frontier beam search, fast TransE,
the fused DARL training episode, the fused CGGNN training step, the numpy
single-agent baselines, the vectorised KL guidance reward, and the training
kernels under them: the flat Adam, the per-update gradient contraction, the
action sampler and the threaded CGGNN weight gradients) must be
*behaviour-preserving* rewrites: every test here pins them against either
the frozen references in :mod:`repro.perf.reference` or the list-based
originals that remain in the codebase.  DARL, CGGNN and single-agent
training are pinned bit for bit: gradients, histories and weights equal the
autograd reference exactly.
"""

from __future__ import annotations

import gc
import json
import os
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import nn
from repro.baselines import SingleAgentConfig
from repro.baselines.rl_single import (
    ADACRecommender,
    CogERRecommender,
    PGPRRecommender,
    UCPRRecommender,
)
from repro.blas import blas_fingerprint, blas_threads
from repro.cggnn import (
    CGGNN,
    CGGNNConfig,
    CGGNNTrainer,
    CGGNNTrainingConfig,
    train_cggnn,
    warm_start_cggnn,
)
from repro.cggnn import propagation
from repro.cggnn.model import StepBuffers
from repro.cggnn.propagation import GradientSink
from repro.darl.collaborative import GuidanceModel
from repro.darl.inference import InferenceConfig, PathRecommender
from repro.darl.trainer import DARLConfig, DARLTrainer
from repro.darl.shared_policy import (GradientFactors, PolicyConfig, SharedPolicyNetworks,
                                     sample_index)
from repro.embeddings import TransEConfig, train_transe
from repro.kg import (
    Relation,
    category_guided_prune_arrays,
    degree_prune_arrays,
    ensure_self_loop_arrays,
    entity_prune_rng,
    relation_from_index,
    relation_index,
)
from repro.perf import (
    BenchProfile,
    ScalarPathRecommender,
    compare_with_baseline,
    train_transe_reference,
    write_bench_json,
)
from repro.nn import Tensor
from repro.live import UpdateLog, synthesize_deltas
from repro.perf.reference import (
    ReferenceCGGNNTrainer,
    ReferenceDARLTrainer,
    ReferenceSingleAgent,
    category_guided_prune,
    cggnn_forward,
    degree_prune,
)
from repro.rl.environment import EntityEnvironment, LRUCache
from repro.nn.functional import kl_divergence
from repro.rl.rewards import guidance_reward
from repro.serving import RecommendationService, ServingConfig, ServingTier


# --------------------------------------------------------------------------- #
# shared recommender pair
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def recommender_pair(tiny_kg, tiny_representations):
    graph, category_graph, builder = tiny_kg
    policy = SharedPolicyNetworks(PolicyConfig(embedding_dim=16, seed=0))
    kwargs = dict(max_path_length=4,
                  config=InferenceConfig(beam_width=8, expansions_per_beam=3,
                                         top_k=5, min_path_length=2))
    vectorised = PathRecommender(graph, category_graph, tiny_representations,
                                 policy, **kwargs)
    scalar = ScalarPathRecommender(graph, category_graph, tiny_representations,
                                   policy, **kwargs)
    return vectorised, scalar, builder


def _path_key(path):
    return (path.item_entity, path.hops)


class TestBeamSearchEquivalence:
    def test_topk_items_and_paths_identical(self, recommender_pair):
        vectorised, scalar, builder = recommender_pair
        for user_id in range(20):
            user = builder.user_to_entity(user_id)
            fast = vectorised.recommend(user)
            slow = scalar.recommend(user)
            assert [_path_key(p) for p in fast] == [_path_key(p) for p in slow]
            assert np.allclose([p.score for p in fast], [p.score for p in slow])

    def test_find_paths_identical(self, recommender_pair):
        vectorised, scalar, builder = recommender_pair
        user = builder.user_to_entity(3)
        fast = vectorised.find_paths(user, 12)
        slow = scalar.find_paths(user, 12)
        assert [_path_key(p) for p in fast] == [_path_key(p) for p in slow]

    def test_exclusions_respected_identically(self, recommender_pair):
        vectorised, scalar, builder = recommender_pair
        user = builder.user_to_entity(1)
        top = vectorised.recommend(user)
        assert top
        excluded = {top[0].item_entity}
        fast = vectorised.recommend(user, exclude_items=excluded)
        slow = scalar.recommend(user, exclude_items=excluded)
        assert all(p.item_entity not in excluded for p in fast)
        assert [_path_key(p) for p in fast] == [_path_key(p) for p in slow]

    def test_scalar_like_is_a_scalar_twin(self, recommender_pair):
        vectorised, _, builder = recommender_pair
        twin = ScalarPathRecommender.like(vectorised)
        assert type(twin) is ScalarPathRecommender
        for user_id in range(6):
            user = builder.user_to_entity(user_id)
            assert ([_path_key(p) for p in twin.recommend(user)]
                    == [_path_key(p) for p in vectorised.recommend(user)])

    def test_batch_equals_single(self, recommender_pair):
        vectorised, _, builder = recommender_pair
        users = [builder.user_to_entity(u) for u in range(10)]
        # Same milestone source for both paths: warm the cache first.
        for user in users:
            vectorised.category_milestones(user)
        batch = vectorised.recommend_many(users)
        for user in users:
            single = vectorised.recommend(user)
            assert [_path_key(p) for p in batch[user]] == \
                [_path_key(p) for p in single]

    def test_recommend_requests_per_slot_topk(self, recommender_pair):
        vectorised, _, builder = recommender_pair
        users = [builder.user_to_entity(u) for u in range(4)]
        results = vectorised.recommend_requests(
            [(user, set(), k) for user, k in zip(users, (1, 2, 3, 4))])
        for paths, expected_k, user in zip(results, (1, 2, 3, 4), users):
            assert len(paths) <= expected_k
            full = vectorised.recommend(user, top_k=expected_k)
            assert [_path_key(p) for p in paths] == [_path_key(p) for p in full]


class TestTransEEquivalence:
    def test_same_seed_embeddings_allclose(self, tiny_kg):
        graph, _, _ = tiny_kg
        config = TransEConfig(embedding_dim=16, epochs=6, seed=0)
        fast, fast_losses = train_transe(graph, config)
        slow, slow_losses = train_transe_reference(graph, config)
        np.testing.assert_allclose(fast.entity_embeddings, slow.entity_embeddings,
                                   atol=1e-10)
        np.testing.assert_allclose(fast.relation_embeddings,
                                   slow.relation_embeddings, atol=1e-10)
        np.testing.assert_allclose(fast_losses, slow_losses, atol=1e-10)

    def test_different_seeds_differ(self, tiny_kg):
        graph, _, _ = tiny_kg
        one, _ = train_transe(graph, TransEConfig(embedding_dim=16, epochs=2, seed=0))
        two, _ = train_transe(graph, TransEConfig(embedding_dim=16, epochs=2, seed=9))
        assert not np.allclose(one.entity_embeddings, two.entity_embeddings)


class TestPruningEquivalence:
    def test_degree_prune_matches_csr(self, tiny_kg):
        graph, _, _ = tiny_kg
        adjacency = graph.adjacency()
        for entity in range(graph.num_entities):
            for max_actions in (2, 5, 1000):
                expected = degree_prune(graph, entity, max_actions)
                relations, targets = degree_prune_arrays(adjacency, entity,
                                                         max_actions)
                actual = [(relation_from_index(r), t)
                          for r, t in zip(relations.tolist(), targets.tolist())]
                assert actual == expected

    def test_degree_prune_with_rng_matches_csr(self, tiny_kg):
        graph, _, _ = tiny_kg
        adjacency = graph.adjacency()
        for entity in range(0, graph.num_entities, 7):
            expected = degree_prune(graph, entity, 3,
                                    rng=entity_prune_rng(42, entity))
            relations, targets = degree_prune_arrays(
                adjacency, entity, 3, rng=entity_prune_rng(42, entity))
            actual = [(relation_from_index(r), t)
                      for r, t in zip(relations.tolist(), targets.tolist())]
            assert actual == expected

    def test_category_guided_prune_matches_csr(self, tiny_kg):
        graph, _, _ = tiny_kg
        adjacency = graph.adjacency()
        categories = list(range(graph.num_categories)) + [None]
        for entity in range(0, graph.num_entities, 3):
            for category in categories:
                for max_actions in (3, 8):
                    expected = category_guided_prune(graph, entity, max_actions,
                                                     category)
                    relations, targets = category_guided_prune_arrays(
                        adjacency, entity, max_actions, category)
                    actual = [(relation_from_index(r), t)
                              for r, t in zip(relations.tolist(),
                                              targets.tolist())]
                    assert actual == expected

    def test_ensure_self_loop_arrays(self):
        relations = np.array([relation_index(Relation.PURCHASE)], dtype=np.int32)
        targets = np.array([7], dtype=np.int32)
        out_relations, out_targets = ensure_self_loop_arrays((relations, targets), 3)
        assert out_targets.tolist() == [7, 3]
        assert relation_from_index(int(out_relations[-1])) is Relation.SELF_LOOP
        again = ensure_self_loop_arrays((out_relations, out_targets), 3)
        assert len(again[0]) == 2  # idempotent


# --------------------------------------------------------------------------- #
# fused DARL training ≡ autograd reference, bit for bit
# --------------------------------------------------------------------------- #
DARL_VARIANTS = {
    "dual": {},
    "single-agent": {"use_dual_agent": False},
    "no-shared-history": {"share_history": False},
    "no-collaborative-rewards": {"use_collaborative_rewards": False},
    "no-entropy-bonus": {"entropy_weight": 0.0},
}


def _darl_config(variant, seed=3, **overrides):
    return DARLConfig(**{**dict(max_path_length=4, epochs=2, hidden_size=8, mlp_hidden=16,
                                max_entity_actions=8, max_category_actions=4, seed=seed),
                         **DARL_VARIANTS[variant], **overrides})


@pytest.fixture(scope="module")
def darl_users(tiny_kg):
    graph, _, builder = tiny_kg
    users = {}
    for user_id in range(30):
        user = builder.user_to_entity(user_id)
        items = graph.purchased_items(user)
        if items:
            users[user] = items
    return users


class TestDARLTrainingEquivalence:
    @pytest.mark.parametrize("variant", sorted(DARL_VARIANTS))
    def test_gradients_bit_identical_per_episode(self, variant, tiny_kg,
                                                 tiny_representations, darl_users):
        graph, category_graph, _ = tiny_kg
        fused = DARLTrainer(graph, category_graph, tiny_representations,
                            _darl_config(variant))
        reference = ReferenceDARLTrainer(graph, category_graph, tiny_representations,
                                         _darl_config(variant))
        episodes = list(darl_users.items())[:24]
        assert len(episodes) >= 20
        for user, items in episodes:
            fused_episode, fused_loss = fused._run_training_episode(user, set(items))
            reference_episode, reference_loss = reference._run_training_episode(
                user, set(items))
            assert fused_episode == reference_episode
            assert fused_loss == reference_loss
            for (name, mine), (_, theirs) in zip(fused.policy.named_parameters(),
                                                 reference.policy.named_parameters()):
                assert (mine.grad is None) == (theirs.grad is None), name
                if mine.grad is not None:
                    assert np.array_equal(mine.grad, theirs.grad), name
        if variant == "single-agent":
            assert fused.policy.category_lstm.weight_ih.grad is None

    @pytest.mark.parametrize("variant", sorted(DARL_VARIANTS))
    def test_histories_and_weights_bit_identical(self, variant, tiny_kg,
                                                 tiny_representations, darl_users):
        graph, category_graph, _ = tiny_kg
        fused = DARLTrainer(graph, category_graph, tiny_representations,
                            _darl_config(variant, seed=5))
        reference = ReferenceDARLTrainer(graph, category_graph, tiny_representations,
                                         _darl_config(variant, seed=5))
        assert fused.train(darl_users) == reference.train(darl_users)
        fused_state = fused.policy.state_dict()
        reference_state = reference.policy.state_dict()
        assert fused_state.keys() == reference_state.keys()
        for name, array in fused_state.items():
            assert np.array_equal(array, reference_state[name]), name

    def test_fused_episode_builds_no_tensors(self, tiny_kg, tiny_representations,
                                             darl_users, monkeypatch):
        graph, category_graph, _ = tiny_kg
        trainer = DARLTrainer(graph, category_graph, tiny_representations,
                              _darl_config("dual"))
        user, items = next(iter(darl_users.items()))
        created = []
        original = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            created.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        _, loss = trainer._run_training_episode(user, set(items))
        assert np.isfinite(loss)
        assert created == []
        ReferenceDARLTrainer(graph, category_graph, tiny_representations,
                             _darl_config("dual"))._run_training_episode(user, set(items))
        assert created  # the counter does see the autograd episode's tensors


# --------------------------------------------------------------------------- #
# fused CGGNN training ≡ autograd reference, bit for bit
# --------------------------------------------------------------------------- #
CGGNN_VARIANTS = {
    # Two negative columns: the loss-side gradients add up in the engine's
    # reverse-column order, as in every paper-profile run.
    "default": ({}, {"negatives_per_positive": 2}),
    "RGGNN": ({"use_ggnn": False}, {"negatives_per_positive": 2}),
    "RCGAN": ({"use_category_attention": False}, {"negatives_per_positive": 2}),
    # More multi-consumer nodes: 3 GNN hops, 2 attention hops sharing the
    # category states, 3 negative columns feeding the positive scores.
    "deep": ({"num_ggnn_layers": 3, "num_category_layers": 2},
             {"negatives_per_positive": 3}),
}


def _cggnn_pair(tiny_kg, tiny_transe, variant, seed=0):
    graph, _, _ = tiny_kg
    transe, _ = tiny_transe
    model_overrides, training_overrides = CGGNN_VARIANTS[variant]
    model_config = CGGNNConfig(**{**dict(embedding_dim=16, num_ggnn_layers=2,
                                         num_category_layers=1, max_neighbors=6,
                                         max_categories=3, seed=seed),
                                  **model_overrides})
    training = CGGNNTrainingConfig(**{**dict(epochs=3, batch_size=48,
                                             learning_rate=3e-3, seed=seed),
                                      **training_overrides})
    fused = CGGNNTrainer(CGGNN(graph, transe, model_config), graph, training)
    reference = ReferenceCGGNNTrainer(CGGNN(graph, transe, model_config), graph,
                                      training)
    return fused, reference


def _assert_same_weights(fused_model, reference_model):
    fused_state = fused_model.state_dict()
    reference_state = reference_model.state_dict()
    assert fused_state.keys() == reference_state.keys()
    for name, array in fused_state.items():
        assert np.array_equal(array, reference_state[name]), name


class TestCGGNNTrainingEquivalence:
    @pytest.mark.parametrize("variant", sorted(CGGNN_VARIANTS))
    def test_gradients_bit_identical_per_step(self, variant, tiny_kg, tiny_transe):
        fused, reference = _cggnn_pair(tiny_kg, tiny_transe, variant)
        models = (fused.model, reference.model)
        optimisers = [nn.Adam(model.parameters(), lr=3e-3, weight_decay=1e-5)
                      for model in models]
        rng = np.random.default_rng(2)
        columns = fused.config.negatives_per_positive
        for _ in range(6):
            batch = fused._pairs[rng.permutation(len(fused._pairs))[:48]]
            negatives = rng.integers(0, fused.model.table.num_items, size=(48, columns))
            for optimiser in optimisers:
                optimiser.zero_grad()
            fused_loss = fused._loss_and_gradients(batch[:, 0], batch[:, 1], negatives)
            reference_loss = reference._loss_and_gradients(batch[:, 0], batch[:, 1],
                                                           negatives)
            assert fused_loss == reference_loss
            for (name, mine), (_, theirs) in zip(fused.model.named_parameters(),
                                                 reference.model.named_parameters()):
                assert (mine.grad is None) == (theirs.grad is None), name
                if mine.grad is not None:
                    assert np.array_equal(mine.grad, theirs.grad), name
            for model, optimiser in zip(models, optimisers):
                nn.clip_grad_norm(model.parameters(), 5.0)
                optimiser.step()
        _assert_same_weights(fused.model, reference.model)
        if variant == "RGGNN":
            assert fused.model.propagation_layers[0].attention.weight.grad is None
        if variant == "RCGAN":
            assert fused.model.category_table.grad is None

    @pytest.mark.parametrize("variant", sorted(CGGNN_VARIANTS))
    def test_histories_weights_and_tables_bit_identical(self, variant, tiny_kg,
                                                         tiny_transe):
        fused, reference = _cggnn_pair(tiny_kg, tiny_transe, variant, seed=4)
        assert fused.train() == reference.train()
        _assert_same_weights(fused.model, reference.model)
        fused_tables = fused.export()
        reference_matrix = cggnn_forward(reference.model).data
        assert np.array_equal(fused_tables.entity[fused.model.table.item_ids],
                              reference_matrix)
        assert np.array_equal(fused_tables.category, reference.export().category)

    def test_warm_started_refresh_fine_tune(self, tiny_kg, tiny_transe,
                                            tiny_representations):
        graph, _, _ = tiny_kg
        transe, _ = tiny_transe
        grown = graph.copy()
        UpdateLog(synthesize_deltas(grown, 20, seed=9)).apply(grown)
        assert grown.num_entities > graph.num_entities
        grown_transe, _ = train_transe(
            grown, TransEConfig(embedding_dim=16, epochs=2, seed=3),
            initial_state=transe)
        model_config = CGGNNConfig(embedding_dim=16, num_ggnn_layers=1,
                                   num_category_layers=1, max_neighbors=6,
                                   max_categories=3, seed=0)
        training = CGGNNTrainingConfig(epochs=2, batch_size=128, seed=3)
        fused_tables, fused_losses = train_cggnn(
            grown, CGGNN(grown, grown_transe, model_config), training,
            initial_state=tiny_representations)
        reference_model = CGGNN(grown, grown_transe, model_config)
        warm_start_cggnn(reference_model, tiny_representations)
        reference = ReferenceCGGNNTrainer(reference_model, grown, training)
        assert fused_losses == reference.train()
        reference_tables = reference.export()
        for name in ("entity", "relation", "category"):
            assert np.array_equal(getattr(fused_tables, name),
                                  getattr(reference_tables, name)), name

    def test_fused_training_builds_no_tensors(self, tiny_kg, tiny_transe, monkeypatch):
        fused, reference = _cggnn_pair(tiny_kg, tiny_transe, "default")
        created = []
        original = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            created.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        losses = fused.train()
        assert np.all(np.isfinite(losses))
        fused.export()
        assert created == []
        reference.train()
        assert created  # the counter does see the autograd step's tensors


def _step_arrays(trace):
    """The buffer-held activations of one fused CGGNN step's trace."""
    hops, category_traces, _ = trace
    arrays = []
    for propagation_trace, gating_trace in hops:
        layer, gate = propagation_trace[0], gating_trace[0]
        arrays += [layer.triplet_input, layer.triplet_repr, layer.interaction,
                   layer.messages, layer.grad_hidden, gate.update_gate, gate.candidate,
                   gate.grad_update_logit]
    arrays += [layer_trace[0].pair for layer_trace in category_traces]
    return arrays


def _record_traces(model, record):
    """Wrap ``model.backward`` so every step's trace goes to ``record``."""
    backward = model.backward

    def recording(trace, grad_output, gradients):
        record(trace)
        return backward(trace, grad_output, gradients)

    model.backward = recording


class TestCGGNNStepBuffers:
    """The fused step's reused buffers: shared across steps, gone after train()."""

    def _steps(self, trainer, count):
        rng = np.random.default_rng(5)
        for _ in range(count):
            batch = trainer._pairs[rng.permutation(len(trainer._pairs))[:48]]
            negatives = rng.integers(0, trainer.model.table.num_items, size=(48, 2))
            trainer._loss_and_gradients(batch[:, 0], batch[:, 1], negatives)

    def test_consecutive_steps_write_into_the_same_buffers(self, tiny_kg, tiny_transe):
        fused, _ = _cggnn_pair(tiny_kg, tiny_transe, "deep")
        traces = []
        _record_traces(fused.model, traces.append)
        fused._buffers = StepBuffers(fused.model)
        self._steps(fused, 2)
        first, second = (_step_arrays(trace) for trace in traces)
        assert len(first) == 3 * 8 + 2
        assert all(np.shares_memory(a, b) for a, b in zip(first, second))
        # Without a run's buffers every step allocates its own.
        fused._buffers = None
        traces.clear()
        self._steps(fused, 2)
        first, second = (_step_arrays(trace) for trace in traces)
        assert not any(np.shares_memory(a, b) for a, b in zip(first, second))

    def test_no_buffer_outlives_train(self, tiny_kg, tiny_transe):
        fused, reference = _cggnn_pair(tiny_kg, tiny_transe, "default", seed=3)
        first, reused = [], []

        def record(trace):
            held = _step_arrays(trace) + [trace[2], fused._gradients]
            if not first:
                first.extend(weakref.ref(item) for item in held)
            # Every step of the run writes into the first step's arrays ...
            reused.append(all(ref() is item for ref, item in zip(first, held)))

        _record_traces(fused.model, record)
        assert fused.train() == reference.train()
        assert len(reused) > 2 and all(reused)
        assert fused._buffers is None and fused._gradients is None
        gc.collect()
        # ... and none of them, nor the sink, is left once train() returns.
        assert all(ref() is None for ref in first)

    def test_exported_tables_do_not_alias_the_buffers(self, tiny_kg, tiny_transe):
        fused, _ = _cggnn_pair(tiny_kg, tiny_transe, "default", seed=5)
        fused.train()
        tables, matrix = fused.export(), fused.model.forward()
        saved = [array.copy() for array in (tables.entity, tables.relation,
                                            tables.category, matrix)]
        fused._buffers = StepBuffers(fused.model)
        self._steps(fused, 1)
        fused.train()
        for before, after in zip(saved, (tables.entity, tables.relation,
                                         tables.category, matrix)):
            assert np.array_equal(before, after)

    @pytest.mark.parametrize("fails", [False, True])
    def test_train_holds_blas_at_one_thread_and_restores_it(self, tiny_kg, tiny_transe,
                                                            fails, monkeypatch):
        if blas_fingerprint()["blas"] is None:
            pytest.skip("numpy does not bundle scipy-openblas")
        fused, _ = _cggnn_pair(tiny_kg, tiny_transe, "default")
        inside = []

        def optimise():
            inside.append(blas_fingerprint()["blas_threads"])
            if fails:
                raise RuntimeError("step failed")
            return [0.0]

        monkeypatch.setattr(fused, "_optimise", optimise)
        with blas_threads(2):
            if fails:
                with pytest.raises(RuntimeError, match="step failed"):
                    fused.train()
            else:
                assert fused.train() == [0.0]
            assert blas_fingerprint()["blas_threads"] == 2
        assert inside == [1]
        assert fused._buffers is None and fused._gradients is None


# --------------------------------------------------------------------------- #
# numpy single-agent baselines ≡ autograd reference, bit for bit
# --------------------------------------------------------------------------- #
SINGLE_AGENT_BASELINES = {
    "PGPR": PGPRRecommender,
    "UCPR": UCPRRecommender,      # extra (demand) state
    "ADAC": ADACRecommender,      # imitation warm-up
    "CogER": CogERRecommender,    # System-1 pruning
}


def _single_agent_pair(name, epochs):
    config = SingleAgentConfig(epochs=epochs, transe_epochs=3, max_actions=15,
                               beam_width=8, expansions_per_beam=3, seed=2)
    factory = SINGLE_AGENT_BASELINES[name]
    reference = type("Reference" + factory.__name__, (ReferenceSingleAgent, factory), {})
    return factory(config=config, seed=2), reference(config=config, seed=2)


def _assert_same_gradients(fused_policy, reference_policy):
    for (name, mine), (_, theirs) in zip(fused_policy.named_parameters(),
                                         reference_policy.named_parameters()):
        assert (mine.grad is None) == (theirs.grad is None), name
        if mine.grad is not None:
            assert np.array_equal(mine.grad, theirs.grad), name


@pytest.fixture(scope="module")
def fitted_single_agent_pairs(tiny_dataset, tiny_split):
    return {name: tuple(model.fit(tiny_dataset, tiny_split)
                        for model in _single_agent_pair(name, epochs=2))
            for name in SINGLE_AGENT_BASELINES}


class TestSingleAgentEquivalence:
    @pytest.mark.parametrize("name", sorted(SINGLE_AGENT_BASELINES))
    def test_gradients_and_losses_bit_identical_per_episode(self, name, tiny_dataset,
                                                            tiny_split):
        fused, reference = (model.fit(tiny_dataset, tiny_split)
                            for model in _single_agent_pair(name, epochs=0))
        _assert_same_weights(fused._policy, reference._policy)
        users = [user for user, items in fused.train_items.items() if items][:20]
        for user in users:
            positives = {fused._builder.item_to_entity(item)
                         for item in fused.train_items[user]}
            assert fused._run_episode(user, positives) == \
                reference._run_episode(user, positives)
            _assert_same_gradients(fused._policy, reference._policy)
        _assert_same_weights(fused._policy, reference._policy)

    def test_imitation_gradients_bit_identical_per_step(self, tiny_dataset, tiny_split):
        fused, reference = (model.fit(tiny_dataset, tiny_split)
                            for model in _single_agent_pair("ADAC", epochs=0))
        demonstrations = fused._mine_demonstrations()[:20]
        assert demonstrations
        for user, path in demonstrations:
            fused._imitate(user, path)
            reference._imitate(user, path)
            _assert_same_gradients(fused._policy, reference._policy)
        _assert_same_weights(fused._policy, reference._policy)

    @pytest.mark.parametrize("name", sorted(SINGLE_AGENT_BASELINES))
    def test_fitted_weights_and_path_scores_bit_identical(self, name,
                                                          fitted_single_agent_pairs):
        fused, reference = fitted_single_agent_pairs[name]
        _assert_same_weights(fused._policy, reference._policy)
        found = 0
        for user in range(8):
            fused_paths = fused.find_paths(user, 12)
            reference_paths = reference.find_paths(user, 12)
            assert [(p.item_entity, p.hops, p.score) for p in fused_paths] == \
                [(p.item_entity, p.hops, p.score) for p in reference_paths]
            found += len(fused_paths)
        assert found

    def test_fit_and_find_paths_build_only_parameter_tensors(self, tiny_dataset, tiny_split,
                                                             monkeypatch):
        fused, reference = _single_agent_pair("ADAC", epochs=1)
        created = []
        original = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            created.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        fused.fit(tiny_dataset, tiny_split)
        assert fused.find_paths(0, 5)
        assert len(created) == len(fused._policy.parameters())  # the parameter holders
        reference.fit(tiny_dataset, tiny_split)
        assert len(created) > 2 * len(fused._policy.parameters())


# --------------------------------------------------------------------------- #
# training kernels ≡ their step-by-step forms, bit for bit
# --------------------------------------------------------------------------- #
def _per_parameter_adam(parameters, moments, step, lr, weight_decay,
                        betas=(0.9, 0.999), eps=1e-8):
    """The per-parameter Adam update the flat optimiser replaced."""
    beta1, beta2 = betas
    bias1, bias2 = 1.0 - beta1**step, 1.0 - beta2**step
    for parameter, moment in zip(parameters, moments):
        if parameter.grad is None:
            continue
        grad = parameter.grad
        if weight_decay:
            grad = grad + weight_decay * parameter.data
        moment[0] = beta1 * moment[0] + (1.0 - beta1) * grad
        moment[1] = beta2 * moment[1] + (1.0 - beta2) * grad**2
        m_hat, v_hat = moment[0] / bias1, moment[1] / bias2
        parameter.data = parameter.data - lr * m_hat / (np.sqrt(v_hat) + eps)


class TestTrainingKernelEquivalence:
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_flat_adam_equals_the_per_parameter_update(self, weight_decay):
        rng = np.random.default_rng(4)
        shapes = [(5, 7), (7,), (3, 1), (1,), (4, 4)]
        flat = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
        loop = [Tensor(p.data.copy(), requires_grad=True) for p in flat]
        moments = [[np.zeros(shape), np.zeros(shape)] for shape in shapes]
        optimiser = nn.Adam(flat, lr=3e-2, weight_decay=weight_decay)
        for step in range(1, 9):
            for index, (mine, theirs) in enumerate(zip(flat, loop)):
                # Parameter 1 sits out every other step: its moments and data
                # must survive those steps untouched.
                grad = (None if index == 1 and step % 2 else
                        rng.normal(size=shapes[index]) * 10.0 ** rng.integers(-4, 3))
                mine.grad = theirs.grad = grad
            optimiser.step()
            _per_parameter_adam(loop, moments, step, 3e-2, weight_decay)
            for mine, theirs in zip(flat, loop):
                assert mine.data.shape == theirs.data.shape
                assert np.array_equal(mine.data, theirs.data)
        assert np.array_equal(optimiser._m[:35], moments[0][0].ravel())
        assert np.array_equal(optimiser._v[35:42], moments[1][1])

    def test_flat_adam_rebinds_data_instead_of_writing_in_place(self):
        parameter = Tensor(np.ones(3), requires_grad=True)
        held = parameter.data
        parameter.grad = np.ones(3)
        nn.Adam([parameter], lr=0.1).step()
        assert np.array_equal(held, np.ones(3))
        assert not np.array_equal(parameter.data, held)

    def test_sampler_consumes_the_stream_generator_choice_does(self):
        rng = np.random.default_rng(8)
        distributions = [np.array([1.0]), np.array([0.0, 1.0, 0.0]),
                         np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0])]
        for _ in range(500):
            size = int(rng.integers(1, 60))
            weights = rng.random(size) ** rng.choice([1.0, 4.0, 12.0])
            if rng.random() < 0.3:
                weights[rng.random(size) < 0.5] = 0.0
                weights[int(rng.integers(size))] = 1.0
            distributions.append(weights / weights.sum())
        for probabilities in distributions:
            seed = int(rng.integers(1 << 31))
            sampler, chooser = np.random.default_rng(seed), np.random.default_rng(seed)
            index = sample_index(probabilities, sampler)
            assert index == int(chooser.choice(len(probabilities), p=probabilities))
            assert sampler.bit_generator.state == chooser.bit_generator.state

    @pytest.mark.parametrize("probabilities", [
        [], [0.5, 0.6], [np.nan, 1.0], [-0.25, 1.25], [0.5, 0.5 + 1e-6]])
    def test_sampler_rejects_what_choice_rejects(self, probabilities):
        probabilities = np.array(probabilities, dtype=np.float64)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(len(probabilities), p=probabilities)
        with pytest.raises(ValueError):
            sample_index(probabilities, np.random.default_rng(0))

    @pytest.mark.parametrize("steps, rows, columns", [
        (1, 5, 7), (6, 12, 20), (9, 1, 6), (9, 6, 1), (9, 1, 1)])
    def test_gradient_factors_equal_step_by_step_sums(self, steps, rows, columns):
        rng = np.random.default_rng(steps * 100 + rows * 10 + columns)
        weight = Tensor(np.zeros((rows, columns)), requires_grad=True)
        bias = Tensor(np.zeros(columns), requires_grad=True)
        factors = GradientFactors()
        expected_weight = expected_bias = None
        for _ in range(steps):
            inputs = rng.normal(size=rows) * 10.0 ** rng.integers(-3, 4)
            grad = rng.normal(size=columns) * 10.0 ** rng.integers(-3, 4)
            factors.weight(weight, inputs, grad)
            factors.bias(bias, grad)
            outer = np.outer(inputs, grad)
            expected_weight = outer if expected_weight is None else expected_weight + outer
            expected_bias = grad if expected_bias is None else expected_bias + grad
        factors.write()
        assert np.array_equal(weight.grad, expected_weight)
        assert np.array_equal(bias.grad, expected_bias)

    def test_guidance_marginal_adds_rows_in_order(self):
        rng = np.random.default_rng(5)
        for _ in range(400):
            alternatives = int(rng.integers(1, 12))
            actions = int(rng.choice([1, 2, int(rng.integers(3, 30))]))
            conditional = rng.random(actions)
            conditional /= conditional.sum()
            counterfactuals = rng.random((alternatives, actions))
            counterfactuals /= counterfactuals.sum(axis=1, keepdims=True)
            weights = rng.random(alternatives)
            normalised = weights / weights.sum()
            marginal = np.zeros(actions)
            for weight, distribution in zip(normalised, counterfactuals):
                marginal += weight * distribution
            expected = 1.0 / (1.0 + np.exp(-kl_divergence(conditional, marginal)))
            assert guidance_reward(conditional, counterfactuals, weights) == expected

    @pytest.mark.parametrize("threads", [1, os.cpu_count() or 1])
    def test_input_grad_layouts_equal_the_batched_product(self, threads):
        """At the paper shapes (I=240, N=10, C=4, d=32), the flat ``[:2d]``
        triplet input gradient and the K = 1 broadcasts are byte-equal to the
        batched ``grad @ W.T`` (sliced) the engine computes, on one BLAS
        thread and on one per core, and the square d×d case is that batched
        product.  A BLAS build that rounds the flattened GEMM differently
        fails here."""
        rng = np.random.default_rng(threads)
        items, neighbours, categories, dim = 240, 10, 4, 32
        grad = rng.normal(size=(items, neighbours, dim))
        triplet_weight = rng.normal(size=(4 * dim, dim))
        square_weight = rng.normal(size=(dim, dim))
        logits = [(rng.normal(size=(items, neighbours, 1)), rng.normal(size=(dim, 1))),
                  (rng.normal(size=(items, categories, 1)), rng.normal(size=(2 * dim, 1)))]
        before = blas_fingerprint()
        with blas_threads(threads):
            batched = (grad @ np.swapaxes(triplet_weight, -1, -2))[..., :2 * dim]
            assert np.array_equal(propagation.input_grad(grad, triplet_weight[:2 * dim]),
                                  batched)
            for logit_grad, weight in logits:
                assert np.array_equal(propagation.input_grad(logit_grad, weight),
                                      logit_grad @ np.swapaxes(weight, -1, -2))
            assert np.array_equal(propagation.input_grad(grad, square_weight),
                                  grad @ np.swapaxes(square_weight, -1, -2))
        assert blas_fingerprint() == before

    @pytest.mark.parametrize("block_bytes", [1, 3000, 1 << 20])
    def test_blocked_weight_gradient_equals_the_one_shot_sum(self, block_bytes,
                                                             monkeypatch):
        monkeypatch.setattr(propagation, "PRODUCT_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(block_bytes)
        for items, neighbours, rows, columns in [(240, 10, 128, 32), (37, 6, 16, 1),
                                                 (5, 3, 1, 4)]:
            inputs = rng.normal(size=(items, neighbours, rows))
            grad = rng.normal(size=(items, neighbours, columns))
            expected = (np.swapaxes(inputs, -1, -2) @ grad).sum(axis=0)
            assert np.array_equal(propagation.linear_weight_grad(inputs, grad), expected)

    def test_blocked_cggnn_training_matches_the_reference(self, tiny_kg, tiny_transe,
                                                          monkeypatch):
        """The tiny shapes fit one block; force several so the pin covers the fold."""
        monkeypatch.setattr(propagation, "PRODUCT_BLOCK_BYTES", 20000)
        fused, reference = _cggnn_pair(tiny_kg, tiny_transe, "default", seed=1)
        assert fused.train() == reference.train()
        _assert_same_weights(fused.model, reference.model)

    def test_threaded_cggnn_backward_equals_the_serial_one(self, tiny_kg, tiny_transe):
        threaded, serial = (_cggnn_pair(tiny_kg, tiny_transe, "deep")[0] for _ in range(2))
        rng = np.random.default_rng(6)
        batch = threaded._pairs[rng.permutation(len(threaded._pairs))[:48]]
        negatives = rng.integers(0, threaded.model.table.num_items, size=(48, 3))
        with ThreadPoolExecutor(max_workers=1) as executor:
            threaded._gradients = GradientSink(executor)
            threaded_loss = threaded._loss_and_gradients(batch[:, 0], batch[:, 1], negatives)
        serial_loss = serial._loss_and_gradients(batch[:, 0], batch[:, 1], negatives)
        assert threaded_loss == serial_loss
        for (name, mine), (_, theirs) in zip(threaded.model.named_parameters(),
                                             serial.model.named_parameters()):
            assert mine.grad is not None and np.array_equal(mine.grad, theirs.grad), name

    def test_same_seed_cggnn_trainings_give_equal_tables(self, tiny_kg, tiny_transe):
        first, second = (_cggnn_pair(tiny_kg, tiny_transe, "default", seed=2)[0]
                         for _ in range(2))
        assert first.train() == second.train()
        assert first._gradients is None  # the worker thread lives only inside train()
        first_tables, second_tables = first.export(), second.export()
        for name in ("entity", "relation", "category"):
            assert np.array_equal(getattr(first_tables, name), getattr(second_tables, name))


class TestKLGuidanceEquivalence:
    def test_vectorised_counterfactuals_equal_the_loop(self):
        rng = np.random.default_rng(11)
        guidance = GuidanceModel(strength=2.0)
        for _ in range(300):
            actions = int(rng.integers(1, 40))
            categories = int(rng.integers(2, 10))
            base = rng.normal(size=actions) * rng.choice([0.1, 1.0, 30.0])
            targets = np.array([-1 if rng.random() < 0.3 else int(rng.integers(categories))
                                for _ in range(actions)])
            alternatives = [int(c) for c in rng.choice(categories,
                                                       size=int(rng.integers(categories)),
                                                       replace=False)]
            weights = list(rng.random(len(alternatives))) if rng.random() < 0.8 else None
            chosen = int(rng.integers(categories))
            loop = [guidance.guided_probabilities(base, targets, alternative)
                    for alternative in alternatives]
            matrix = guidance.counterfactual_probabilities(base, targets, alternatives)
            assert matrix.shape == (len(alternatives), actions)
            for row, expected in zip(matrix, loop):
                assert np.array_equal(row, expected)
            expected_reward = guidance_reward(
                guidance.guided_probabilities(base, targets, chosen), loop, weights)
            assert guidance.kl_guidance_reward(base, targets, chosen, alternatives,
                                               weights) == expected_reward


_CSR_ARRAYS = ("indptr", "relations", "targets", "degrees", "entity_category", "is_item",
               "triplets")


def _walk_csr(graph):
    """The CSR arrays from a per-entity walk of ``graph.outgoing``."""
    num_entities = graph.num_entities
    indptr = np.zeros(num_entities + 1, dtype=np.int32)
    relations, targets = [], []
    for entity in range(num_entities):
        edges = graph.outgoing(entity)
        indptr[entity + 1] = indptr[entity] + len(edges)
        relations.extend(relation_index(relation) for relation, _ in edges)
        targets.extend(target for _, target in edges)
    categories = [graph.category_of(entity) for entity in range(num_entities)]
    return {
        "indptr": indptr,
        "relations": np.array(relations, dtype=np.int32),
        "targets": np.array(targets, dtype=np.int32),
        "degrees": np.diff(indptr).astype(np.int32),
        "entity_category": np.array([-1 if c is None else c for c in categories],
                                    dtype=np.int32),
        "is_item": np.array([graph.entities.is_item(e) for e in range(num_entities)],
                            dtype=bool),
        "triplets": np.array([(t.head, relation_index(t.relation), t.tail)
                              for t in graph.triplets()], dtype=np.int64).reshape(-1, 3),
    }


def _assert_csr_matches_walk(graph):
    adjacency, walked = graph.adjacency(), _walk_csr(graph)
    for name in _CSR_ARRAYS:
        actual = getattr(adjacency, name)
        assert actual.dtype == walked[name].dtype, name
        assert actual.shape == walked[name].shape, name
        assert np.array_equal(actual, walked[name]), name


@pytest.fixture(scope="module")
def paper_kg():
    from repro.pipeline import Pipeline, RunConfig

    return Pipeline(RunConfig.from_profile("paper")).run(until=("kg",)).context.graph


class TestCSRAdjacency:
    @pytest.mark.parametrize("profile", ["tiny", "paper"])
    @pytest.mark.parametrize("deltas, branch", [(0, None), (6, "delta_patches"),
                                                (400, "full_compiles")])
    def test_arrays_match_a_walk_of_the_graph(self, tiny_kg, paper_kg, profile,
                                              deltas, branch):
        graph = (tiny_kg[0] if profile == "tiny" else paper_kg).copy()
        graph.adjacency()
        if deltas:
            UpdateLog(synthesize_deltas(graph, deltas, seed=5)).apply(graph)
            before = graph.adjacency_compile_stats()
            _assert_csr_matches_walk(graph)
            assert graph.adjacency_compile_stats()[branch] == before[branch] + 1
        else:
            _assert_csr_matches_walk(graph)

    def test_edges_match_graph_order(self, tiny_kg):
        graph, _, _ = tiny_kg
        adjacency = graph.adjacency()
        for entity in range(graph.num_entities):
            relations, targets = adjacency.out_edges(entity)
            expected = graph.outgoing(entity)
            actual = [(relation_from_index(r), t)
                      for r, t in zip(relations.tolist(), targets.tolist())]
            assert actual == expected
            assert adjacency.degree(entity) == graph.degree(entity)

    def test_metadata_tables(self, tiny_kg):
        graph, _, builder = tiny_kg
        adjacency = graph.adjacency()
        for item, category in graph.item_category_map().items():
            assert adjacency.entity_category[item] == category
            assert adjacency.is_item[item]
        user = builder.user_to_entity(0)
        assert adjacency.entity_category[user] == -1
        assert not adjacency.is_item[user]

    def test_triplets_preserve_global_order(self, tiny_kg):
        graph, _, _ = tiny_kg
        table = graph.adjacency().triplets
        for row, triplet in zip(table, graph.triplets()):
            assert row[0] == triplet.head
            assert row[1] == relation_index(triplet.relation)
            assert row[2] == triplet.tail

    def test_cache_invalidated_on_entity_growth(self, tiny_dataset, tiny_split):
        from repro.kg import build_knowledge_graph
        from repro.kg.entities import EntityType

        graph, _, _ = build_knowledge_graph(tiny_dataset, tiny_split.train)
        first = graph.adjacency()
        # Entities can be registered in the shared store without any edge
        # write; the compiled view must still cover them (degree 0).
        new_id = graph.entities.add(EntityType.BRAND, "late-brand").entity_id
        adjacency = graph.adjacency()
        assert adjacency is not first
        relations, targets = adjacency.out_edges(new_id)
        assert len(relations) == 0 and len(targets) == 0
        assert adjacency.degree(new_id) == 0

    def test_cache_invalidated_on_mutation(self, tiny_dataset, tiny_split):
        from repro.kg import build_knowledge_graph

        graph, _, builder = build_knowledge_graph(tiny_dataset, tiny_split.train)
        first = graph.adjacency()
        assert graph.adjacency() is first  # cached while unchanged
        user = builder.user_to_entity(0)
        item = builder.item_to_entity(5)
        graph.add_triplet(user, Relation.PURCHASE, item)
        second = graph.adjacency()
        if second.num_edges == first.num_edges:  # edge already existed: force
            graph.set_item_category(item, graph.category_of(item) or 0)
            second = graph.adjacency()
        assert second is not first


def _loop_purchase_pairs(model, graph):
    """(user, item row) for each purchase triplet, in triplet order."""
    position = model.table.item_position
    pairs = [(t.head, position[t.tail]) for t in graph.triplets()
             if t.relation == Relation.PURCHASE and t.tail in position]
    return np.array(pairs, dtype=np.int64) if pairs else np.zeros((0, 2), dtype=np.int64)


class TestPurchasePairs:
    def _model(self, graph, transe):
        return CGGNN(graph, transe, CGGNNConfig(embedding_dim=16, max_neighbors=6,
                                                max_categories=3, seed=0))

    def test_pairs_match_the_triplet_loop(self, tiny_kg, tiny_transe):
        graph = tiny_kg[0]
        model = self._model(graph, tiny_transe[0])
        pairs = CGGNNTrainer(model, graph)._pairs
        expected = _loop_purchase_pairs(model, graph)
        assert pairs.dtype == expected.dtype and pairs.flags.c_contiguous
        assert np.array_equal(pairs, expected)

    def test_purchases_of_items_outside_the_table_are_skipped(self, tiny_kg, tiny_transe):
        from repro.kg import EntityType

        graph = tiny_kg[0]
        model = self._model(graph, tiny_transe[0])
        grown = graph.copy()
        UpdateLog(synthesize_deltas(grown, 40, seed=4)).apply(grown)
        assert grown.entities.count(EntityType.ITEM) > model.table.num_items
        pairs = CGGNNTrainer(model, grown)._pairs
        expected = _loop_purchase_pairs(model, grown)
        assert len(expected) > len(CGGNNTrainer(model, graph)._pairs)
        assert np.array_equal(pairs, expected)

    def test_no_purchases_gives_an_empty_table(self, tiny_kg, tiny_transe):
        from repro.kg import KnowledgeGraph

        graph = tiny_kg[0]
        model = self._model(graph, tiny_transe[0])
        pairs = CGGNNTrainer(model, KnowledgeGraph(graph.entities))._pairs
        assert pairs.shape == (0, 2) and pairs.dtype == np.int64


class TestEnvironmentCaches:
    def test_lru_cache_bounds_and_evicts(self):
        cache: LRUCache[int] = LRUCache(capacity=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.get(("a",))          # refresh "a" so "b" is evicted next
        cache.put(("c",), 3)
        assert len(cache) == 2
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1

    def test_environment_caches_are_bounded(self, tiny_kg, tiny_representations):
        graph, _, builder = tiny_kg
        environment = EntityEnvironment(graph, tiny_representations,
                                        max_actions=5, cache_capacity=4)
        user = builder.user_to_entity(0)
        state = environment.initial_state(user)
        for entity in range(min(graph.num_entities, 32)):
            environment.action_arrays(entity)
        assert len(environment._array_cache) <= 4
        environment.actions(state)
        assert len(environment._action_cache) <= 4

    def test_action_sets_do_not_depend_on_visit_order(self, tiny_kg,
                                                      tiny_representations):
        graph, _, _ = tiny_kg
        entities = list(range(0, min(graph.num_entities, 40)))

        def collect(order):
            environment = EntityEnvironment(graph, tiny_representations,
                                            max_actions=3,
                                            rng=np.random.default_rng(11))
            return {entity: tuple(environment.action_arrays(entity)[1].tolist())
                    for entity in order}

        forward = collect(entities)
        backward = collect(list(reversed(entities)))
        assert forward == backward


class TestServeManyBatching:
    @pytest.fixture()
    def service_pair(self, recommender_pair):
        vectorised, scalar, builder = recommender_pair
        config = ServingConfig(cache_capacity=64)
        fast = RecommendationService(vectorised, config=config)
        slow = RecommendationService(scalar, config=config)
        users = [builder.user_to_entity(u) for u in range(8)]
        return fast, slow, users

    def test_batched_serve_matches_scalar_facade(self, service_pair):
        fast, slow, users = service_pair
        fast_responses = fast.serve_many(fast.build_requests(users, top_k=5))
        slow_responses = slow.serve_many(slow.build_requests(users, top_k=5))
        for a, b in zip(fast_responses, slow_responses):
            assert a.items == b.items
            assert [p.hops for p in a.paths] == [p.hops for p in b.paths]
            assert a.tier == b.tier

    def test_batched_full_results_are_cached_as_full(self, service_pair):
        fast, _, users = service_pair
        first = fast.serve_many(fast.build_requests(users, top_k=5))
        assert all(r.tier is ServingTier.FULL for r in first)
        second = fast.serve_many(fast.build_requests(users, top_k=5))
        assert all(r.tier is ServingTier.CACHE for r in second)
        assert all(r.source_tier is ServingTier.FULL for r in second)
        for a, b in zip(first, second):
            assert a.items == b.items


class TestBenchHarness:
    def _document(self, transe=3.0, cold=5.0, warm=6.0):
        return {
            "meta": {"timestamp": "2026-01-01T00:00:00Z", "profile": "smoke"},
            "metrics": {
                "transe": {"speedup": transe},
                "beam_cold": {"speedup": cold},
                "beam_warm": {"speedup": warm},
            },
        }

    def test_no_regression_within_threshold(self):
        current = self._document(transe=2.5)
        baseline = self._document(transe=3.0)
        assert compare_with_baseline(current, baseline, threshold=0.30) == []

    def test_regression_flagged_beyond_threshold(self):
        current = self._document(warm=3.0)
        baseline = self._document(warm=6.0)
        regressions = compare_with_baseline(current, baseline, threshold=0.30)
        assert [r.metric for r in regressions] == ["beam_warm.speedup"]
        assert "beam_warm" in regressions[0].describe()

    def test_diverged_darl_weights_flagged(self):
        baseline = {"metrics": {"darl_train": {"identical_weights": 1.0}}}
        current = {"metrics": {"darl_train": {"identical_weights": 0.0}}}
        regressions = compare_with_baseline(current, baseline, threshold=0.30)
        assert [r.metric for r in regressions] == ["darl_train.identical_weights"]
        assert compare_with_baseline(baseline, baseline, threshold=0.30) == []

    def test_diverged_cggnn_weights_flagged(self):
        baseline = {"metrics": {"cggnn_train": {"identical_weights": 1.0,
                                                "speedup": 1.3}}}
        current = {"metrics": {"cggnn_train": {"identical_weights": 0.0,
                                               "speedup": 1.3}}}
        regressions = compare_with_baseline(current, baseline, threshold=0.30)
        assert [r.metric for r in regressions] == ["cggnn_train.identical_weights"]
        assert compare_with_baseline(baseline, baseline, threshold=0.30) == []

    def test_blas_threads_can_be_pinned_and_fingerprinted(self):
        from repro.blas import set_blas_threads

        before = blas_fingerprint()
        if before["blas"] is None:
            assert not set_blas_threads(1)
            pytest.skip("numpy does not bundle scipy-openblas")
        try:
            assert set_blas_threads(1)
            assert blas_fingerprint()["blas_threads"] == 1
        finally:
            set_blas_threads(before["blas_threads"])
        assert blas_fingerprint() == before

    def test_missing_metrics_are_skipped(self):
        baseline = {"metrics": {}}
        assert compare_with_baseline(self._document(), baseline) == []

    def test_unreadable_or_missing_current_metrics_flagged(self):
        baseline = {"metrics": {"darl_train": {"identical_weights": 1.0,
                                               "speedup": 1.5}}}
        nan = {"metrics": {"darl_train": {"identical_weights": float("nan"),
                                          "speedup": "fast"}}}
        assert [r.metric for r in compare_with_baseline(nan, baseline)] == [
            "darl_train.speedup", "darl_train.identical_weights"]
        missing = compare_with_baseline({"metrics": {}}, baseline)
        assert [r.metric for r in missing] == ["darl_train.speedup",
                                               "darl_train.identical_weights"]
        assert "missing or not a number" in missing[0].describe()

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            compare_with_baseline(self._document(), self._document(), threshold=1.5)

    def test_metric_missing_from_baseline_section_is_skipped(self):
        # The baseline gates darl_train.speedup but predates identical_weights:
        # only the metric the baseline holds is compared.
        baseline = {"metrics": {"darl_train": {"speedup": 1.5}}}
        current = {"metrics": {"darl_train": {"speedup": 1.6}}}
        assert compare_with_baseline(current, baseline) == []

    def test_render_report_has_one_line_per_section(self):
        from repro.perf import render_report

        lines = render_report(_full_bench_document()).splitlines()
        assert [line.split()[0] for line in lines[1:]] == [
            "transe", "darl", "cggnn", "beam", "beam", "csr", "fault"]
        assert "seed=0" in lines[0]
        for gone in ("cluster", "autoscale", "adversarial"):
            assert gone not in "\n".join(lines)

    def test_write_bench_json(self, tmp_path):
        path = write_bench_json(self._document(), tmp_path)
        assert path.name.startswith("BENCH_") and path.suffix == ".json"
        assert json.loads(path.read_text())["metrics"]["transe"]["speedup"] == 3.0

    def test_profile_run_config_applies_overrides(self):
        profile = BenchProfile(name="x", embedding_dim=64, beam_width=20,
                               max_entity_actions=50, darl_epochs=1)
        config = profile.run_config()
        assert config.model.embedding_dim == 64
        assert config.model.inference.beam_width == 20
        assert config.model.darl.max_entity_actions == 50
        assert config.model.darl.epochs == 1

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            BenchProfile(name="bad", scale=0.0).validate()
        with pytest.raises(ValueError):
            BenchProfile(name="bad", repeats=0).validate()

    def test_profile_has_no_serving_section_knobs(self):
        from dataclasses import fields

        from repro.perf.bench import (
            FAULT_BENCH_REPLICAS,
            FAULT_BENCH_REQUESTS,
            FAULT_BENCH_SHARDS,
        )

        names = {field.name for field in fields(BenchProfile)}
        assert names.isdisjoint({"cluster_shards", "cluster_replicas",
                                 "scenario_requests", "autoscale_requests",
                                 "autoscale_queue", "autoscale_min",
                                 "autoscale_max"})
        # The fault-overhead section replays the cluster and trace it did
        # when these were profile fields.
        assert (FAULT_BENCH_SHARDS, FAULT_BENCH_REPLICAS,
                FAULT_BENCH_REQUESTS) == (4, 2, 400)


def _full_bench_document(transe_speedup=3.0):
    """A BENCH document holding every section :func:`render_report` prints."""
    return {
        "meta": {"timestamp": "2026-01-01T00:00:00Z", "profile": "smoke",
                 "dataset": "beauty", "scale": 0.4, "seed": 0,
                 "stack_build_s": 1.0, "blas_threads": 1},
        "metrics": {
            "transe": {"vectorised_epochs_per_s": 30.0,
                       "reference_epochs_per_s": 10.0, "speedup": transe_speedup},
            "darl_train": {"fused_episodes_per_s": 20.0,
                           "reference_episodes_per_s": 10.0, "speedup": 2.0,
                           "identical_weights": 1.0},
            "cggnn_train": {"fused_steps_per_s": 18.0,
                            "reference_steps_per_s": 10.0, "speedup": 1.8,
                            "identical_weights": 1.0,
                            "fused_minor_faults_per_step": 3.0},
            "beam_cold": {"vectorised_qps": 60.0, "reference_qps": 10.0,
                          "speedup": 6.0},
            "beam_warm": {"vectorised_qps": 70.0, "reference_qps": 10.0,
                          "speedup": 7.0},
            "csr_patch": {"patch_ms": 1.0, "deltas": 10.0,
                          "full_compile_ms": 9.0, "speedup": 9.0},
            "fault_overhead": {"armored_qps": 90.0, "bare_qps": 100.0,
                               "overhead_ratio": 1.11,
                               "identical_signatures": 1.0},
        },
        "gated": [],
    }


class TestBenchEndToEnd:
    def test_micro_bench_run(self, tmp_path):
        from dataclasses import replace

        from repro.perf import run_bench
        from repro.pipeline import Pipeline

        profile = BenchProfile(name="micro", scale=0.25, beam_users=6,
                               rollout_users=3, repeats=1, transe_epochs=1)
        # A persisted stack whose seed differs from the profile's: ``meta``
        # must describe the stack the bench measured.
        config = replace(profile, seed=3).run_config()
        Pipeline(config, store=tmp_path / "stack").run(until=("train",))
        document = run_bench(profile, artifacts=tmp_path / "stack")
        meta = document["meta"]
        assert (meta["seed"], meta["dataset"], meta["scale"]) == (3, "beauty", 0.25)
        assert meta["config_fingerprint"] == config.fingerprint()
        metrics = document["metrics"]
        assert set(metrics) == {"transe", "darl_train", "cggnn_train", "beam_cold",
                                "beam_warm", "csr_patch", "fault_overhead"}
        assert metrics["transe"]["speedup"] > 0
        assert metrics["darl_train"]["speedup"] > 0
        assert metrics["darl_train"]["identical_weights"] == 1.0
        assert metrics["cggnn_train"]["speedup"] > 0
        assert metrics["cggnn_train"]["identical_weights"] == 1.0
        assert metrics["cggnn_train"]["fused_minor_faults_per_step"] >= 0
        assert "cggnn_train.fused_minor_faults_per_step" not in document["gated"]
        for gated in ("darl_train.speedup", "darl_train.identical_weights",
                      "cggnn_train.speedup", "cggnn_train.identical_weights"):
            assert gated in document["gated"]
        assert {"blas", "blas_threads"} <= set(document["meta"])
        assert metrics["beam_warm"]["vectorised_qps"] > 0
        assert metrics["fault_overhead"]["identical_signatures"] == 1.0
        path = write_bench_json(document, tmp_path)
        assert path.exists()

    def test_fault_overhead_times_every_repeat_on_both_sides(self, monkeypatch):
        from repro.perf import bench
        from repro.pipeline import Pipeline
        from repro.simulate import ReplayDriver

        profile = BenchProfile(name="micro", scale=0.25, beam_users=6,
                               rollout_users=3, repeats=4, transe_epochs=1)
        result = Pipeline(profile.run_config()).run(until=("train",))
        monkeypatch.setattr(bench, "FAULT_BENCH_REQUESTS", 60)
        replays = {"bare": 0, "armored": 0}
        replay = ReplayDriver.replay

        def counted(driver, workload, *args, **kwargs):
            replays["armored" if driver.service.breaker else "bare"] += 1
            return replay(driver, workload, *args, **kwargs)

        monkeypatch.setattr(ReplayDriver, "replay", counted)
        metrics = bench.bench_fault_overhead(result, profile)
        # One warm-up plus ``repeats`` timed replays per side, and no more:
        # the signatures come from those replays.
        assert replays == {"bare": 5, "armored": 5}
        assert metrics["identical_signatures"] == 1.0
        assert metrics["overhead_ratio"] > 0

    def test_unknown_profile_rejected(self):
        from repro.perf import run_bench

        with pytest.raises(ValueError):
            run_bench("nope")

    @pytest.mark.parametrize("threshold", ["1.5", "0", "1", "-0.2", "nan", "abc"])
    def test_cli_rejects_threshold_before_running(self, threshold, monkeypatch,
                                                  capsys):
        import repro.perf
        from repro.cli import main as cli_main

        def never(*args, **kwargs):
            raise AssertionError("the bench ran")

        monkeypatch.setattr(repro.perf, "run_bench", never)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["bench", "--profile", "smoke", "--threshold", threshold])
        assert exit_info.value.code == 2
        assert "--threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold, code", [("0.5", 0), ("0.05", 3)])
    def test_cli_gates_with_in_range_threshold(self, threshold, code, tmp_path,
                                               monkeypatch, capsys):
        import repro.perf
        from repro.cli import main as cli_main

        # transe.speedup reads 2.7 against a baseline of 3.0: a 10% drop
        # passes a 50% threshold and fails a 5% one.
        monkeypatch.setattr(repro.perf, "set_blas_threads", lambda threads: True)
        monkeypatch.setattr(repro.perf, "run_bench",
                            lambda profile, artifacts=None:
                            _full_bench_document(transe_speedup=2.7))
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_full_bench_document()))
        assert cli_main(["bench", "--profile", "smoke", "--threshold", threshold,
                         "--baseline", str(baseline),
                         "--out", str(tmp_path / "out")]) == code
        captured = capsys.readouterr()
        if code:
            assert "transe.speedup" in captured.err
        else:
            assert "regression gate ok" in captured.out
        assert len(list((tmp_path / "out").glob("BENCH_*.json"))) == 1
