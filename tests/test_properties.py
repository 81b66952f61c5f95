"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.darl import InferenceConfig, PathRecommender, PolicyConfig, SharedPolicyNetworks
from repro.data import SyntheticConfig, generate, split_interactions
from repro.eval.metrics import all_metrics, hit_ratio_at_k, ndcg_at_k, precision_at_k, recall_at_k
from repro.kg import EntityStore, EntityType, KnowledgeGraph, Relation, inverse_of
from repro.nn import Tensor
from repro.nn import functional as F
from repro.rl import discounted_returns
from repro.rl.rewards import collaborative_rewards, guidance_reward
from repro.serving import (
    RecommendationRequest,
    RecommendationService,
    ResultCache,
    ServingConfig,
)

small_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                         allow_infinity=False)


class TestMetricProperties:
    @given(recommended=st.lists(st.integers(0, 50), max_size=20),
           relevant=st.lists(st.integers(0, 50), max_size=20),
           k=st.integers(1, 15))
    @settings(max_examples=60, deadline=None)
    def test_all_metrics_bounded(self, recommended, relevant, k):
        metrics = all_metrics(recommended, relevant, k)
        for value in metrics.values():
            assert 0.0 <= value <= 1.0

    @given(relevant=st.lists(st.integers(0, 30), min_size=1, max_size=10, unique=True),
           k=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_recommending_relevant_items_first_is_optimal(self, relevant, k):
        perfect = list(relevant)
        assert ndcg_at_k(perfect, relevant, k) == pytest.approx(1.0)
        assert hit_ratio_at_k(perfect, relevant, k) == 1.0

    @given(recommended=st.lists(st.integers(0, 30), min_size=1, max_size=20, unique=True),
           relevant=st.lists(st.integers(0, 30), min_size=1, max_size=10, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_precision_recall_consistency(self, recommended, relevant):
        k = len(recommended)
        hits_from_precision = precision_at_k(recommended, relevant, k) * k
        hits_from_recall = recall_at_k(recommended, relevant, k) * len(set(relevant))
        assert hits_from_precision == pytest.approx(hits_from_recall)


class TestAutogradProperties:
    @given(values=st.lists(small_floats, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_softmax_is_a_distribution(self, values):
        probs = F.softmax(Tensor(np.array(values))).data
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs >= 0.0)

    @given(values=st.lists(small_floats, min_size=2, max_size=8),
           shift=small_floats)
    @settings(max_examples=40, deadline=None)
    def test_softmax_shift_invariance(self, values, shift):
        base = F.softmax(Tensor(np.array(values))).data
        shifted = F.softmax(Tensor(np.array(values) + shift)).data
        assert np.allclose(base, shifted, atol=1e-8)

    @given(a=st.lists(small_floats, min_size=3, max_size=3),
           b=st.lists(small_floats, min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_gradient_of_sum_is_linear(self, a, b):
        ta = Tensor(np.array(a), requires_grad=True)
        tb = Tensor(np.array(b), requires_grad=True)
        (ta * 2.0 + tb * 3.0).sum().backward()
        assert np.allclose(ta.grad, 2.0)
        assert np.allclose(tb.grad, 3.0)

    @given(values=st.lists(small_floats, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_sigmoid_output_range(self, values):
        out = Tensor(np.array(values)).sigmoid().data
        assert np.all((out > 0.0) & (out < 1.0))


class TestRLProperties:
    @given(rewards=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10),
           gamma=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_discounted_returns_monotone_in_terminal_reward(self, rewards, gamma):
        returns = discounted_returns(rewards, gamma)
        assert len(returns) == len(rewards)
        boosted = discounted_returns(rewards[:-1] + [rewards[-1] + 1.0], gamma)
        assert all(after >= before - 1e-12 for before, after in zip(returns, boosted))

    @given(probabilities=st.lists(st.floats(min_value=0.01, max_value=1.0),
                                  min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_guidance_reward_in_unit_interval(self, probabilities):
        distribution = np.array(probabilities) / np.sum(probabilities)
        uniform = np.full(len(distribution), 1.0 / len(distribution))
        reward = guidance_reward(distribution, [uniform])
        assert 0.0 <= reward <= 1.0
        assert reward >= 0.5 - 1e-9  # KL is non-negative, sigmoid(KL) >= 0.5

    @given(length=st.integers(1, 8),
           alpha_pe=st.floats(0.0, 1.0), alpha_pc=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_collaborative_rewards_lengths(self, length, alpha_pe, alpha_pc):
        rewards = collaborative_rewards(1.0, 1.0, [0.5] * length, [0.5] * length,
                                        alpha_pe, alpha_pc)
        assert len(rewards["category"]) == length
        assert len(rewards["entity"]) == length
        # Terminal rewards land on the final step only.
        assert rewards["entity"][-1] >= 1.0


class TestServingProperties:
    """Seeded randomised loops over the serving data structures.

    These complement the hypothesis suites above: the serving stack's
    invariants depend on stateful op *sequences* (put/get/expiry interleaving,
    request orderings), which seeded ``numpy`` loops express more directly
    than hypothesis strategies.
    """

    def test_lru_ttl_cache_never_exceeds_capacity(self):
        """Random op sequences: size stays bounded and expiry is honoured."""
        for seed in range(5):
            rng = np.random.default_rng(seed)
            clock_now = [0.0]
            capacity = int(rng.integers(1, 8))
            ttl = float(rng.uniform(1.0, 10.0))
            cache = ResultCache(capacity=capacity, ttl_seconds=ttl,
                                clock=lambda: clock_now[0])
            written = {}
            gets = hits = 0
            for _ in range(400):
                op = rng.random()
                key = (int(rng.integers(0, 12)), 10, frozenset())
                if op < 0.45:
                    cache.put(key, ("payload", key))
                    written[key] = clock_now[0] + ttl
                elif op < 0.8:
                    value = cache.get(key)
                    gets += 1
                    hits += value is not None
                    if value is not None:
                        # A fresh hit must be unexpired and the value intact.
                        assert written[key] > clock_now[0]
                        assert value == ("payload", key)
                elif op < 0.9:
                    cache.invalidate(key)
                    written.pop(key, None)
                else:
                    clock_now[0] += float(rng.uniform(0.0, ttl))
                assert len(cache) <= capacity
            assert cache.stats.hits == hits
            assert cache.stats.misses == gets - hits

    def test_microbatch_dedup_matches_sequential_for_any_ordering(
            self, tiny_kg, tiny_representations):
        """serve_many == one-by-one serving, for random duplicate-heavy orders."""
        graph, category_graph, _ = tiny_kg
        policy = SharedPolicyNetworks(PolicyConfig(embedding_dim=16, hidden_size=8,
                                                   mlp_hidden=16, seed=0))

        def make_service():
            recommender = PathRecommender(
                graph, category_graph, tiny_representations, policy,
                max_path_length=4, max_entity_actions=8, max_category_actions=4,
                config=InferenceConfig(beam_width=6, expansions_per_beam=2))
            return RecommendationService(recommender,
                                         config=ServingConfig(cache_ttl_seconds=600.0))

        users = graph.entities.ids_of_type(EntityType.USER)[:8]
        for seed in range(3):
            rng = np.random.default_rng(seed)
            chosen = rng.choice(users, size=20, replace=True)     # duplicates likely
            requests = [RecommendationRequest(user_entity=int(user), top_k=4)
                        for user in chosen]
            batched = make_service().serve_many(requests)
            sequential_service = make_service()
            sequential = [sequential_service.serve(request) for request in requests]
            for batch_response, solo_response in zip(batched, sequential):
                assert batch_response.items == solo_response.items
                assert batch_response.source_tier == solo_response.source_tier


class TestKGProperties:
    @given(edges=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                          min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_inverse_edges_always_present(self, edges):
        store = EntityStore()
        items = [store.add(EntityType.ITEM, f"i{i}") for i in range(10)]
        graph = KnowledgeGraph(store)
        for head, tail in edges:
            if head != tail:
                graph.add_triplet(items[head].entity_id, Relation.ALSO_BOUGHT,
                                  items[tail].entity_id)
        for triplet in graph.triplets():
            assert graph.has_edge(triplet.tail, inverse_of(triplet.relation), triplet.head)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_synthetic_dataset_always_validates(self, seed):
        config = SyntheticConfig(num_users=8, num_items=20, num_brands=4, num_features=8,
                                 num_categories=4, num_clusters=2, seed=seed)
        dataset = generate(config)
        dataset.validate()
        histories = dataset.user_histories()
        assert all(len(set(items)) >= 2 for items in histories.values())

    @given(seed=st.integers(0, 10_000), fraction=st.floats(0.3, 0.9))
    @settings(max_examples=15, deadline=None)
    def test_split_partitions_interactions(self, seed, fraction):
        dataset = generate(SyntheticConfig(num_users=8, num_items=20, num_brands=4,
                                           num_features=8, num_categories=4,
                                           num_clusters=2, seed=seed))
        split = split_interactions(dataset, train_fraction=fraction, seed=seed)
        assert len(split.train) + len(split.test) == dataset.num_interactions
        # every user with >= 2 interactions keeps at least one on each side
        for user, items in dataset.user_histories().items():
            if len(items) >= 2:
                assert split.train_items_of(user)
                assert split.test_items_of(user)
