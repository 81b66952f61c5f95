"""Vectorised ≡ scalar equivalence, CSR adjacency, cache bounds, bench harness.

The vectorised hot paths (CSR pruning, frontier beam search, fast TransE)
must be *behaviour-preserving* rewrites: every test here pins them against
either the frozen scalar references in :mod:`repro.perf.reference` or the
list-based originals that remain in the codebase.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.darl.inference import InferenceConfig, PathRecommender
from repro.darl.shared_policy import PolicyConfig, SharedPolicyNetworks
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
from repro.perf.reference import category_guided_prune, degree_prune
from repro.rl.environment import EntityEnvironment, LRUCache
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


class TestCSRAdjacency:
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
        graph = vectorised.graph
        config = ServingConfig(cache_capacity=64)
        fast = RecommendationService(
            graph, vectorised.category_environment.category_graph,
            vectorised.representations, vectorised.policy,
            recommender=vectorised, config=config)
        slow = RecommendationService(
            graph, scalar.category_environment.category_graph,
            scalar.representations, scalar.policy,
            recommender=scalar, config=config)
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

    def test_missing_metrics_are_skipped(self):
        baseline = {"metrics": {}}
        assert compare_with_baseline(self._document(), baseline) == []

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            compare_with_baseline(self._document(), self._document(), threshold=1.5)

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


class TestBenchEndToEnd:
    def test_micro_bench_run(self, tmp_path):
        from repro.perf import run_bench

        profile = BenchProfile(name="micro", scale=0.25, beam_users=6,
                               rollout_users=3, repeats=1, transe_epochs=1,
                               scenario_requests=120)
        document = run_bench(profile)
        metrics = document["metrics"]
        for section in ("transe", "rollouts", "beam_cold", "beam_warm",
                        "adversarial"):
            assert section in metrics
        assert metrics["transe"]["speedup"] > 0
        assert metrics["beam_warm"]["vectorised_qps"] > 0
        adversarial = metrics["adversarial"]
        assert adversarial["deterministic"] == 1.0
        assert (adversarial["adversarial_hit_rate"]
                < adversarial["baseline_hit_rate"])
        path = write_bench_json(document, tmp_path)
        assert path.exists()

    def test_unknown_profile_rejected(self):
        from repro.perf import run_bench

        with pytest.raises(ValueError):
            run_bench("nope")
