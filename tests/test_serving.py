"""Tests for the online serving subsystem (repro.serving)."""

import dataclasses
import math
from types import SimpleNamespace

import pytest

from repro.darl import InferenceConfig, PathRecommender, PolicyConfig, SharedPolicyNetworks
from repro.kg.entities import EntityType
from repro.perf.reference import category_milestones_reference
from repro.serving import (
    RecommendationRequest,
    RecommendationService,
    RepresentationFallbackRanker,
    ResultCache,
    ServingConfig,
    ServingTelemetry,
    ServingTier,
    TransEFallbackRanker,
)


class FakeClock:
    """Deterministic, manually advanced clock for cache/telemetry tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------- #
# result cache
# --------------------------------------------------------------------- #
class TestResultCache:
    def test_hit_and_miss_counters(self):
        cache = ResultCache(capacity=4, ttl_seconds=10.0, clock=FakeClock())
        key = (1, 10, frozenset())
        assert cache.get(key) is None
        cache.put(key, "value")
        assert cache.get(key) == "value"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_ttl_expiry_is_a_miss_but_stale_readable(self):
        clock = FakeClock()
        cache = ResultCache(capacity=4, ttl_seconds=5.0, clock=clock)
        key = (1, 10, frozenset())
        cache.put(key, "value")
        clock.advance(5.1)
        assert cache.get(key) is None
        assert not cache.has(key)
        assert cache.has_stale(key)
        assert cache.get_stale(key) == "value"
        assert cache.stats.stale_hits == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2, ttl_seconds=10.0, clock=FakeClock())
        first, second, third = [(u, 10, frozenset()) for u in (1, 2, 3)]
        cache.put(first, "a")
        cache.put(second, "b")
        assert cache.get(first) == "a"     # bump first to most-recent
        cache.put(third, "c")              # evicts second
        assert cache.has(first) and cache.has(third)
        assert not cache.has_stale(second)
        assert cache.stats.evictions == 1

    def test_invalidate_user_drops_all_variants(self):
        cache = ResultCache(capacity=8, ttl_seconds=10.0, clock=FakeClock())
        cache.put((1, 5, frozenset()), "a")
        cache.put((1, 10, frozenset({7})), "b")
        cache.put((2, 5, frozenset()), "c")
        assert cache.invalidate_user(1) == 2
        assert len(cache) == 1
        assert cache.has((2, 5, frozenset()))

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)
        with pytest.raises(ValueError):
            ResultCache(ttl_seconds=0.0)


# --------------------------------------------------------------------- #
# telemetry
# --------------------------------------------------------------------- #
class TestTelemetry:
    def test_percentile_math(self):
        telemetry = ServingTelemetry(window=256, clock=FakeClock())
        for latency in range(1, 101):        # 1..100 ms
            telemetry.record(float(latency), ServingTier.FULL)
        percentiles = telemetry.latency_percentiles()
        assert percentiles["p50"] == pytest.approx(50.5)
        assert percentiles["p95"] == pytest.approx(95.05)
        assert percentiles["p99"] == pytest.approx(99.01)

    def test_qps_over_window(self):
        clock = FakeClock()
        telemetry = ServingTelemetry(window=16, clock=clock)
        for _ in range(11):
            telemetry.record(1.0, ServingTier.CACHE, cache_hit=True)
            clock.advance(0.1)
        assert telemetry.qps() == pytest.approx(10.0)
        assert telemetry.cache_hit_rate() == 1.0

    def test_empty_snapshot_is_uniformly_nan(self):
        telemetry = ServingTelemetry(window=8, clock=FakeClock())
        snapshot = telemetry.snapshot()
        assert snapshot["requests"] == 0
        assert math.isnan(snapshot["qps"])
        assert math.isnan(snapshot["cache_hit_rate"])
        assert all(math.isnan(value)
                   for value in snapshot["latency_ms"].values())
        assert {"p50", "p95", "p99", "p99.9"} == set(snapshot["latency_ms"])

    def test_configurable_percentiles_and_export_state(self):
        clock = FakeClock()
        telemetry = ServingTelemetry(window=8, clock=clock,
                                     percentiles=(50.0, 90.0))
        telemetry.record(5.0, ServingTier.FULL)
        clock.advance(1.0)
        telemetry.record(15.0, ServingTier.CACHE, cache_hit=True)
        assert set(telemetry.latency_percentiles()) == {"p50", "p90"}
        state = telemetry.export_state()
        assert state["samples"] == ((0.0, 5.0), (1.0, 15.0))
        assert state["tier_counts"] == {"full_search": 1, "cache": 1}
        assert state["cache_hits"] == 1 and state["requests"] == 2
        with pytest.raises(ValueError):
            ServingTelemetry(percentiles=())

    def test_tier_counts_and_reset(self):
        telemetry = ServingTelemetry(window=8, clock=FakeClock())
        telemetry.record(1.0, ServingTier.FULL)
        telemetry.record(1.0, ServingTier.EMBEDDING)
        telemetry.record(1.0, ServingTier.EMBEDDING)
        assert telemetry.tier_counts() == {"full_search": 1, "embedding_topk": 2}
        telemetry.reset()
        assert telemetry.requests == 0


# --------------------------------------------------------------------- #
# shared fixtures: a recommender + service over the tiny session stack
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def serving_stack(tiny_kg, tiny_representations):
    graph, category_graph, builder = tiny_kg
    policy = SharedPolicyNetworks(PolicyConfig(embedding_dim=16, hidden_size=8,
                                               mlp_hidden=16, seed=0))
    recommender = PathRecommender(graph, category_graph, tiny_representations, policy,
                                  max_path_length=4, max_entity_actions=8,
                                  max_category_actions=4,
                                  config=InferenceConfig(beam_width=6,
                                                         expansions_per_beam=2))
    service = RecommendationService(recommender,
                                    config=ServingConfig(cache_ttl_seconds=600.0))
    users = [builder.user_to_entity(user) for user in range(6)]
    return service, recommender, users, graph


def rolled_out(recommender, users):
    """Milestones of ``users`` from one ``warm_milestones`` batch on a cold cache."""
    recommender.clear_milestone_cache()
    recommender.warm_milestones(users)
    return {user: recommender.milestone_cache[user] for user in users}


class TestBatching:
    def test_batched_milestones_match_sequential(self, serving_stack):
        _, recommender, users, _ = serving_stack
        batched = rolled_out(recommender, users)
        for user in users:
            assert rolled_out(recommender, [user])[user] == batched[user]
        recommender.clear_milestone_cache()

    def test_batch_of_one_batch_of_all_and_scalar_reference_agree(self, serving_stack,
                                                                  tiny_dataset, tiny_kg):
        _, recommender, _, _ = serving_stack
        builder = tiny_kg[2]
        users = [builder.user_to_entity(user) for user in range(tiny_dataset.num_users)]
        together = rolled_out(recommender, users)
        for user in users:
            alone = rolled_out(recommender, [user])[user]
            assert alone == together[user]
            assert alone == category_milestones_reference(recommender, user)
        recommender.clear_milestone_cache()

    def test_warm_milestones_skips_cached_users(self, serving_stack):
        _, recommender, users, _ = serving_stack
        recommender.clear_milestone_cache()
        assert recommender.warm_milestones(users) == len(users)
        assert recommender.warm_milestones(users) == 0
        assert recommender.warm_milestones(users + users) == 0

    def test_single_agent_mode_yields_none_milestones(self, tiny_kg,
                                                      tiny_representations):
        graph, category_graph, builder = tiny_kg
        policy = SharedPolicyNetworks(PolicyConfig(embedding_dim=16, hidden_size=8,
                                                   mlp_hidden=16, seed=0))
        recommender = PathRecommender(graph, category_graph, tiny_representations,
                                      policy, max_path_length=3, max_entity_actions=6,
                                      use_dual_agent=False)
        user = builder.user_to_entity(0)
        assert rolled_out(recommender, [user])[user] == [None, None, None]


class TestService:
    def test_serve_many_matches_direct_recommend(self, serving_stack):
        service, recommender, users, _ = serving_stack
        requests = service.build_requests(users, top_k=4)
        responses = service.serve_many(requests)
        for request, response in zip(requests, responses):
            expected = recommender.recommend(request.user_entity, top_k=4)
            assert response.items == [path.item_entity for path in expected]
            assert response.tier in (ServingTier.FULL, ServingTier.CACHE)

    def test_duplicate_requests_collapse_to_cache_hits(self, serving_stack):
        service, _, users, _ = serving_stack
        service.cache.clear()
        requests = service.build_requests([users[0]] * 5, top_k=4)
        responses = service.serve_many(requests)
        assert sum(response.cache_hit for response in responses) == 4
        assert {tuple(response.items) for response in responses} == {
            tuple(responses[0].items)}

    def test_cold_user_results_are_cached(self, serving_stack):
        service, _, _, graph = serving_stack
        cold = graph.entities.ids_of_type(EntityType.FEATURE)[1]
        first = service.serve(RecommendationRequest(user_entity=cold, top_k=4))
        second = service.serve(RecommendationRequest(user_entity=cold, top_k=4))
        assert first.tier is ServingTier.EMBEDDING
        assert second.tier is ServingTier.CACHE and second.cache_hit
        assert second.items == first.items

    def test_mutating_a_response_does_not_corrupt_the_cache(self, serving_stack):
        service, _, users, _ = serving_stack
        request = RecommendationRequest(user_entity=users[4], top_k=4)
        first = service.serve(request)
        pristine = list(first.items)
        first.items.reverse()
        first.paths.clear()
        second = service.serve(request)
        assert second.cache_hit
        assert second.items == pristine

    def test_milestone_cache_is_lru_bounded(self, serving_stack):
        _, recommender, users, _ = serving_stack
        limit, recommender.milestone_cache_limit = recommender.milestone_cache_limit, 2
        try:
            recommender.clear_milestone_cache()
            for user in users[:4]:
                recommender.category_milestones(user)
            assert len(recommender.milestone_cache) == 2
            assert list(recommender.milestone_cache) == users[2:4]
        finally:
            recommender.milestone_cache_limit = limit
            recommender.clear_milestone_cache()

    def test_cold_user_takes_embedding_tier(self, serving_stack):
        service, _, _, graph = serving_stack
        # A feature entity has no purchase edges, which is exactly the cold
        # signal the tier chooser keys on.
        cold = graph.entities.ids_of_type(EntityType.FEATURE)[0]
        response = service.serve(RecommendationRequest(user_entity=cold, top_k=5))
        assert response.tier is ServingTier.EMBEDDING
        assert len(response.items) == 5
        assert all(graph.entities.is_item(item) for item in response.items)
        assert not response.explainable

    def test_tight_budget_without_stale_falls_back_to_embedding(self, serving_stack):
        service, _, users, _ = serving_stack
        request = RecommendationRequest(user_entity=users[1], top_k=3,
                                        exclude_items=frozenset({users[0]}),
                                        latency_budget_ms=1e-6)
        response = service.serve(request)
        assert response.tier is ServingTier.EMBEDDING

    def test_tight_budget_with_stale_entry_serves_stale(self, tiny_kg,
                                                        tiny_representations):
        graph, category_graph, builder = tiny_kg
        clock = FakeClock()
        policy = SharedPolicyNetworks(PolicyConfig(embedding_dim=16, hidden_size=8,
                                                   mlp_hidden=16, seed=0))
        service = RecommendationService(
            PathRecommender(graph, category_graph, tiny_representations, policy),
            config=ServingConfig(cache_ttl_seconds=5.0), clock=clock)
        user = builder.user_to_entity(0)
        fresh = service.serve(RecommendationRequest(user_entity=user, top_k=4))
        assert fresh.tier is ServingTier.FULL
        clock.advance(6.0)                               # expire the entry
        stale = service.serve(RecommendationRequest(user_entity=user, top_k=4,
                                                    latency_budget_ms=1e-6))
        assert stale.tier is ServingTier.STALE
        assert stale.items == fresh.items
        refused = service.serve(RecommendationRequest(user_entity=user, top_k=4,
                                                      latency_budget_ms=1e-6,
                                                      allow_stale=False))
        assert refused.tier is ServingTier.EMBEDDING

    def test_generous_budget_runs_full_search(self, serving_stack):
        service, _, users, _ = serving_stack
        request = RecommendationRequest(user_entity=users[2], top_k=3,
                                        exclude_items=frozenset({-1}),
                                        latency_budget_ms=1e9)
        assert service.serve(request).tier is ServingTier.FULL

    def test_invalidate_user_forces_recompute(self, serving_stack):
        service, recommender, users, _ = serving_stack
        user = users[3]
        service.serve(RecommendationRequest(user_entity=user, top_k=4))
        assert service.invalidate_user(user) >= 1
        assert user not in recommender.milestone_cache
        response = service.serve(RecommendationRequest(user_entity=user, top_k=4))
        assert not response.cache_hit

    def test_ewma_latency_estimate_tracks_observations(self, serving_stack):
        service, _, _, _ = serving_stack
        tiers = service.tiers
        before = tiers.estimated_full_search_ms
        tiers.observe_full_search(before * 3.0)
        assert tiers.estimated_full_search_ms > before

    def test_telemetry_snapshot_shape(self, serving_stack):
        service, _, users, _ = serving_stack
        service.serve_many(service.build_requests(users[:2], top_k=3))
        snapshot = service.telemetry_snapshot()
        assert snapshot["requests"] >= 2
        assert {"p50", "p95", "p99"} <= set(snapshot["latency_ms"])
        assert "cache" in snapshot and "hit_rate" in snapshot["cache"]

    def test_request_validation(self):
        with pytest.raises(ValueError):
            RecommendationRequest(user_entity=0, top_k=0)
        with pytest.raises(ValueError):
            RecommendationRequest(user_entity=0, latency_budget_ms=-1.0)
        request = RecommendationRequest(user_entity=0, exclude_items={1, 2})
        assert isinstance(request.exclude_items, frozenset)

    def test_serving_config_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(cache_capacity=0).validate()
        with pytest.raises(ValueError):
            ServingConfig(latency_ewma_alpha=0.0).validate()
        with pytest.raises(ValueError):
            ServingConfig(default_top_k=0).validate()


class TestBurstPlan:
    """``serve_many`` plans a burst, then answers it like a sequential ``serve`` loop."""

    @staticmethod
    def _service(tiny_kg, tiny_representations):
        graph, category_graph, _ = tiny_kg
        policy = SharedPolicyNetworks(PolicyConfig(embedding_dim=16, hidden_size=8,
                                                   mlp_hidden=16, seed=0))
        return RecommendationService(
            PathRecommender(graph, category_graph, tiny_representations, policy),
            config=ServingConfig(cache_capacity=64), clock=FakeClock())

    def test_mixed_burst_matches_sequential_serve(self, tiny_kg, tiny_representations):
        graph, _, builder = tiny_kg
        users = [builder.user_to_entity(user) for user in range(4)]
        cold = graph.entities.ids_of_type(EntityType.FEATURE)[0]
        burst = [
            RecommendationRequest(user_entity=users[0], top_k=4),
            RecommendationRequest(user_entity=users[1], top_k=4),
            RecommendationRequest(user_entity=users[0], top_k=4),         # duplicate key
            RecommendationRequest(user_entity=cold, top_k=4),             # cold user
            RecommendationRequest(user_entity=users[2], top_k=4,
                                  latency_budget_ms=1e-6),                # over budget
            RecommendationRequest(user_entity=users[3], top_k=3,
                                  latency_budget_ms=1e9),                 # budgeted, full
            RecommendationRequest(user_entity=cold, top_k=4),
            RecommendationRequest(user_entity=users[1], top_k=2,
                                  exclude_items=frozenset({users[0]})),
        ]
        batched_service = self._service(tiny_kg, tiny_representations)
        sequential_service = self._service(tiny_kg, tiny_representations)
        searches = []
        search = batched_service.recommender.recommend_requests

        def counted_search(requests, **kwargs):
            searches.append(len(requests))
            return search(requests, **kwargs)

        batched_service.recommender.recommend_requests = counted_search

        batched = batched_service.serve_many(burst)
        sequential = [sequential_service.serve(request) for request in burst]

        # The three unbudgeted full misses share one batch, in which the
        # user asked twice is searched once; the budgeted full request
        # searches inline at execution time.
        assert searches == [3, 1]
        assert (batched_service.search_stats.searches,
                batched_service.search_stats.derived) == (3, 1)
        assert [response.tier for response in batched] == [
            ServingTier.FULL, ServingTier.FULL, ServingTier.CACHE, ServingTier.EMBEDDING,
            ServingTier.EMBEDDING, ServingTier.FULL, ServingTier.CACHE, ServingTier.FULL]
        for ours, theirs in zip(batched, sequential):
            assert (ours.tier, ours.source_tier, ours.cache_hit, ours.items) == \
                (theirs.tier, theirs.source_tier, theirs.cache_hit, theirs.items)
            assert [path.hops for path in ours.paths] == [path.hops for path in theirs.paths]
        ours, theirs = (service.telemetry_snapshot()
                        for service in (batched_service, sequential_service))
        assert ours["cache"] == theirs["cache"]
        assert ours["estimated_full_search_ms"] == theirs["estimated_full_search_ms"]
        assert ours["tiers"] == theirs["tiers"]


class TestResponseProvenance:
    """``source_tier`` reports which tier computed the payload (satellite fix)."""

    def test_full_search_provenance_survives_the_cache(self, serving_stack):
        service, _, users, _ = serving_stack
        service.cache.clear()
        request = RecommendationRequest(user_entity=users[5], top_k=4)
        first = service.serve(request)
        second = service.serve(request)
        assert (first.tier, first.source_tier) == (ServingTier.FULL, ServingTier.FULL)
        assert (second.tier, second.source_tier) == (ServingTier.CACHE, ServingTier.FULL)

    def test_cold_embedding_provenance_survives_the_cache(self, serving_stack):
        service, _, _, graph = serving_stack
        cold = graph.entities.ids_of_type(EntityType.FEATURE)[2]
        first = service.serve(RecommendationRequest(user_entity=cold, top_k=4))
        second = service.serve(RecommendationRequest(user_entity=cold, top_k=4))
        assert first.source_tier is ServingTier.EMBEDDING
        assert second.tier is ServingTier.CACHE
        assert second.source_tier is ServingTier.EMBEDDING

    def test_stale_provenance_reports_the_original_tier(self, tiny_kg,
                                                        tiny_representations):
        graph, category_graph, builder = tiny_kg
        clock = FakeClock()
        policy = SharedPolicyNetworks(PolicyConfig(embedding_dim=16, hidden_size=8,
                                                   mlp_hidden=16, seed=0))
        service = RecommendationService(
            PathRecommender(graph, category_graph, tiny_representations, policy),
            config=ServingConfig(cache_ttl_seconds=5.0), clock=clock)
        user = builder.user_to_entity(1)
        service.serve(RecommendationRequest(user_entity=user, top_k=4))
        clock.advance(6.0)
        stale = service.serve(RecommendationRequest(user_entity=user, top_k=4,
                                                    latency_budget_ms=1e-6))
        assert stale.tier is ServingTier.STALE
        assert stale.source_tier is ServingTier.FULL
        assert not stale.cache_hit


class TestFallbackEdgeCases:
    """Tier-chain behaviour beyond the happy path."""

    def test_zero_latency_budget_degrades_instead_of_failing(self, serving_stack):
        service, _, users, _ = serving_stack
        service.cache.clear()
        response = service.serve(RecommendationRequest(user_entity=users[2], top_k=3,
                                                       latency_budget_ms=0.0))
        assert response.tier is ServingTier.EMBEDDING
        assert len(response.items) == 3

    def test_all_tiers_exhausted_returns_empty_not_error(self, serving_stack):
        """Everything excluded: full search and embedding both come up empty."""
        service, _, users, graph = serving_stack
        service.cache.clear()
        all_items = frozenset(graph.entities.ids_of_type(EntityType.ITEM))
        full = service.serve(RecommendationRequest(user_entity=users[0], top_k=3,
                                                   exclude_items=all_items))
        assert full.tier is ServingTier.FULL
        assert full.items == []
        cold = graph.entities.ids_of_type(EntityType.FEATURE)[3]
        degraded = service.serve(RecommendationRequest(user_entity=cold, top_k=3,
                                                       exclude_items=all_items))
        assert degraded.tier is ServingTier.EMBEDDING
        assert degraded.items == []
        over_budget = service.serve(RecommendationRequest(user_entity=users[1], top_k=3,
                                                          exclude_items=all_items,
                                                          latency_budget_ms=0.0,
                                                          allow_stale=True))
        assert over_budget.tier is ServingTier.EMBEDDING
        assert over_budget.items == []

    def test_expired_entry_stays_stale_until_evicted(self, tiny_kg,
                                                     tiny_representations):
        graph, category_graph, builder = tiny_kg
        clock = FakeClock()
        policy = SharedPolicyNetworks(PolicyConfig(embedding_dim=16, hidden_size=8,
                                                   mlp_hidden=16, seed=0))
        service = RecommendationService(
            PathRecommender(graph, category_graph, tiny_representations, policy),
            config=ServingConfig(cache_ttl_seconds=5.0), clock=clock)
        user = builder.user_to_entity(2)
        fresh = service.serve(RecommendationRequest(user_entity=user, top_k=4))
        clock.advance(60.0)                   # far beyond the TTL, still resident
        key = RecommendationRequest(user_entity=user, top_k=4).cache_key()
        assert not service.cache.has(key)
        assert service.cache.has_stale(key)
        stale = service.serve(RecommendationRequest(user_entity=user, top_k=4,
                                                    latency_budget_ms=1e-6))
        assert stale.tier is ServingTier.STALE
        assert stale.items == fresh.items
        # Once invalidated, the expired entry is gone and the same request
        # must fall through to the embedding tier instead.
        service.invalidate_user(user)
        refused = service.serve(RecommendationRequest(user_entity=user, top_k=4,
                                                      latency_budget_ms=1e-6))
        assert refused.tier is ServingTier.EMBEDDING

    def test_expired_entry_is_refreshed_by_a_generous_request(self, tiny_kg,
                                                              tiny_representations):
        graph, category_graph, builder = tiny_kg
        clock = FakeClock()
        policy = SharedPolicyNetworks(PolicyConfig(embedding_dim=16, hidden_size=8,
                                                   mlp_hidden=16, seed=0))
        service = RecommendationService(
            PathRecommender(graph, category_graph, tiny_representations, policy),
            config=ServingConfig(cache_ttl_seconds=5.0), clock=clock)
        user = builder.user_to_entity(3)
        service.serve(RecommendationRequest(user_entity=user, top_k=4))
        clock.advance(6.0)
        refreshed = service.serve(RecommendationRequest(user_entity=user, top_k=4))
        assert refreshed.tier is ServingTier.FULL     # expired entry is a miss
        hit = service.serve(RecommendationRequest(user_entity=user, top_k=4))
        assert hit.tier is ServingTier.CACHE          # and the refresh re-cached


class TestFallbackRanker:
    def test_representation_ranker_returns_items_best_first(self, serving_stack):
        service, recommender, users, graph = serving_stack
        ranker = RepresentationFallbackRanker(recommender.representations, graph)
        items = ranker.top_k(users[0], 5)
        assert len(items) == 5
        assert all(graph.entities.is_item(item) for item in items)

    def test_ranker_respects_exclusions(self, serving_stack):
        _, recommender, users, graph = serving_stack
        ranker = RepresentationFallbackRanker(recommender.representations, graph)
        full = ranker.top_k(users[0], 5)
        filtered = ranker.top_k(users[0], 5, exclude=frozenset(full[:2]))
        assert not set(full[:2]) & set(filtered)


class TestInferenceConfigSatellite:
    def test_rejects_non_positive_min_path_length(self):
        with pytest.raises(ValueError):
            InferenceConfig(min_path_length=0).validate()

    def test_recommender_rejects_min_longer_than_max(self, tiny_kg,
                                                     tiny_representations):
        graph, category_graph, _ = tiny_kg
        policy = SharedPolicyNetworks(PolicyConfig(embedding_dim=16, hidden_size=8,
                                                   mlp_hidden=16, seed=0))
        with pytest.raises(ValueError, match="min_path_length"):
            PathRecommender(graph, category_graph, tiny_representations, policy,
                            max_path_length=2,
                            config=InferenceConfig(min_path_length=3))


# --------------------------------------------------------------------- #
# regression: cache stats, scoped invalidation, fallback excludes
# --------------------------------------------------------------------- #
class TestCacheStatsRegression:
    def test_hit_rate_is_nan_before_any_lookup(self):
        cache = ResultCache(capacity=4, clock=FakeClock())
        assert math.isnan(cache.stats.hit_rate)       # undefined, not 0.0
        cache.get((1, 10, frozenset()))
        assert cache.stats.hit_rate == 0.0            # now a real measurement

    def test_hit_rate_counts_only_lookups(self):
        cache = ResultCache(capacity=4, clock=FakeClock())
        key = (1, 10, frozenset())
        cache.put(key, "value")                       # writes are not lookups
        assert math.isnan(cache.stats.hit_rate)
        cache.get(key)
        assert cache.stats.hit_rate == 1.0


class TestInvalidateEntitiesRegression:
    def test_dict_values_are_opaque_not_a_crash(self):
        cache = ResultCache(capacity=8, clock=FakeClock())
        cache.put((1, 5, frozenset()), {"payload": [7, 8]})
        # Pre-fix this raised TypeError: the dict's *bound ``.items`` method*
        # was handed to ``isdisjoint``.  A mapping payload matches on the
        # user key only.
        assert cache.invalidate_entities({7}) == 0
        assert cache.invalidate_entities({1}) == 1

    def test_opaque_and_response_like_values_mix(self):
        cache = ResultCache(capacity=8, clock=FakeClock())
        cache.put((1, 5, frozenset()), object())                     # no .items
        cache.put((2, 5, frozenset()), SimpleNamespace(items=(7, 9)))
        cache.put((3, 5, frozenset()), SimpleNamespace(items=42))    # not iterable
        assert cache.invalidate_entities({7}) == 1                   # only user 2
        assert not cache.has_stale((2, 5, frozenset()))
        assert cache.has_stale((1, 5, frozenset()))
        assert cache.has_stale((3, 5, frozenset()))

    def test_empty_entity_set_is_a_no_op(self):
        cache = ResultCache(capacity=8, clock=FakeClock())
        cache.put((1, 5, frozenset()), SimpleNamespace(items=(7,)))
        assert cache.invalidate_entities(set()) == 0
        assert len(cache) == 1


class TestCacheMigration:
    def _loaded(self, clock=None):
        cache = ResultCache(capacity=8, ttl_seconds=10.0, clock=clock or FakeClock())
        for user in (1, 2, 3):
            cache.put((user, 5, frozenset()), f"answer-{user}")
        return cache

    def test_export_is_counter_and_order_neutral(self):
        cache = self._loaded()
        before = dataclasses.replace(cache.stats)
        exported = cache.export_entries()
        assert [entry.key[0] for entry in exported] == [1, 2, 3]
        assert cache.stats == before and len(cache) == 3

    def test_export_filters_by_key(self):
        cache = self._loaded()
        exported = cache.export_entries(lambda key: key[0] != 2)
        assert [entry.key[0] for entry in exported] == [1, 3]

    def test_extract_removes_without_counting_invalidations(self):
        cache = self._loaded()
        extracted = cache.extract_entries(lambda key: key[0] == 2)
        assert [entry.key[0] for entry in extracted] == [2]
        assert len(cache) == 2
        assert cache.stats.invalidations == 0         # migration is not decay

    def test_absorb_preserves_expiry_and_skips_existing(self):
        clock = FakeClock()
        donor = self._loaded(clock)
        clock.advance(4.0)
        target = ResultCache(capacity=8, ttl_seconds=10.0, clock=clock)
        target.put((1, 5, frozenset()), "local-answer")
        adopted = target.absorb(donor.export_entries())
        assert adopted == 2                            # key 1 kept local copy
        assert target.get((1, 5, frozenset())) == "local-answer"
        # Migrated entries keep their original deadlines: they expire 10s
        # after the *donor* wrote them, not 10s after the move.
        clock.advance(6.1)
        assert not target.has((2, 5, frozenset()))
        assert target.has_stale((2, 5, frozenset()))

    def test_absorb_respects_capacity(self):
        donor = self._loaded()
        target = ResultCache(capacity=2, clock=FakeClock())
        assert target.absorb(donor.export_entries()) == 3
        assert len(target) == 2                        # oldest absorbed evicted
        assert target.stats.evictions == 1


class TestFallbackExcludeRegression:
    """``exclude`` may be any iterable — list, tuple, ndarray, generator.

    Pre-fix, an ndarray exclude crashed ``RepresentationFallbackRanker`` with
    "truth value of an array is ambiguous" and an exhausted/empty generator
    produced an empty-sequence ``np.fromiter`` edge case.
    """

    @pytest.fixture()
    def rankers(self, serving_stack, tiny_transe):
        _, recommender, users, graph = serving_stack
        transe, _ = tiny_transe
        return [RepresentationFallbackRanker(recommender.representations, graph),
                TransEFallbackRanker(transe, graph)], users

    def test_all_exclude_shapes_rank_identically(self, rankers):
        import numpy as np
        rankers, users = rankers
        for ranker in rankers:
            full = ranker.top_k(users[0], 5)
            banned = full[:2]
            expected = ranker.top_k(users[0], 5, exclude=list(banned))
            for shape in (tuple(banned), frozenset(banned),
                          np.asarray(banned, dtype=np.int64),
                          iter(banned)):
                assert ranker.top_k(users[0], 5, exclude=shape) == expected
            assert not set(banned) & set(expected)

    def test_empty_excludes_of_every_shape_are_no_ops(self, rankers):
        import numpy as np
        rankers, users = rankers
        for ranker in rankers:
            full = ranker.top_k(users[0], 5)
            for shape in ([], (), frozenset(),
                          np.asarray([], dtype=np.int64), iter(()), None):
                assert ranker.top_k(users[0], 5, exclude=shape) == full
