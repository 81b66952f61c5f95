"""One beam search per user per generation: the search store.

``PathRecommender.recommend_requests`` searches each user once, without
exclusions, and derives every ``(exclude_items, top_k)`` answer from the
stored outcome; the serving cache owns that store.  These tests pin that the
derived answers equal a fresh store-less search and the scalar reference,
that the store never changes what the cache counts, and that every way of
dropping answers (clear, invalidations, a generation flip) drops outcomes
too, while migration moves answers but never outcomes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterService
from repro.darl import InferenceConfig, PathRecommender, PolicyConfig, SharedPolicyNetworks
from repro.kg.entities import EntityType
from repro.perf import ScalarPathRecommender
from repro.serving import (
    CacheStats,
    RecommendationRequest,
    RecommendationService,
    ResultCache,
    SearchStore,
    ServingConfig,
    ServingTier,
)

SEARCH = dict(max_path_length=4, max_entity_actions=8, max_category_actions=4,
              config=InferenceConfig(beam_width=6, expansions_per_beam=2))
TTL = 100.0


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class StorelessRecommender(PathRecommender):
    """The serving search without a store: nothing outlives one call."""

    def recommend_requests(self, requests, *, searches=None):
        return super().recommend_requests(requests)


def _policy(seed: int = 0) -> SharedPolicyNetworks:
    return SharedPolicyNetworks(PolicyConfig(embedding_dim=16, hidden_size=8,
                                             mlp_hidden=16, seed=seed))


@pytest.fixture(scope="module")
def world(tiny_kg, tiny_representations):
    """Shared tables, six warm users and one cold entity, reference engines."""
    graph, category_graph, builder = tiny_kg
    policy = _policy()

    def make(cls=PathRecommender, chosen_policy=policy):
        return cls(graph, category_graph, tiny_representations, chosen_policy, **SEARCH)

    users = [builder.user_to_entity(user) for user in range(6)]
    cold = graph.entities.ids_of_type(EntityType.FEATURE)[0]
    fresh, scalar = make(), make(ScalarPathRecommender)
    items = {user: [path.item_entity for path in fresh.recommend(user, top_k=1000)]
             for user in users}
    return {"make": make, "users": users, "cold": cold, "fresh": fresh,
            "scalar": scalar, "items": items, "memo": {}}


def _service(world, cls=PathRecommender, capacity=64, clock=None, **kwargs):
    return RecommendationService(
        world["make"](cls, **kwargs),
        config=ServingConfig(cache_capacity=capacity, cache_ttl_seconds=TTL),
        clock=clock or FakeClock())


def _expected(world, user, exclude, top_k):
    """The fresh store-less answer, checked once against the scalar search."""
    key = (user, exclude, top_k)
    if key not in world["memo"]:
        fresh = world["fresh"].recommend(user, set(exclude), top_k)
        _assert_same_paths(world["scalar"].recommend(user, set(exclude), top_k), fresh)
        world["memo"][key] = fresh
    return world["memo"][key]


def _assert_same_paths(actual, expected):
    """Same items and hops in the same order; scores equal up to the last
    bits, which the frontier search's BLAS calls vary with batch shape."""
    assert [(p.item_entity, p.hops) for p in actual] == \
        [(p.item_entity, p.hops) for p in expected]
    assert np.allclose([p.score for p in actual], [p.score for p in expected],
                       rtol=1e-12, atol=0.0)


def _outcome(response):
    return (response.items, [(p.item_entity, p.hops) for p in response.paths],
            response.tier, response.source_tier, response.cache_hit,
            response.generation)


# --------------------------------------------------------------------------- #
# the store itself
# --------------------------------------------------------------------------- #
class TestSearchStore:
    def test_lru_bound_reads_refresh_and_peeks_do_not(self):
        store = SearchStore(capacity=2)
        store[1], store[2] = ("a",), ("b",)
        assert store.get(1) == ("a",)          # 1 is now the most recent
        store[3] = ("c",)
        assert list(store) == [1, 3]
        assert 1 in store and 2 not in store   # peeks leave the order alone
        assert list(store.items()) == [(1, ("a",)), (3, ("c",))]
        store[4] = ("d",)
        assert list(store) == [3, 4]

    def test_cache_drops_outcomes_with_answers_and_counts_nothing(self, world):
        fresh = world["fresh"]
        first, second = world["users"][:2]
        cache = ResultCache(capacity=8, clock=FakeClock())
        fresh.recommend_requests([(first, set(), 3), (second, set(), 3)],
                                 searches=cache.searches)
        assert set(cache.searches) == {first, second}
        assert cache.stats == CacheStats()
        cache.invalidate_user(first)
        assert set(cache.searches) == {second}
        item = world["items"][second][-1]
        cache.invalidate_entities({item})
        assert len(cache.searches) == 0
        fresh.recommend_requests([(first, set(), 3)], searches=cache.searches)
        cache.invalidate((first, 3, frozenset()))
        assert len(cache.searches) == 0
        fresh.recommend_requests([(first, set(), 3)], searches=cache.searches)
        cache.clear()
        assert len(cache.searches) == 0
        assert cache.stats.hits == cache.stats.misses == cache.stats.evictions == 0

    @pytest.mark.parametrize("capacity", [1, 2])
    def test_a_batch_larger_than_the_store_answers_every_request(self, world, capacity):
        users = world["users"]
        store = SearchStore(capacity)
        requests = [(user, set(), k) for user, k in zip(users, (1, 4, 2, 7, 3, 12))]
        requests += [(users[0], set(world["items"][users[0]][:1]), 5)]
        answers = world["fresh"].recommend_requests(requests, searches=store)
        assert len(store) == capacity
        for (user, exclude, k), paths in zip(requests, answers):
            _assert_same_paths(paths, _expected(world, user, frozenset(exclude), k))

    def test_a_batch_searches_each_user_once_without_a_store(self, world, monkeypatch):
        recommender = world["make"]()
        user = world["users"][1]
        searched = []
        search = recommender._search_users
        monkeypatch.setattr(recommender, "_search_users",
                            lambda users: searched.append(list(users)) or search(users))
        recommender.recommend_requests([(user, set(), 5), (user, set(), 10),
                                        (user, set(world["items"][user][:2]), 5)])
        assert searched == [[user]]


# --------------------------------------------------------------------------- #
# random request streams through a store-backed service
# --------------------------------------------------------------------------- #
# Few hot users and a few exclusion shapes, so keys and users repeat.
request_strategy = st.tuples(
    st.one_of(st.integers(0, 1), st.integers(0, 6)),        # user slot (6 = cold)
    st.integers(1, 12),                                     # top_k
    st.one_of(st.sampled_from([0, 1, 6]), st.integers(0, 2 ** 8 - 1)),  # exclusion mask
    st.sampled_from([None, None, 0.0, 1e9]))                # latency budget
serve = st.tuples(st.just("serve"), st.lists(request_strategy, min_size=1, max_size=6))
op_strategy = st.one_of(
    serve, serve, serve,
    st.tuples(st.just("clear")),
    st.tuples(st.just("invalidate_user"), st.integers(0, 5)),
    st.tuples(st.just("invalidate_entities"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("expire")),
)


class TestRandomStreams:
    @given(capacity=st.sampled_from([1, 2, 3, 64]),
           ops=st.lists(op_strategy, min_size=2, max_size=14))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_answers_and_cache_stats_equal_the_storeless_service(self, world,
                                                                 capacity, ops):
        users = world["users"] + [world["cold"]]
        pool = sorted({item for found in world["items"].values() for item in found}
                      | set(world["users"]))
        clock = FakeClock()
        stored = _service(world, capacity=capacity, clock=clock)
        storeless = _service(world, StorelessRecommender, capacity=capacity, clock=clock)
        for op in ops:
            if op[0] == "serve":
                burst = []
                for slot, top_k, mask, budget in op[1]:
                    user = users[slot]
                    found = world["items"].get(user, [])[:8]
                    exclude = frozenset(item for bit, item in enumerate(found)
                                        if mask >> bit & 1)
                    burst.append(RecommendationRequest(
                        user_entity=user, top_k=top_k, exclude_items=exclude,
                        latency_budget_ms=budget))
                ours = stored.serve_many(burst)
                theirs = storeless.serve_many(burst)
                for request, mine, reference in zip(burst, ours, theirs):
                    assert _outcome(mine) == _outcome(reference)
                    if mine.source_tier is ServingTier.FULL:
                        _assert_same_paths(mine.paths, _expected(
                            world, request.user_entity, request.exclude_items,
                            request.top_k))
            elif op[0] == "clear":
                stored.cache.clear()
                storeless.cache.clear()
                assert len(stored.cache.searches) == 0
            elif op[0] == "invalidate_user":
                user = users[op[1]]
                assert stored.invalidate_user(user) == storeless.invalidate_user(user)
                assert user not in stored.cache.searches
            elif op[0] == "invalidate_entities":
                touched = {pool[op[1] % len(pool)]}
                assert (stored.invalidate_entities(touched)
                        == storeless.invalidate_entities(touched))
                for user, outcome in stored.cache.searches.items():
                    assert user not in touched
                    assert touched.isdisjoint(path.item_entity for path in outcome)
            else:
                clock.now += 2 * TTL
            assert len(stored.cache.searches) <= capacity
        assert stored.cache.stats == storeless.cache.stats
        stats = stored.search_stats
        assert stats.searches + stats.derived == \
            storeless.search_stats.searches + storeless.search_stats.derived
        assert stats.searches <= storeless.search_stats.searches


# --------------------------------------------------------------------------- #
# generation flips and migration
# --------------------------------------------------------------------------- #
class TestGenerations:
    def test_a_carried_cache_never_answers_the_next_generation_from_an_old_search(
            self, world):
        users = world["users"]
        clock = FakeClock()
        old = _service(world, clock=clock)
        new = RecommendationService(
            world["make"](chosen_policy=_policy(seed=1)),
            config=ServingConfig(cache_capacity=64, cache_ttl_seconds=TTL),
            clock=clock, generation=1)
        new_answers = {user: [p.item_entity for p in
                              PathRecommender.like(new.recommender).recommend(user, top_k=3)]
                       for user in users}
        old_answers = {user: [p.item_entity for p in world["fresh"].recommend(user, top_k=3)]
                       for user in users}
        assert any(new_answers[user] != old_answers[user] for user in users)

        cluster = ClusterService([old], config=ClusterConfig(num_shards=1,
                                                             replication_factor=1),
                                 clock=clock)
        carried = old.serve_many([RecommendationRequest(user_entity=user, top_k=5)
                                  for user in users])
        assert set(old.cache.searches) == set(users)
        cluster.replace_shard_service(0, new)
        assert new.cache is old.cache and len(new.cache.searches) == 0
        assert new.search_stats is old.search_stats

        # Carried answers still report the generation that computed them ...
        for user, before in zip(users, carried):
            again = new.serve(RecommendationRequest(user_entity=user, top_k=5))
            assert (again.items, again.generation, again.cache_hit) == \
                (before.items, 0, True)
        # ... and a new shape of an old user searches the new tables.
        for user in users:
            fresh = new.serve(RecommendationRequest(user_entity=user, top_k=3))
            assert (fresh.items, fresh.generation, fresh.cache_hit) == \
                (new_answers[user], 1, False)

    def test_migration_moves_answers_but_never_outcomes(self, world):
        users = world["users"]
        clock = FakeClock()
        donor, target = _service(world, clock=clock), _service(world, clock=clock)
        donor.serve_many([RecommendationRequest(user_entity=user, top_k=4)
                          for user in users])
        moved = set(users[:3])
        assert len(target.cache.export_entries()) == 0
        adopted = target.cache.absorb(
            donor.cache.extract_entries(lambda key: key[0] in moved))
        assert adopted == len(moved)
        assert len(target.cache.searches) == 0
        # The donor's outcomes were computed by tables it still serves.
        assert set(donor.cache.searches) == set(users)
        for user in moved:
            hit = target.serve(RecommendationRequest(user_entity=user, top_k=4))
            assert hit.cache_hit
            other = target.serve(RecommendationRequest(user_entity=user, top_k=2))
            _assert_same_paths(other.paths, _expected(world, user, frozenset(), 2))
        assert target.search_stats.searches == len(moved)
        copied = donor.cache.export_entries()
        assert len(copied) == len(users) - len(moved)
        assert set(donor.cache.searches) == set(users)
