"""Benchmark: warm-cache served throughput vs. an uncached batched search.

Serves 50 synthetic users (with duplicates, as real traffic has) through
``RecommendationService.serve_many`` with a warm cache and compares against
``PathRecommender.recommend_many`` — one batched frontier search over the
same users with no result cache in front.  Prints both QPS numbers and
asserts the serving path is faster while returning identical top-k item sets
for the warm (non-fallback) users.
"""

import time

import pytest

from repro.darl import CADRL, CADRLConfig
from repro.data import SyntheticConfig, generate, split_interactions
from repro.serving import RecommendationService, ServingConfig, ServingTier

NUM_REQUESTS = 50
TOP_K = 5


def _train_small_model():
    config = SyntheticConfig(name="serving-bench", num_users=25, num_items=60,
                             num_brands=8, num_features=16, num_categories=6,
                             num_clusters=3, interactions_per_user=(4, 8), seed=11)
    dataset = generate(config)
    split = split_interactions(dataset, seed=1)
    cadrl_config = CADRLConfig.fast(embedding_dim=16, seed=0)
    cadrl_config.transe.epochs = 5
    cadrl_config.cggnn_training.epochs = 3
    cadrl_config.darl.epochs = 1
    cadrl_config.darl.max_path_length = 4
    cadrl_config.darl.max_entity_actions = 10
    cadrl_config.inference.beam_width = 8
    return CADRL(cadrl_config).fit(dataset, split), dataset


@pytest.mark.slow
def test_served_throughput_beats_naive_loop(bench_once, benchmark):
    model, dataset = _train_small_model()
    service = RecommendationService.from_cadrl(
        model, config=ServingConfig(cache_ttl_seconds=600.0))
    recommender = model.recommender

    # 50 requests over the synthetic audience — users repeat, like real traffic.
    user_entities = [model.builder.user_to_entity(user % dataset.num_users)
                     for user in range(NUM_REQUESTS)]
    requests = service.build_requests(user_entities, top_k=TOP_K)

    def serve_warm():
        service.warm_up(user_entities, top_k=TOP_K)      # fills result cache
        start = time.perf_counter()
        responses = service.serve_many(requests)
        return time.perf_counter() - start, responses

    served_seconds, responses = bench_once(benchmark, serve_warm)

    start = time.perf_counter()
    naive = recommender.recommend_many(user_entities, top_k=TOP_K)
    naive_seconds = time.perf_counter() - start

    print()
    print(f"uncached recommend_many:    {naive_seconds:.4f}s "
          f"({NUM_REQUESTS / naive_seconds:8.0f} QPS)")
    print(f"served (warm cache):        {served_seconds:.4f}s "
          f"({NUM_REQUESTS / served_seconds:8.0f} QPS)")
    print(f"cache-hit speedup:          {naive_seconds / served_seconds:.1f}x")

    # Identical results for every warm (non-fallback) user, and a real speedup.
    for request, response in zip(requests, responses):
        if response.tier in (ServingTier.CACHE, ServingTier.FULL):
            expected = [path.item_entity for path in naive[request.user_entity]]
            assert response.items == expected
    assert served_seconds < naive_seconds, (
        f"warm serving ({served_seconds:.4f}s) should beat the naive loop "
        f"({naive_seconds:.4f}s)")
