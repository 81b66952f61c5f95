"""Benchmark: seeded load replay through the serving stack, oracle-verified.

Generates a Zipf-skewed, bursty 500-request workload over a small trained
model, replays it open-loop through ``RecommendationService`` and prints the
replay report.  The oracle battery runs on the records afterwards, so the
benchmark doubles as an end-to-end correctness check under load.
"""

import pytest

from repro.darl import CADRL, CADRLConfig
from repro.data import SyntheticConfig, generate, split_interactions
from repro.kg.entities import EntityType
from repro.serving import RecommendationService, ServingConfig
from repro.simulate import (
    ReplayDriver,
    UserPopulation,
    WorkloadConfig,
    audit,
    generate_workload,
    render_report,
    summarize,
)

NUM_REQUESTS = 500


def _train_small_model():
    config = SyntheticConfig(name="simulate-bench", num_users=25, num_items=60,
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
    return CADRL(cadrl_config).fit(dataset, split)


@pytest.mark.slow
def test_replay_throughput_with_oracles(bench_once, benchmark):
    model = _train_small_model()
    service = RecommendationService.from_cadrl(
        model, config=ServingConfig(cache_ttl_seconds=600.0))
    cold_standins = model.graph.entities.ids_of_type(EntityType.FEATURE)[:4]
    population = UserPopulation.from_graph(model.graph,
                                           extra_cold_users=cold_standins)
    workload = generate_workload(
        population,
        WorkloadConfig(num_requests=NUM_REQUESTS, seed=3, arrival="bursty",
                       mean_qps=400.0),
        model.graph)

    result = bench_once(benchmark, ReplayDriver(service).replay, workload)

    reports = audit(service, result.records, full_search_sample=30, seed=0)
    print()
    print(render_report(summarize(result, reports)))
    assert len(result) == NUM_REQUESTS
    assert result.cache_hit_rate() > 0.3
    assert all(report.ok for report in reports), [r.summary() for r in reports]
