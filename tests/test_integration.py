"""End-to-end integration tests across substrates, the core model and baselines."""

import copy

import numpy as np
import pytest

from repro.baselines import SingleAgentConfig, build_baseline
from repro.darl import VARIANT_OVERRIDES, CADRL, CADRLConfig, apply_overrides
from repro.data import SyntheticConfig, generate, split_interactions
from repro.eval import evaluate_recommender, measure_efficiency
from repro.eval.explanations import explain_recommendations
from repro.kg import build_knowledge_graph


@pytest.fixture(scope="module")
def pipeline_dataset():
    dataset = generate(SyntheticConfig(name="integration", num_users=25, num_items=50,
                                       num_brands=6, num_features=12, num_categories=5,
                                       num_clusters=2, interactions_per_user=(4, 7), seed=3))
    split = split_interactions(dataset, seed=3)
    return dataset, split


@pytest.fixture(scope="module")
def fast_config():
    config = CADRLConfig.fast(embedding_dim=16, seed=1)
    config.transe.epochs = 6
    config.cggnn_training.epochs = 4
    config.darl.epochs = 2
    config.darl.max_path_length = 4
    config.darl.max_entity_actions = 10
    config.inference.beam_width = 8
    return config


@pytest.fixture(scope="module")
def fitted_cadrl(pipeline_dataset, fast_config):
    dataset, split = pipeline_dataset
    return CADRL(fast_config).fit(dataset, split)


class TestFullPipeline:
    def test_pipeline_stages_are_populated(self, fitted_cadrl):
        assert fitted_cadrl.graph is not None
        assert fitted_cadrl.category_graph is not None
        assert fitted_cadrl.representations is not None
        assert fitted_cadrl.recommender is not None

    def test_evaluation_produces_nonzero_hit_ratio(self, fitted_cadrl, pipeline_dataset):
        _, split = pipeline_dataset
        result = evaluate_recommender(fitted_cadrl, split)
        assert result.num_users > 0
        assert result.metrics["hit_ratio"] > 0.0

    def test_cadrl_beats_random_ranking(self, fitted_cadrl, pipeline_dataset):
        dataset, split = pipeline_dataset

        class RandomRecommender:
            name = "Random"

            def __init__(self, num_items, seed=0):
                self.rng = np.random.default_rng(seed)
                self.num_items = num_items

            def recommend_items(self, user_id, top_k=10):
                return list(self.rng.choice(self.num_items, size=top_k, replace=False))

        random_result = evaluate_recommender(RandomRecommender(dataset.num_items), split)
        cadrl_result = evaluate_recommender(fitted_cadrl, split)
        assert cadrl_result.metrics["ndcg"] > random_result.metrics["ndcg"]

    def test_explanations_render_for_recommendations(self, fitted_cadrl):
        paths = fitted_cadrl.recommend_paths(0, top_k=3)
        explained = explain_recommendations(fitted_cadrl.graph, paths)
        for explanation in explained:
            assert explanation.item_name
            assert "-->" in explanation.explanation

    def test_efficiency_measurement_runs(self, fitted_cadrl):
        timing = measure_efficiency(fitted_cadrl, users=[0, 1], paths_per_user=5)
        assert timing.recommendation_users == 2
        assert timing.paths_found > 0

    def test_ablation_variant_trains_on_same_data(self, pipeline_dataset, fast_config):
        dataset, split = pipeline_dataset
        config = apply_overrides(copy.deepcopy(fast_config), VARIANT_OVERRIDES["CADRL w/o DARL"])
        variant = CADRL(config).fit(dataset, split)
        assert variant.config.darl.use_dual_agent is False
        result = evaluate_recommender(variant, split)
        assert result.num_users > 0

    def test_baseline_and_cadrl_share_protocol(self, pipeline_dataset, fitted_cadrl):
        dataset, split = pipeline_dataset
        pgpr = build_baseline("PGPR", config=SingleAgentConfig(epochs=1, transe_epochs=3,
                                                               max_actions=10, seed=0),
                              seed=0).fit(dataset, split)
        pgpr_result = evaluate_recommender(pgpr, split)
        cadrl_result = evaluate_recommender(fitted_cadrl, split)
        assert set(pgpr_result.metrics) == set(cadrl_result.metrics)

    def test_kg_is_rebuildable_from_dataset(self, pipeline_dataset):
        dataset, split = pipeline_dataset
        graph_a, _, _ = build_knowledge_graph(dataset, split.train)
        graph_b, _, _ = build_knowledge_graph(dataset, split.train)
        assert graph_a.num_triplets == graph_b.num_triplets
        assert graph_a.statistics() == graph_b.statistics()
