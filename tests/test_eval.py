"""Unit tests for metrics, the evaluation protocol, timing and explanations."""

import math

import numpy as np
import pytest

from repro.eval import (
    aggregate_metrics,
    all_metrics,
    as_percentages,
    categories_along_path,
    evaluate_recommender,
    explain_recommendations,
    fraction_beyond_three_hops,
    hit_ratio_at_k,
    measure_efficiency,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
    render_path,
)
from repro.eval.evaluator import compare_models
from repro.kg import Relation
from repro.rl.trajectory import RecommendationPath


class TestMetrics:
    def test_precision_exact_values(self):
        assert precision_at_k([1, 2, 3, 4, 5], [1, 9], k=5) == pytest.approx(0.2)
        assert precision_at_k([1, 2], [3], k=10) == 0.0

    def test_recall_exact_values(self):
        assert recall_at_k([1, 2, 3], [1, 2, 9, 10], k=3) == pytest.approx(0.5)
        assert recall_at_k([1, 2, 3], [1, 2, 3], k=3) == pytest.approx(1.0)

    def test_hit_ratio(self):
        assert hit_ratio_at_k([5, 6, 7], [7]) == 1.0
        assert hit_ratio_at_k([5, 6, 7], [8]) == 0.0

    def test_ndcg_perfect_ranking_is_one(self):
        assert ndcg_at_k([1, 2, 3], [1, 2, 3], k=3) == pytest.approx(1.0)

    def test_ndcg_position_discount(self):
        top = ndcg_at_k([1, 99, 98], [1], k=3)
        bottom = ndcg_at_k([99, 98, 1], [1], k=3)
        assert top == pytest.approx(1.0)
        assert bottom < top

    def test_ndcg_known_value(self):
        # Single relevant item at rank 2: DCG = 1/log2(3), IDCG = 1.
        assert ndcg_at_k([9, 1], [1], k=2) == pytest.approx(1.0 / np.log2(3))

    def test_empty_relevant_set_gives_zero(self):
        for metric in (precision_at_k, recall_at_k, hit_ratio_at_k, ndcg_at_k):
            assert metric([1, 2, 3], []) == 0.0

    def test_invalid_k_raises(self):
        for metric in (precision_at_k, recall_at_k, hit_ratio_at_k, ndcg_at_k):
            with pytest.raises(ValueError):
                metric([1], [1], k=0)

    def test_all_metrics_keys(self):
        metrics = all_metrics([1, 2], [2], k=2)
        assert set(metrics) == {"ndcg", "recall", "hit_ratio", "precision"}

    def test_metrics_bounded_by_one(self):
        metrics = all_metrics([1, 2, 3], [1, 2, 3, 4], k=3)
        assert all(0.0 <= value <= 1.0 for value in metrics.values())

    def test_aggregate_and_percentages(self):
        per_user = [{"ndcg": 1.0, "recall": 0.5, "hit_ratio": 1.0, "precision": 0.2},
                    {"ndcg": 0.0, "recall": 0.5, "hit_ratio": 0.0, "precision": 0.0}]
        aggregated = aggregate_metrics(per_user)
        assert aggregated["ndcg"] == pytest.approx(0.5)
        assert as_percentages(aggregated)["recall"] == pytest.approx(50.0)

    def test_aggregate_empty_input(self):
        assert aggregate_metrics([]) == {"ndcg": 0.0, "recall": 0.0,
                                         "hit_ratio": 0.0, "precision": 0.0}


class _OracleRecommender:
    """Recommends exactly the held-out items (upper bound for the evaluator)."""

    name = "Oracle"

    def __init__(self, split):
        from repro.data.splits import test_user_items
        self._test = test_user_items(split)

    def recommend_items(self, user_id, top_k=10):
        return list(self._test.get(user_id, []))[:top_k]


class _EmptyRecommender:
    name = "Empty"

    def recommend_items(self, user_id, top_k=10):
        return []


class TestEvaluator:
    def test_oracle_scores_perfectly(self, tiny_split):
        result = evaluate_recommender(_OracleRecommender(tiny_split), tiny_split)
        assert result.metrics["hit_ratio"] == pytest.approx(100.0)
        assert result.metrics["ndcg"] == pytest.approx(100.0)

    def test_empty_recommender_scores_zero(self, tiny_split):
        result = evaluate_recommender(_EmptyRecommender(), tiny_split)
        assert result.metrics["ndcg"] == 0.0
        assert result.num_users > 0

    def test_user_subset_restricts_evaluation(self, tiny_split):
        all_users = evaluate_recommender(_EmptyRecommender(), tiny_split)
        some_users = evaluate_recommender(_EmptyRecommender(), tiny_split, users=[0, 1])
        assert some_users.num_users <= 2 < all_users.num_users

    def test_summary_row_format(self, tiny_split):
        result = evaluate_recommender(_EmptyRecommender(), tiny_split)
        row = result.summary_row()
        assert "Empty" in row and "NDCG" in row

    def test_compare_models_preserves_order(self, tiny_split):
        results = compare_models([_EmptyRecommender(), _OracleRecommender(tiny_split)],
                                 tiny_split)
        assert [r.model_name for r in results] == ["Empty", "Oracle"]

    def test_getitem_access(self, tiny_split):
        result = evaluate_recommender(_OracleRecommender(tiny_split), tiny_split)
        assert result["ndcg"] == result.metrics["ndcg"]


class _SleepyRecommender:
    name = "Sleepy"

    def recommend_items(self, user_id, top_k=10):
        return list(range(top_k))

    def find_paths(self, user_id, num_paths):
        return [RecommendationPath(user_entity=0, item_entity=1,
                                   hops=((Relation.PURCHASE, 1),), score=0.0)
                for _ in range(num_paths)]


class TestTiming:
    def test_measure_efficiency_counts(self):
        result = measure_efficiency(_SleepyRecommender(), users=[0, 1, 2], paths_per_user=4)
        assert result.recommendation_users == 3
        assert result.paths_found == 12
        assert result.recommendation_seconds >= 0.0

    def test_extrapolation_units(self):
        result = measure_efficiency(_SleepyRecommender(), users=[0, 1], paths_per_user=5)
        assert result.recommendation_per_1k_users() == pytest.approx(
            1000 * result.recommendation_seconds / 2)
        assert result.pathfinding_per_10k_paths() == pytest.approx(
            10000 * result.pathfinding_seconds / 10)

    def test_model_without_find_paths(self):
        result = measure_efficiency(_EmptyRecommender(), users=[0])
        assert result.paths_found == 0
        assert math.isnan(result.pathfinding_per_10k_paths())
        assert "n/a" in result.summary_row()

    def test_empty_user_list_is_nan_not_zero(self):
        result = measure_efficiency(_SleepyRecommender(), users=[])
        assert math.isnan(result.recommendation_per_1k_users())
        assert "n/a" in result.summary_row()

    def test_summary_row(self):
        row = measure_efficiency(_SleepyRecommender(), users=[0]).summary_row()
        assert "Sleepy" in row


class TestExplanations:
    @pytest.fixture()
    def sample_path(self, tiny_kg):
        graph, _, builder = tiny_kg
        user = builder.user_to_entity(0)
        item0 = builder.item_to_entity(0)
        item1 = builder.item_to_entity(1)
        return graph, RecommendationPath(
            user_entity=user, item_entity=item1,
            hops=((Relation.PURCHASE, item0), (Relation.ALSO_BOUGHT, item1)), score=-1.2)

    def test_render_path_contains_relations_and_entities(self, sample_path):
        graph, path = sample_path
        text = render_path(graph, path)
        assert "purchase" in text
        assert "also_bought" in text
        assert text.startswith("user:")

    def test_categories_along_path(self, sample_path):
        graph, path = sample_path
        categories = categories_along_path(graph, path)
        assert len(categories) >= 1

    def test_explain_recommendations(self, sample_path):
        graph, path = sample_path
        explained = explain_recommendations(graph, [path])
        assert len(explained) == 1
        assert explained[0].path_length == 2
        assert explained[0].score == pytest.approx(-1.2)

    def test_fraction_beyond_three_hops(self, sample_path):
        _, path = sample_path
        long_path = RecommendationPath(user_entity=0, item_entity=1,
                                       hops=tuple([(Relation.ALSO_BOUGHT, 1)] * 5), score=0.0)
        assert fraction_beyond_three_hops([path, long_path]) == pytest.approx(0.5)
        # NaN convention: with no paths the share is undefined, not 0.
        assert np.isnan(fraction_beyond_three_hops([]))
