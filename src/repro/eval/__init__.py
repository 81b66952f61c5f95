"""Evaluation substrate: ranking metrics, protocol, timing and explanations."""

from .evaluator import EvaluationResult, ItemRecommender, compare_models, evaluate_recommender
from .explanations import (
    ExplainedRecommendation,
    categories_along_path,
    explain_recommendations,
    fraction_beyond_three_hops,
    render_path,
)
from .metrics import (
    METRIC_FUNCTIONS,
    aggregate_metrics,
    all_metrics,
    as_percentages,
    hit_ratio_at_k,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
)
from .timing import TimingResult, measure_efficiency, time_pathfinding, time_recommendations

__all__ = [
    "EvaluationResult",
    "ExplainedRecommendation",
    "ItemRecommender",
    "METRIC_FUNCTIONS",
    "TimingResult",
    "aggregate_metrics",
    "all_metrics",
    "as_percentages",
    "categories_along_path",
    "compare_models",
    "evaluate_recommender",
    "explain_recommendations",
    "fraction_beyond_three_hops",
    "hit_ratio_at_k",
    "measure_efficiency",
    "ndcg_at_k",
    "precision_at_k",
    "recall_at_k",
    "render_path",
    "time_pathfinding",
    "time_recommendations",
]
