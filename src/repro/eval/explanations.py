"""Explanation-path inspection utilities (the case study of Fig. 7 / RQ7)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..kg.entities import EntityType
from ..kg.graph import KnowledgeGraph
from ..rl.trajectory import RecommendationPath


@dataclass
class ExplainedRecommendation:
    """A recommendation with its rendered explanation and path statistics."""

    item_name: str
    explanation: str
    path_length: int
    categories_crossed: List[str]
    score: float


def render_path(graph: KnowledgeGraph, path: RecommendationPath) -> str:
    """Render a path as ``user --relation--> entity --...--> item``."""
    parts = [str(graph.entities.get(path.user_entity))]
    for relation, entity in path.hops:
        parts.append(f"--{relation.value}--> {graph.entities.get(entity)}")
    return " ".join(parts)


def categories_along_path(graph: KnowledgeGraph, path: RecommendationPath) -> List[str]:
    """Category labels of every item visited along the path (in order)."""
    names: List[str] = []
    for _, entity in path.hops:
        if graph.entities.type_of(entity) == EntityType.ITEM:
            category = graph.category_of(entity)
            if category is not None:
                name = graph.category_name(category)
                if not names or names[-1] != name:
                    names.append(name)
    return names


def explain_recommendations(graph: KnowledgeGraph, paths: Sequence[RecommendationPath]
                            ) -> List[ExplainedRecommendation]:
    """Turn raw recommendation paths into human-readable explanations."""
    explained: List[ExplainedRecommendation] = []
    for path in paths:
        explained.append(ExplainedRecommendation(
            item_name=graph.entities.get(path.item_entity).name,
            explanation=render_path(graph, path),
            path_length=path.length,
            categories_crossed=categories_along_path(graph, path),
            score=path.score,
        ))
    return explained


def fraction_beyond_three_hops(paths: Sequence[RecommendationPath]) -> float:
    """Share of explanation paths longer than the 3-hop limit of prior work."""
    if not paths:
        return float("nan")  # no paths: the share is undefined, not 0
    beyond = sum(1 for path in paths if path.length > 3)
    return beyond / len(paths)
