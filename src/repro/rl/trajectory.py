"""Trajectory containers shared by CADRL and the RL baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..kg.relations import Relation


@dataclass
class EntityStep:
    """One decision of the entity agent."""

    entity_id: int                 # entity occupied *after* taking the action
    relation: Relation             # relation traversed to get there
    log_prob: Optional[float]      # log π(a|s) — None during evaluation rollouts
    reward: float = 0.0


@dataclass
class CategoryStep:
    """One decision of the category agent."""

    category_id: int
    log_prob: Optional[float]      # log π(a|s) — None during evaluation rollouts
    reward: float = 0.0


@dataclass
class EpisodeResult:
    """A full dual-agent episode (or a single-agent one with empty category part)."""

    user_id: int
    start_entity: int
    entity_steps: List[EntityStep] = field(default_factory=list)
    category_steps: List[CategoryStep] = field(default_factory=list)

    @property
    def final_entity(self) -> int:
        if not self.entity_steps:
            return self.start_entity
        return self.entity_steps[-1].entity_id

    @property
    def final_category(self) -> Optional[int]:
        if not self.category_steps:
            return None
        return self.category_steps[-1].category_id

    def entity_path(self) -> List[Tuple[Relation, int]]:
        """The walked path as ``[(relation, entity), ...]`` excluding the start."""
        return [(step.relation, step.entity_id) for step in self.entity_steps]

    def category_path(self) -> List[int]:
        """The category-level trajectory."""
        return [step.category_id for step in self.category_steps]

    def total_entity_reward(self) -> float:
        return sum(step.reward for step in self.entity_steps)

    def total_category_reward(self) -> float:
        return sum(step.reward for step in self.category_steps)


@dataclass(frozen=True)
class RecommendationPath:
    """An explanation path attached to a recommended item.

    ``hops`` is the sequence ``[(relation, entity_id), ...]`` leading from the
    user to ``item_entity``; ``score`` is the (log-probability based) ranking
    score the inference procedure assigned to it.
    """

    user_entity: int
    item_entity: int
    hops: Tuple[Tuple[Relation, int], ...]
    score: float

    @property
    def length(self) -> int:
        return len(self.hops)


def discounted_returns(rewards: Sequence[float], gamma: float = 0.99) -> List[float]:
    """Convert per-step rewards to discounted returns-to-go."""
    returns: List[float] = [0.0] * len(rewards)
    running = 0.0
    for index in range(len(rewards) - 1, -1, -1):
        running = rewards[index] + gamma * running
        returns[index] = running
    return returns
