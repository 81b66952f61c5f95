"""Reinforcement-learning substrate: environments, trajectories, REINFORCE, rewards."""

from .environment import (
    CategoryEnvironment,
    CategoryState,
    EntityEnvironment,
    EntityState,
)
from .reinforce import (MovingBaseline, ReinforceConfig, apply_gradients,
                        reinforce_advantages, reinforce_loss)
from .rewards import (
    collaborative_rewards,
    consistency_reward,
    guidance_reward,
)
from .trajectory import (
    CategoryStep,
    EntityStep,
    EpisodeResult,
    RecommendationPath,
    discounted_returns,
)

__all__ = [
    "CategoryEnvironment",
    "CategoryState",
    "CategoryStep",
    "EntityEnvironment",
    "EntityState",
    "EntityStep",
    "EpisodeResult",
    "MovingBaseline",
    "RecommendationPath",
    "ReinforceConfig",
    "apply_gradients",
    "collaborative_rewards",
    "consistency_reward",
    "discounted_returns",
    "guidance_reward",
    "reinforce_advantages",
    "reinforce_loss",
]
