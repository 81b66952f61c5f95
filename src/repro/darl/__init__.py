"""Dual-Agent Reinforcement Learning (DARL) and the CADRL model facade."""

from .agents import CategoryAgent, CategoryDecision, EntityAgent, EntityDecision
from .collaborative import GuidanceModel, action_target_categories
from .inference import InferenceConfig, PathRecommender
from .model import CADRL, CADRLConfig, apply_overrides
from .shared_policy import PolicyConfig, SharedPolicyNetworks
from .trainer import DARLConfig, DARLTrainer, EpochStats
from .variants import VARIANT_OVERRIDES

__all__ = [
    "CADRL",
    "CADRLConfig",
    "CategoryAgent",
    "CategoryDecision",
    "DARLConfig",
    "DARLTrainer",
    "EntityAgent",
    "EntityDecision",
    "EpochStats",
    "GuidanceModel",
    "InferenceConfig",
    "PathRecommender",
    "PolicyConfig",
    "SharedPolicyNetworks",
    "VARIANT_OVERRIDES",
    "action_target_categories",
    "apply_overrides",
]
