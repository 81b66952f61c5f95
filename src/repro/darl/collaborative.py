"""Counterfactual guidance modelling for the collaborative reward mechanism.

The category agent influences the entity agent by biasing the entity policy
towards actions that land in the guided category.  The KL-based partner reward
(Eq. 17-18) asks the counterfactual question "how different would the entity
policy have been under another category?" — this module computes exactly that
from a single set of base logits, which keeps the reward cheap even with many
alternative categories.

Every function takes the actions' target categories as one integer array,
``-1`` marking a target that is not a categorised item
(:func:`action_target_categories`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..kg.graph import KnowledgeGraph
from ..rl.rewards import guidance_reward


def action_target_categories(graph: KnowledgeGraph, targets: np.ndarray) -> np.ndarray:
    """Category of each action target entity, ``-1`` where it has none.

    One gather from the graph's compiled ``entity_category`` table.
    """
    return graph.adjacency().entity_category[targets]


@dataclass
class GuidanceModel:
    """Turns base entity logits + a guided category into guided distributions.

    ``strength`` is the logit bonus added to actions whose target item lies in
    the guided category; it plays the role of the causal intervention of the
    category action on the entity policy.
    """

    strength: float = 2.0

    def guided_probabilities(self, base_logits: np.ndarray,
                             target_categories: np.ndarray,
                             guided_category: Optional[int]) -> np.ndarray:
        """``p(a^e | a^c = guided_category, s^e)`` as a NumPy distribution."""
        logits = np.asarray(base_logits, dtype=np.float64).copy()
        if guided_category is not None:
            logits = logits + self.guidance_bonus(target_categories, guided_category)
        logits = logits - logits.max()
        probabilities = np.exp(logits)
        return probabilities / probabilities.sum()

    def guidance_bonus(self, target_categories: np.ndarray,
                       guided_category: Optional[int]) -> np.ndarray:
        """The additive logit bonus used when *sampling* the entity action."""
        if guided_category is None:
            return np.zeros(len(target_categories))
        return np.where(target_categories == guided_category, self.strength, 0.0)

    def counterfactual_probabilities(self, base_logits: np.ndarray,
                                     target_categories: np.ndarray,
                                     alternative_categories: Sequence[int]) -> np.ndarray:
        """:meth:`guided_probabilities` for every alternative, one row each.

        One (alternatives × actions) softmax instead of one per alternative;
        every row is bit-identical to the single-category computation.
        """
        alternatives = np.asarray(alternative_categories, dtype=np.int64)
        bonus = np.where(target_categories == alternatives[:, None], self.strength, 0.0)
        logits = np.asarray(base_logits, dtype=np.float64) + bonus
        logits = logits - logits.max(axis=1, keepdims=True)
        probabilities = np.exp(logits)
        return probabilities / probabilities.sum(axis=1, keepdims=True)

    def kl_guidance_reward(self, base_logits: np.ndarray,
                           target_categories: np.ndarray,
                           chosen_category: int,
                           alternative_categories: Sequence[int],
                           category_probabilities: Optional[Sequence[float]] = None) -> float:
        """Partner reward R^pc of Eq. 17-18 for one recommendation step.

        The conditional policy is the first row of one softmax matrix whose
        other rows are the counterfactuals; each row equals its
        :meth:`guided_probabilities`.
        """
        rows = self.counterfactual_probabilities(
            base_logits, target_categories, [chosen_category, *alternative_categories])
        return guidance_reward(rows[0], rows[1:], category_probabilities)
