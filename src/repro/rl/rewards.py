"""Reward functions: terminal, partner (collaborative) and shaped rewards.

This module implements the collaborative reward mechanism of Section IV-C.4:

* ``guidance_reward`` (Eq. 17-18) — the category agent's causal influence on
  the entity agent, measured as the KL divergence between the entity policy
  conditioned on the chosen category action and the marginal entity policy
  over counterfactual category actions, squashed through a sigmoid.
* ``consistency_reward`` (Eq. 19) — cosine similarity between the two agents'
  state representations, rewarding category-level trajectories that stay
  semantically aligned with the entity-level path.
* ``collaborative_rewards`` (Eq. 20-21) — the final per-step rewards
  ``R^c = R̃^c + α_pe · R^pe`` and ``R^e = R̃^e + α_pc · R^pc``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..nn.functional import cosine_similarity, kl_divergence


def sigmoid(value: float) -> float:
    """Scalar logistic function used to squash the KL influence (Eq. 18)."""
    return float(1.0 / (1.0 + np.exp(-value)))


def guidance_reward(conditional: np.ndarray, counterfactuals: Sequence[np.ndarray],
                    counterfactual_weights: Sequence[float] | None = None) -> float:
    """Partner reward R^pc from the category agent to the entity agent.

    Parameters
    ----------
    conditional:
        ``p(a^e | a^c, s^e)`` — the entity-action distribution under the
        category action that was actually taken.
    counterfactuals:
        ``p(a^e | ã^c, s^e)`` for each alternative category action.
    counterfactual_weights:
        ``p(ã^c | s^e)`` — the category policy's own probabilities; defaults
        to uniform.

    Returns the sigmoid-squashed KL divergence between the conditional and the
    counterfactual marginal (Eq. 17-18).  A category action that genuinely
    changes what the entity agent would do earns a reward close to 1.
    """
    conditional = np.asarray(conditional, dtype=np.float64)
    if len(counterfactuals) == 0:
        return sigmoid(0.0)
    if counterfactual_weights is None:
        weights = np.full(len(counterfactuals), 1.0 / len(counterfactuals))
    else:
        weights = np.asarray(counterfactual_weights, dtype=np.float64)
        total = weights.sum()
        weights = weights / total if total > 0 else np.full(len(counterfactuals),
                                                            1.0 / len(counterfactuals))
    # The weighted rows added one after another, as a loop over them would:
    # ``np.add.accumulate`` keeps that order where ``np.add.reduce`` would go
    # pairwise over a single-action column.
    weighted = weights[:, None] * np.asarray(counterfactuals, dtype=np.float64)
    marginal = np.add.accumulate(weighted, axis=0)[-1]
    divergence = kl_divergence(conditional, marginal)
    return sigmoid(divergence)


def consistency_reward(category_state_vector: np.ndarray,
                       entity_state_vector: np.ndarray) -> float:
    """Partner reward R^pe: cosine similarity of the two agents' states (Eq. 19).

    The vectors may have different lengths (the category state concatenates
    three embeddings, the entity state two); they are compared on their common
    prefix after L2-normalisation of each block is unnecessary — the paper
    defines the reward directly as the cosine of the state vectors, so we
    truncate to the shorter length.
    """
    length = min(len(category_state_vector), len(entity_state_vector))
    if length == 0:
        return 0.0  # repro: ignore[NAN001] cosine convention: degenerate vectors score 0, and rewards must stay finite
    return cosine_similarity(category_state_vector[:length], entity_state_vector[:length])


def collaborative_rewards(terminal_category: float, terminal_entity: float,
                          guidance: Sequence[float], consistency: Sequence[float],
                          alpha_pe: float, alpha_pc: float) -> Dict[str, List[float]]:
    """Combine terminal and partner rewards into per-step final rewards.

    ``guidance`` and ``consistency`` are the per-step partner rewards (length
    L).  The terminal rewards are added to the last step, matching Eq. 20-21
    where ``R̃`` is only non-zero at ``l = L``.
    """
    if len(guidance) != len(consistency):
        raise ValueError("guidance and consistency reward sequences must align")
    steps = len(guidance)
    category_rewards = [alpha_pe * value for value in consistency]
    entity_rewards = [alpha_pc * value for value in guidance]
    if steps > 0:
        category_rewards[-1] += terminal_category
        entity_rewards[-1] += terminal_entity
    return {"category": category_rewards, "entity": entity_rewards}

