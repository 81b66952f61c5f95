"""REINFORCE policy-gradient utilities (Williams, 1992).

Both CADRL's dual agents and the single-agent baselines update their policies
with REINFORCE over discounted returns with a moving-average baseline
(:class:`MovingBaseline`) to cut variance.

Only the single-agent baselines (:mod:`repro.baselines.rl_single`) still use
:func:`policy_gradient_loss` / :func:`apply_update`: the loss is assembled
from the log-probability tensors recorded during the rollout, and one
``backward()`` call back-propagates through their policy networks.  CADRL's
:class:`repro.darl.trainer.DARLTrainer` computes the same loss's gradient by
hand, without a ``Tensor`` graph; its autograd original, which does call
these two functions, is kept as the oracle in :mod:`repro.perf.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


from .. import nn
from ..nn import Tensor
from .trajectory import discounted_returns


@dataclass
class ReinforceConfig:
    """Hyper-parameters of the policy-gradient update."""

    gamma: float = 0.99
    entropy_weight: float = 0.0
    baseline_momentum: float = 0.9
    gradient_clip: float = 5.0

    def validate(self) -> None:
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError("gamma must lie in [0, 1]")
        if not (0.0 <= self.baseline_momentum < 1.0):
            raise ValueError("baseline_momentum must lie in [0, 1)")


class MovingBaseline:
    """Exponential moving average of episode returns, one per reward stream."""

    def __init__(self, momentum: float = 0.9) -> None:
        self.momentum = momentum
        self._value: Optional[float] = None

    @property
    def value(self) -> float:
        return 0.0 if self._value is None else self._value

    def update(self, episode_return: float) -> float:
        """Fold a new episode return into the baseline and return the new value."""
        if self._value is None:
            self._value = episode_return
        else:
            self._value = self.momentum * self._value + (1.0 - self.momentum) * episode_return
        return self._value


def policy_gradient_loss(log_probs: Sequence[Tensor], rewards: Sequence[float],
                         config: ReinforceConfig, baseline: Optional[MovingBaseline] = None,
                         entropies: Optional[Sequence[Tensor]] = None) -> Optional[Tensor]:
    """Assemble the REINFORCE loss ``-Σ_l (G_l - b) log π(a_l|s_l)``.

    Returns ``None`` when there are no recorded decisions (e.g. an episode that
    terminated immediately), so callers can skip the update cleanly.
    """
    config.validate()
    if len(log_probs) != len(rewards):
        raise ValueError("log_probs and rewards must have the same length")
    if not log_probs:
        return None
    returns = discounted_returns(rewards, config.gamma)
    baseline_value = baseline.value if baseline is not None else 0.0
    if baseline is not None:
        baseline.update(returns[0])

    loss: Optional[Tensor] = None
    for log_prob, step_return in zip(log_probs, returns):
        advantage = step_return - baseline_value
        term = log_prob * (-advantage)
        loss = term if loss is None else loss + term
    if entropies and config.entropy_weight > 0.0:
        for entropy in entropies:
            loss = loss + entropy * (-config.entropy_weight)
    return loss


def apply_update(loss: Optional[Tensor], parameters: Sequence[Tensor],
                 optimiser: nn.Optimizer, config: ReinforceConfig) -> float:
    """Backpropagate ``loss`` and step the optimiser; returns the loss value."""
    if loss is None:
        return float("nan")  # no update performed, so no loss was measured
    optimiser.zero_grad()
    loss.backward()
    nn.clip_grad_norm(list(parameters), config.gradient_clip)
    optimiser.step()
    return loss.item()
