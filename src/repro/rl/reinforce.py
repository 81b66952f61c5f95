"""REINFORCE policy-gradient utilities (Williams, 1992).

Both CADRL's dual agents and the single-agent baselines update their policies
with REINFORCE over discounted returns with a moving-average baseline
(:class:`MovingBaseline`) to cut variance.

The update is plain numpy.  A trainer turns an episode's rewards into
advantages (:func:`reinforce_advantages`), back-propagates
``-Σ_l A_l log π(a_l|s_l) - w Σ_l H_l`` through its policy by hand and hands
that backward to :func:`apply_gradients`, which zeroes, fills, clips and
applies the gradients.  :func:`reinforce_loss` reports the loss value.  The
autograd originals, a ``Tensor`` loss and its ``backward()``, are kept as the
oracle in :mod:`repro.perf.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from .. import nn
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
        if not self.gradient_clip > 0:
            raise ValueError(f"gradient_clip must be positive, got {self.gradient_clip}")


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


def reinforce_advantages(rewards: Sequence[float], gamma: float,
                         baseline: MovingBaseline) -> List[float]:
    """REINFORCE advantages ``G_l - b``; the baseline then absorbs ``G_0``."""
    returns = discounted_returns(rewards, gamma)
    baseline_value = baseline.value
    baseline.update(returns[0])
    return [step_return - baseline_value for step_return in returns]


def reinforce_loss(log_probs: Sequence[float], advantages: Sequence[float],
                   entropies: Sequence[float] = (), entropy_weight: float = 0.0) -> float:
    """``-Σ_l A_l log π(a_l|s_l) - w Σ_l H_l``, summed in the autograd order."""
    loss: Optional[float] = None
    for log_prob, advantage in zip(log_probs, advantages):
        term = log_prob * (-advantage)
        loss = term if loss is None else loss + term
    if entropy_weight > 0.0:
        for entropy in entropies:
            loss = loss + entropy * (-entropy_weight)
    return loss


def apply_gradients(optimiser: nn.Optimizer, gradient_clip: float,
                    backward: Callable[[], None]) -> None:
    """One update of the optimiser's parameters: zero their gradients, let
    ``backward`` fill them, clip the global norm to ``gradient_clip``, step."""
    optimiser.zero_grad()
    backward()
    nn.clip_grad_norm(optimiser.parameters, gradient_clip)
    optimiser.step()
