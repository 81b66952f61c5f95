"""The Adam optimiser and global-norm gradient clipping."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .tensor import Tensor


def clip_grad_norm(parameters: Sequence[Tensor], max_norm: float) -> float:
    """Clip gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for monitoring training stability).
    """
    total = 0.0
    for parameter in parameters:
        if parameter.grad is not None:
            total += float(np.sum(parameter.grad**2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for parameter in parameters:
            if parameter.grad is not None:
                parameter.grad = parameter.grad * scale
    return norm


class Optimizer:
    """Base optimiser holding a parameter list."""

    def __init__(self, parameters: Sequence[Tensor]) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:  # pragma: no cover - interface stub
        raise NotImplementedError


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba), the optimiser the paper uses for CADRL."""

    def __init__(self, parameters: Sequence[Tensor], lr: float = 1e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for i, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * grad**2
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            parameter.data = parameter.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
