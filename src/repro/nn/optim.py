"""The Adam optimiser and global-norm gradient clipping."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .tensor import Tensor


def clip_grad_norm(parameters: Sequence[Tensor], max_norm: float) -> float:
    """Clip gradients so their global L2 norm is at most ``max_norm``.

    The squared norm adds one ``sum(grad**2)`` per parameter, in parameter
    order; a gradient over the bound is rebound to ``grad * scale``.  Returns
    the pre-clipping norm (useful for monitoring training stability).  A
    ``max_norm`` that is not positive would flip or zero the gradients, so it
    raises ``ValueError``.
    """
    if not max_norm > 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    present = [parameter for parameter in parameters if parameter.grad is not None]
    total = 0.0
    for parameter in present:
        total += float(np.sum(parameter.grad**2))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for parameter in present:
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
    """Adam optimiser (Kingma & Ba), the optimiser the paper uses for CADRL.

    The moments of every parameter live in one flat buffer each, and a step
    updates all parameters together: one in-place pass over preallocated
    flat buffers per term of the per-parameter formula, in its order (weight
    decay, first moment, second moment, bias corrections, update).  Each
    element sees the same operations as in a per-parameter loop, so the
    result is bit-identical to it.  A parameter whose ``.grad`` is ``None``
    keeps its moments and its data.  Every step rebinds each updated
    parameter's ``.data`` to a fresh array (a view of that step's flat
    result); nothing a caller may hold is written in place.
    """

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
        offsets = np.cumsum([0] + [parameter.data.size for parameter in self.parameters])
        self._slices = [slice(int(low), int(high))
                        for low, high in zip(offsets[:-1], offsets[1:])]
        total = int(offsets[-1])
        self._m = np.zeros(total)
        self._v = np.zeros(total)
        self._grad = np.empty(total)      # the gradients, then their squares
        self._scratch = np.empty(total)   # the moment increments, then the update

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        parameters = self.parameters
        absent = [index for index, parameter in enumerate(parameters)
                  if parameter.grad is None]
        if len(absent) == len(parameters):
            return
        m, v, grad, scratch = self._m, self._v, self._grad, self._scratch
        gradients = [np.zeros(parameter.data.size) if parameter.grad is None
                     else parameter.grad for parameter in parameters]
        if sum(gradient.size for gradient in gradients) != grad.size:
            raise ValueError("a gradient does not match its parameter's size")
        np.concatenate(gradients, axis=None, out=grad)
        data = np.concatenate([parameter.data for parameter in parameters], axis=None)
        kept = [(self._slices[index], m[self._slices[index]].copy(),
                 v[self._slices[index]].copy()) for index in absent]

        if self.weight_decay:
            np.multiply(data, self.weight_decay, out=scratch)
            grad += scratch
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=scratch)
        m += scratch
        np.square(grad, out=grad)
        grad *= 1.0 - self.beta2
        v *= self.beta2
        v += grad
        np.divide(m, bias1, out=scratch)      # m_hat
        np.divide(v, bias2, out=grad)         # v_hat
        np.sqrt(grad, out=grad)
        grad += self.eps
        scratch *= self.lr
        scratch /= grad
        data -= scratch

        for rows, old_m, old_v in kept:
            m[rows] = old_m
            v[rows] = old_v
        for parameter, rows in zip(parameters, self._slices):
            if parameter.grad is not None:
                parameter.data = data[rows].reshape(parameter.data.shape)
