"""The affine layer of the policy and CGGNN networks."""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import init
from .module import Module
from .tensor import Tensor


class Linear(Module):
    """Affine transform ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    bias:
        Whether to include the additive bias term.
    rng:
        Random generator used for Xavier initialisation (reproducibility).
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear dimensions must be positive")
        rng = init.ensure_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(init.xavier_uniform((in_features, out_features), rng),
                             requires_grad=True, name="linear.weight")
        self.bias = (Tensor(init.zeros((out_features,)), requires_grad=True, name="linear.bias")
                     if bias else None)

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out
