"""Gated aggregation layer of the GGNN (Eq. 4-7).

The neighbourhood message ``n_vi`` produced by the adaptive propagation layer
is fused with the item's own representation through GRU-style update and reset
gates, which is how the paper suppresses the noise introduced by semantic
decay over multi-hop neighbourhoods.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..nn.init import ensure_rng
from .propagation import GradientSink, input_grad, linear_weight_grad, sigmoid


class GatedAggregationLayer(nn.Module):
    """GRU-style fusion of the neighbourhood message with the self embedding."""

    def __init__(self, embedding_dim: int, rng: Optional[np.random.Generator] = None) -> None:
        if embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        rng = ensure_rng(rng)
        self.embedding_dim = embedding_dim
        # Eq. 4: update gate z_i
        self.update_from_message = nn.Linear(embedding_dim, embedding_dim, bias=False, rng=rng)
        self.update_from_self = nn.Linear(embedding_dim, embedding_dim, bias=False, rng=rng)
        # Eq. 5: reset gate v̂_i
        self.reset_from_message = nn.Linear(embedding_dim, embedding_dim, bias=False, rng=rng)
        self.reset_from_self = nn.Linear(embedding_dim, embedding_dim, bias=False, rng=rng)
        # Eq. 6: candidate state v_i
        self.candidate_from_message = nn.Linear(embedding_dim, embedding_dim, bias=False, rng=rng)
        self.candidate_from_gated = nn.Linear(embedding_dim, embedding_dim, bias=False, rng=rng)

    def forward(self, message: np.ndarray, item_states: np.ndarray) -> np.ndarray:
        """Fuse ``message`` (n_vi) with ``item_states`` (h_vi^{k-1}); both (I, d)."""
        return self.forward_traced(message, item_states)[0]

    def forward_traced(self, message: np.ndarray, item_states: np.ndarray
                       ) -> Tuple[np.ndarray, tuple]:
        """:meth:`forward` plus the activations :meth:`backward` needs."""
        update_gate = sigmoid(message @ self.update_from_message.weight.data
                              + item_states @ self.update_from_self.weight.data)   # Eq. 4
        reset_gate = sigmoid(message @ self.reset_from_message.weight.data
                             + item_states @ self.reset_from_self.weight.data)     # Eq. 5
        gated = reset_gate * item_states
        candidate = np.tanh(message @ self.candidate_from_message.weight.data
                            + gated @ self.candidate_from_gated.weight.data)       # Eq. 6
        keep = 1.0 - update_gate
        output = keep * item_states + update_gate * candidate                     # Eq. 7
        return output, (message, item_states, update_gate, reset_gate, gated,
                        candidate, keep)

    def backward(self, trace: tuple, grad_output: np.ndarray, gradients: GradientSink
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Send the weight gradients to ``gradients``; return
        ``(grad_message, grad_item_states)``.

        Both input gradients add their consumers up in the order the
        autograd engine reaches them, so they are bit-identical to it.
        """
        message, item_states, update_gate, reset_gate, gated, candidate, keep = trace
        grad_candidate_logit = grad_output * update_gate * (1.0 - candidate ** 2)
        grad_gated = input_grad(grad_candidate_logit, self.candidate_from_gated.weight.data)
        grad_reset_logit = grad_gated * item_states * reset_gate * (1.0 - reset_gate)
        grad_update = grad_output * candidate + -(grad_output * item_states)
        grad_update_logit = grad_update * update_gate * (1.0 - update_gate)
        for layer, inputs, grad in (
                (self.candidate_from_gated, gated, grad_candidate_logit),
                (self.candidate_from_message, message, grad_candidate_logit),
                (self.reset_from_self, item_states, grad_reset_logit),
                (self.reset_from_message, message, grad_reset_logit),
                (self.update_from_self, item_states, grad_update_logit),
                (self.update_from_message, message, grad_update_logit)):
            gradients.put(layer.weight, linear_weight_grad, inputs, grad)

        grad_message = (
            input_grad(grad_reset_logit, self.reset_from_message.weight.data)
            + input_grad(grad_candidate_logit, self.candidate_from_message.weight.data)
            + input_grad(grad_update_logit, self.update_from_message.weight.data))
        grad_items = (grad_gated * reset_gate
                      + input_grad(grad_reset_logit, self.reset_from_self.weight.data)
                      + grad_output * keep
                      + input_grad(grad_update_logit, self.update_from_self.weight.data))
        return grad_message, grad_items
