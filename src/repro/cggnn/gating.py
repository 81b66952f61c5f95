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
from .propagation import GradientSink, input_grad, sigmoid


class GatingBuffers:
    """The ``(I, d)`` arrays one :class:`GatedAggregationLayer` step writes.

    Reused step after step like
    :class:`~repro.cggnn.propagation.PropagationBuffers`: the gates, the
    candidate and the logit gradients are read by :meth:`backward` or the
    :class:`GradientSink`, so each layer has its own; ``scratch`` and
    ``product`` are done with within one call, so layers may ``share``
    them.
    """

    def __init__(self, shape: Tuple[int, int],
                 share: Optional["GatingBuffers"] = None) -> None:
        (self.update_gate, self.reset_gate, self.gated, self.candidate, self.keep,
         self.grad_candidate_logit, self.grad_reset_logit,
         self.grad_update_logit) = (np.empty(shape) for _ in range(8))
        if share is None:
            self.scratch, self.product = np.empty(shape), np.empty(shape)
        else:
            self.scratch, self.product = share.scratch, share.product


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

    def _linear_sum(self, first: nn.Linear, first_input: np.ndarray,
                    second: nn.Linear, second_input: np.ndarray, out: np.ndarray,
                    scratch: np.ndarray) -> np.ndarray:
        """``first_input @ W_first + second_input @ W_second``, written into ``out``."""
        np.matmul(first_input, first.weight.data, out=out)
        out += np.matmul(second_input, second.weight.data, out=scratch)
        return out

    def forward_traced(self, message: np.ndarray, item_states: np.ndarray,
                       buffers: Optional[GatingBuffers] = None
                       ) -> Tuple[np.ndarray, tuple]:
        """:meth:`forward` plus the activations :meth:`backward` needs.

        The activations are written into ``buffers`` (by default a fresh
        set); the returned state never aliases them.
        """
        if buffers is None:
            buffers = GatingBuffers(item_states.shape)
        scratch = buffers.scratch
        update_gate = sigmoid(self._linear_sum(
            self.update_from_message, message, self.update_from_self, item_states,
            buffers.update_gate, scratch), out=buffers.update_gate)            # Eq. 4
        reset_gate = sigmoid(self._linear_sum(
            self.reset_from_message, message, self.reset_from_self, item_states,
            buffers.reset_gate, scratch), out=buffers.reset_gate)              # Eq. 5
        gated = np.multiply(reset_gate, item_states, out=buffers.gated)
        candidate = np.tanh(self._linear_sum(
            self.candidate_from_message, message, self.candidate_from_gated, gated,
            buffers.candidate, scratch), out=buffers.candidate)                # Eq. 6
        keep = np.subtract(1.0, update_gate, out=buffers.keep)
        output = keep * item_states
        output += np.multiply(update_gate, candidate, out=scratch)             # Eq. 7
        return output, (buffers, message, item_states)

    def backward(self, trace: tuple, grad_output: np.ndarray, gradients: GradientSink
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Send the weight gradients to ``gradients``; return
        ``(grad_message, grad_item_states)``.

        Both input gradients add their consumers up in the order the
        autograd engine reaches them, so they are bit-identical to it.  The
        item-state gradient is the shared ``product`` buffer: the caller
        must be done with it before the next layer call.
        """
        buffers, message, item_states = trace
        update_gate, reset_gate, candidate = (buffers.update_gate, buffers.reset_gate,
                                              buffers.candidate)
        scratch, product = buffers.scratch, buffers.product
        grad_candidate_logit = np.multiply(grad_output, update_gate,
                                           out=buffers.grad_candidate_logit)
        np.square(candidate, out=scratch)
        grad_candidate_logit *= np.subtract(1.0, scratch, out=scratch)
        grad_gated = input_grad(grad_candidate_logit, self.candidate_from_gated.weight.data,
                                out=product)
        grad_reset_logit = np.multiply(grad_gated, item_states, out=buffers.grad_reset_logit)
        grad_reset_logit *= reset_gate
        grad_reset_logit *= np.subtract(1.0, reset_gate, out=scratch)
        grad_update_logit = np.multiply(grad_output, candidate,
                                        out=buffers.grad_update_logit)
        grad_update_logit += np.negative(np.multiply(grad_output, item_states, out=scratch),
                                         out=scratch)
        grad_update_logit *= update_gate
        grad_update_logit *= np.subtract(1.0, update_gate, out=scratch)
        for layer, inputs, grad in (
                (self.candidate_from_gated, buffers.gated, grad_candidate_logit),
                (self.candidate_from_message, message, grad_candidate_logit),
                (self.reset_from_self, item_states, grad_reset_logit),
                (self.reset_from_message, message, grad_reset_logit),
                (self.update_from_self, item_states, grad_update_logit),
                (self.update_from_message, message, grad_update_logit)):
            gradients.weight(layer.weight, inputs, grad)

        grad_message = input_grad(grad_reset_logit, self.reset_from_message.weight.data)
        grad_message += input_grad(grad_candidate_logit,
                                   self.candidate_from_message.weight.data, out=scratch)
        grad_message += input_grad(grad_update_logit, self.update_from_message.weight.data,
                                   out=scratch)
        grad_items = np.multiply(grad_gated, reset_gate, out=product)
        grad_items += input_grad(grad_reset_logit, self.reset_from_self.weight.data,
                                 out=scratch)
        grad_items += np.multiply(grad_output, buffers.keep, out=scratch)
        grad_items += input_grad(grad_update_logit, self.update_from_self.weight.data,
                                 out=scratch)
        return grad_message, grad_items
