"""Adaptive propagation layer of the GGNN (Eq. 1-3).

For every item ``v_i`` and neighbour ``(r, e_j)`` the layer

1. forms the triplet representation ``t = σ(W1 [h_vi ⊕ h_ej ⊕ h_r ⊕ h_rp])``
   where ``h_rp`` is the embedding of the *purchase* relation, injected so the
   attention can judge how relevant a neighbour is to shopping behaviour;
2. computes the scalar attention ``α = σ(W2 t + b)``;
3. aggregates ``n_vi = Σ_out α · W_out (h_ej ∘ h_r) + Σ_in α · W_in (h_ej ∘ h_r)``.

The forward pass is plain numpy; :meth:`AdaptivePropagationLayer.backward`
is its hand-written reverse pass.  Both keep the per-op expressions (and the
matmul shapes) of the autograd graph the layer used to build, so training is
bit-identical to :class:`repro.perf.reference.ReferenceCGGNNTrainer`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..nn.init import ensure_rng


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid, with the expression ``Tensor.sigmoid`` uses."""
    return 1.0 / (1.0 + np.exp(-x))


def linear_weight_grad(inputs: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Weight gradient of ``inputs @ W``: autograd's batched matmul, summed over the batch."""
    grad_w = np.swapaxes(inputs, -1, -2) @ grad
    while grad_w.ndim > 2:
        grad_w = grad_w.sum(axis=0)
    return grad_w


def input_grad(grad: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Input gradient of ``x @ W``: the engine's ``grad @ W.T``, transposed view included.

    The operand layout is part of the contract: BLAS may pick a different
    kernel for a contiguous copy of ``W.T`` and round differently.
    """
    return grad @ np.swapaxes(weight, -1, -2)


def bias_grad(grad: np.ndarray) -> np.ndarray:
    """Bias gradient of ``x @ W + b``: ``grad`` summed down to one row."""
    while grad.ndim > 1:
        grad = grad.sum(axis=0)
    return grad


class AdaptivePropagationLayer(nn.Module):
    """One message-passing step over padded item neighbourhoods."""

    def __init__(self, embedding_dim: int, rng: Optional[np.random.Generator] = None) -> None:
        if embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        rng = ensure_rng(rng)
        self.embedding_dim = embedding_dim
        self.triplet_transform = nn.Linear(4 * embedding_dim, embedding_dim, rng=rng)
        self.attention = nn.Linear(embedding_dim, 1, rng=rng)
        self.transform_out = nn.Linear(embedding_dim, embedding_dim, bias=False, rng=rng)
        self.transform_in = nn.Linear(embedding_dim, embedding_dim, bias=False, rng=rng)

    def forward(self, item_states: np.ndarray, neighbor_states: np.ndarray,
                relation_states: np.ndarray, purchase_state: np.ndarray,
                neighbor_mask: np.ndarray, neighbor_is_outgoing: np.ndarray) -> np.ndarray:
        """Return the aggregated neighbourhood message ``n_vi`` for every item.

        Shapes: ``item_states`` (I, d); ``neighbor_states`` and
        ``relation_states`` (I, N, d); ``purchase_state`` (d,);
        masks (I, N).  Output (I, d).
        """
        return self.forward_traced(item_states, neighbor_states, relation_states,
                                   purchase_state, neighbor_mask,
                                   neighbor_is_outgoing)[0]

    def forward_traced(self, item_states, neighbor_states, relation_states,
                       purchase_state, neighbor_mask, neighbor_is_outgoing
                       ) -> Tuple[np.ndarray, tuple]:
        """:meth:`forward` plus the activations :meth:`backward` needs."""
        num_items, max_neighbors, dim = neighbor_states.shape
        # The concatenation of Eq. 1, with the item state and the purchase
        # relation broadcast over the neighbour axis.
        triplet_input = np.concatenate([
            np.broadcast_to(item_states.reshape(num_items, 1, dim),
                            (num_items, max_neighbors, dim)),
            neighbor_states, relation_states,
            np.broadcast_to(purchase_state.reshape(1, 1, dim),
                            (num_items, max_neighbors, dim))], axis=-1)
        triplet_repr = sigmoid(triplet_input @ self.triplet_transform.weight.data
                               + self.triplet_transform.bias.data)          # Eq. 1
        attention = sigmoid(triplet_repr @ self.attention.weight.data
                            + self.attention.bias.data)                     # Eq. 2 (I, N, 1)

        mask = neighbor_mask[..., None]
        outgoing = neighbor_is_outgoing[..., None]
        incoming = (1.0 - neighbor_is_outgoing)[..., None]
        interaction = neighbor_states * relation_states                       # h_ej ∘ h_r
        messages = ((interaction @ self.transform_out.weight.data) * outgoing
                    + (interaction @ self.transform_in.weight.data) * incoming)
        masked_attention = attention * mask
        message = (masked_attention * messages).sum(axis=1)                  # Eq. 3
        trace = (triplet_input, triplet_repr, attention, masked_attention, messages,
                 interaction, relation_states, mask, outgoing, incoming)
        return message, trace

    def backward(self, trace: tuple, grad_message: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Write the parameter gradients; return the input gradients.

        Returns ``(grad_item_states, grad_neighbor_states)``: the item-state
        gradient through the broadcast in Eq. 1 only (the caller adds the
        other consumers of the item states in autograd's order).
        """
        (triplet_input, triplet_repr, attention, masked_attention, messages,
         interaction, relation_states, mask, outgoing, incoming) = trace
        dim = self.embedding_dim
        grad = grad_message[:, None, :]
        grad_masked_attention = (grad * messages).sum(axis=2, keepdims=True)
        grad_messages = grad * masked_attention
        grad_attention = grad_masked_attention * mask
        grad_logit = grad_attention * attention * (1.0 - attention)
        self.attention.bias.grad = bias_grad(grad_logit)
        self.attention.weight.grad = linear_weight_grad(triplet_repr, grad_logit)
        grad_repr = input_grad(grad_logit, self.attention.weight.data)
        grad_hidden = grad_repr * triplet_repr * (1.0 - triplet_repr)
        self.triplet_transform.bias.grad = bias_grad(grad_hidden)
        self.triplet_transform.weight.grad = linear_weight_grad(triplet_input, grad_hidden)
        grad_input = input_grad(grad_hidden, self.triplet_transform.weight.data)

        grad_in = grad_messages * incoming
        grad_out = grad_messages * outgoing
        self.transform_in.weight.grad = linear_weight_grad(interaction, grad_in)
        self.transform_out.weight.grad = linear_weight_grad(interaction, grad_out)
        grad_interaction = (input_grad(grad_in, self.transform_in.weight.data)
                            + input_grad(grad_out, self.transform_out.weight.data))
        grad_neighbors = grad_interaction * relation_states + grad_input[..., dim:2 * dim]
        grad_items = grad_input[..., :dim].sum(axis=1)
        return grad_items, grad_neighbors
