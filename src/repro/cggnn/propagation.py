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
bit-identical to :class:`repro.perf.reference.ReferenceCGGNNTrainer`.  The
backward hands its weight and bias gradients to a :class:`GradientSink`,
which may compute them on a worker thread.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

from .. import nn
from ..nn.init import ensure_rng

if TYPE_CHECKING:  # typing only: importing concurrent.futures costs ~5 ms at start-up
    from concurrent.futures import Executor, Future


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid, with the expression ``Tensor.sigmoid`` uses."""
    return 1.0 / (1.0 + np.exp(-x))


#: Most bytes of per-item products :func:`linear_weight_grad` holds at once.
PRODUCT_BLOCK_BYTES = 1 << 20


def linear_weight_grad(inputs: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Weight gradient of ``inputs @ W`` for 2-D or batched 3-D ``inputs``.

    Autograd's form: the per-item products ``inputs[b].T @ grad[b]`` summed
    over the batch.  The products are formed a block of items at a time (at
    most :data:`PRODUCT_BLOCK_BYTES`), and each block is summed with the
    running total as its first row, so the items are still added one after
    another in batch order: bit-identical to ``(inputs.T @ grad).sum(axis=0)``
    without holding every product at once (``(240, 128, 32)`` at the paper
    shapes).
    """
    transposed = np.swapaxes(inputs, -1, -2)
    if inputs.ndim == 2:
        return transposed @ grad
    block = max(1, PRODUCT_BLOCK_BYTES
                // (inputs.shape[-1] * grad.shape[-1] * inputs.itemsize))
    total = None
    for start in range(0, len(inputs), block):
        products = transposed[start:start + block] @ grad[start:start + block]
        if total is not None:
            products = np.concatenate([total[None], products])
        total = products.sum(axis=0)
    return total


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


class GradientSink:
    """Where the CGGNN layers' backward passes send their parameter gradients.

    A weight or bias gradient (:func:`linear_weight_grad`, :func:`bias_grad`)
    is a leaf of the backward pass: nothing on the input-gradient chain reads
    it, and nothing writes to its operands after the hand-off.  Given an
    executor, :meth:`put` runs each one there while the caller carries on down
    the chain; numpy releases the GIL in these loops, so a worker thread puts
    them on a second core.  :meth:`collect` waits for every one and writes it
    into its parameter's ``.grad``.  Without an executor :meth:`put` runs the
    call at once.  Either way each gradient is the same call on the same
    operands, so its bits do not depend on where it ran.
    """

    def __init__(self, executor: Optional[Executor] = None) -> None:
        self._executor = executor
        self._pending: List[Tuple[nn.Tensor, Future]] = []

    def put(self, parameter: nn.Tensor, function: Callable[..., np.ndarray],
            *operands: np.ndarray) -> None:
        """Set ``parameter.grad = function(*operands)``, now or at :meth:`collect`."""
        if self._executor is None:
            parameter.grad = function(*operands)
        else:
            self._pending.append((parameter, self._executor.submit(function, *operands)))

    def collect(self) -> None:
        """Wait for every handed-off gradient and write it into ``.grad``."""
        for parameter, future in self._pending:
            parameter.grad = future.result()
        self._pending.clear()


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

    def backward(self, trace: tuple, grad_message: np.ndarray, gradients: GradientSink
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Send the parameter gradients to ``gradients``; return the input gradients.

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
        gradients.put(self.attention.bias, bias_grad, grad_logit)
        gradients.put(self.attention.weight, linear_weight_grad, triplet_repr, grad_logit)
        grad_repr = input_grad(grad_logit, self.attention.weight.data)
        grad_hidden = grad_repr * triplet_repr * (1.0 - triplet_repr)
        gradients.put(self.triplet_transform.bias, bias_grad, grad_hidden)
        gradients.put(self.triplet_transform.weight, linear_weight_grad, triplet_input,
                      grad_hidden)
        grad_input = input_grad(grad_hidden, self.triplet_transform.weight.data)

        grad_in = grad_messages * incoming
        grad_out = grad_messages * outgoing
        gradients.put(self.transform_in.weight, linear_weight_grad, interaction, grad_in)
        gradients.put(self.transform_out.weight, linear_weight_grad, interaction, grad_out)
        grad_interaction = (input_grad(grad_in, self.transform_in.weight.data)
                            + input_grad(grad_out, self.transform_out.weight.data))
        grad_neighbors = grad_interaction * relation_states + grad_input[..., dim:2 * dim]
        grad_items = grad_input[..., :dim].sum(axis=1)
        return grad_items, grad_neighbors
