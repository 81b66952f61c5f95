"""Adaptive propagation layer of the GGNN (Eq. 1-3).

For every item ``v_i`` and neighbour ``(r, e_j)`` the layer

1. forms the triplet representation ``t = σ(W1 [h_vi ⊕ h_ej ⊕ h_r ⊕ h_rp])``
   where ``h_rp`` is the embedding of the *purchase* relation, injected so the
   attention can judge how relevant a neighbour is to shopping behaviour;
2. computes the scalar attention ``α = σ(W2 t + b)``;
3. aggregates ``n_vi = Σ_out α · W_out (h_ej ∘ h_r) + Σ_in α · W_in (h_ej ∘ h_r)``.

The forward pass is plain numpy; :meth:`AdaptivePropagationLayer.backward`
is its hand-written reverse pass.  Both keep the per-op expressions of the
autograd graph the layer used to build, and its matmul shapes but for the
layouts :func:`input_grad` pins, so training is bit-identical to
:class:`repro.perf.reference.ReferenceCGGNNTrainer`.  Both write into
:class:`PropagationBuffers` a training run reuses step after step.  The
backward hands its weight and bias gradients to a :class:`GradientSink`,
which may compute them on a worker thread.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

from .. import nn
from ..nn.init import ensure_rng

if TYPE_CHECKING:  # typing only: importing concurrent.futures costs ~5 ms at start-up
    from concurrent.futures import Executor, Future


def sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The logistic sigmoid, with the expression ``Tensor.sigmoid`` uses.

    ``1 / (1 + exp(-x))`` one ufunc at a time into ``out`` (a fresh array by
    default; ``x`` itself is allowed), so it holds no temporaries.
    """
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


#: Most bytes of per-item products :func:`linear_weight_grad` holds at once.
PRODUCT_BLOCK_BYTES = 1 << 20


def product_block(inputs: np.ndarray, grad: np.ndarray) -> int:
    """Items per block of :func:`linear_weight_grad`'s products (3-D ``inputs``)."""
    item_bytes = inputs.shape[-1] * grad.shape[-1] * inputs.itemsize
    return min(len(inputs), max(1, PRODUCT_BLOCK_BYTES // item_bytes))


def linear_weight_grad(inputs: np.ndarray, grad: np.ndarray,
                       scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Weight gradient of ``inputs @ W`` for 2-D or batched 3-D ``inputs``.

    Autograd's form: the per-item products ``inputs[b].T @ grad[b]`` summed
    over the batch.  The products are formed a block of items at a time
    (:func:`product_block`, at most :data:`PRODUCT_BLOCK_BYTES`), behind the
    running total in one array, and each block is summed with that total as
    its first row, so the items are still added one after another in batch
    order: bit-identical to ``(inputs.T @ grad).sum(axis=0)`` without
    holding every product at once (``(240, 128, 32)`` at the paper shapes).
    That array is carved from ``scratch`` (flat float64) when it is large
    enough, and is a fresh one otherwise.
    """
    transposed = np.swapaxes(inputs, -1, -2)
    if inputs.ndim == 2:
        return transposed @ grad
    block = product_block(inputs, grad)
    shape = (block + 1, inputs.shape[-1], grad.shape[-1])
    size = shape[0] * shape[1] * shape[2]
    if scratch is None or scratch.size < size:
        scratch = np.empty(size)
    products = scratch[:size].reshape(shape)
    total = None
    for start in range(0, len(inputs), block):
        count = min(block, len(inputs) - start)
        first = 0 if total is None else 1
        if total is not None:
            products[0] = total
        np.matmul(transposed[start:start + count], grad[start:start + count],
                  out=products[first:first + count])
        total = products[:first + count].sum(axis=0)
    return total


def input_grad(grad: np.ndarray, weight: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Input gradient of ``x @ W``: ``grad @ W.T``, written into ``out`` if given.

    The operand layout is part of the contract, because BLAS may pick
    another kernel for another layout and round differently.  Per shape of
    ``W`` (``grad`` is ``(..., K)`` with K its columns):

    * one column (K = 1): a broadcast multiply.  Each element is one
      product, rounded once, as in the GEMM.
    * not square, under a 3-D ``grad`` (the propagation layer's
      ``W[:2d]``): one 2-D GEMM over the batch folded into rows,
      ``grad.reshape(-1, K) @ W.T``.  At the paper shapes it is byte-equal
      to the batched product (pinned in ``tests/test_perf_equivalence.py``).
    * square: the autograd engine's batched ``grad @ W.T``, with ``W.T``
      the transposed view.  Folding the batch into rows, or a contiguous
      copy of ``W.T``, changes the last bits.
    """
    transposed = np.swapaxes(weight, -1, -2)
    if weight.shape[-1] == 1:
        return np.multiply(grad, transposed, out=out)
    if grad.ndim == 3 and weight.shape[0] != weight.shape[1]:
        if out is None:
            out = np.empty(grad.shape[:-1] + (weight.shape[0],))
        rows = grad.shape[0] * grad.shape[1]
        np.matmul(grad.reshape(rows, -1), transposed, out=out.reshape(rows, -1))
        return out
    return np.matmul(grad, transposed, out=out)


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
    executor, :meth:`weight` and :meth:`bias` run each one there while the
    caller carries on down the chain; numpy releases the GIL in these loops,
    so a worker thread puts them on a second core.  :meth:`collect` waits for
    every one and writes it into its parameter's ``.grad``.  Without an
    executor they run the call at once.  Either way each gradient is the same
    call on the same operands, so its bits do not depend on where it ran.
    Each thread forms its weight-gradient products in one scratch array that
    lives as long as the sink, instead of a fresh one per call.
    """

    def __init__(self, executor: Optional[Executor] = None) -> None:
        self._executor = executor
        self._pending: List[Tuple[nn.Tensor, Future]] = []
        self._scratch = threading.local()

    def weight(self, parameter: nn.Tensor, inputs: np.ndarray, grad: np.ndarray) -> None:
        """Set ``parameter.grad = linear_weight_grad(inputs, grad)``, now or at :meth:`collect`."""
        self._put(parameter, self._weight_grad, inputs, grad)

    def bias(self, parameter: nn.Tensor, grad: np.ndarray) -> None:
        """Set ``parameter.grad = bias_grad(grad)``, now or at :meth:`collect`."""
        self._put(parameter, bias_grad, grad)

    def _put(self, parameter: nn.Tensor, function: Callable[..., np.ndarray],
             *operands: np.ndarray) -> None:
        if self._executor is None:
            parameter.grad = function(*operands)
        else:
            self._pending.append((parameter, self._executor.submit(function, *operands)))

    def _weight_grad(self, inputs: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """:func:`linear_weight_grad` in the calling thread's scratch."""
        if inputs.ndim == 2:
            return linear_weight_grad(inputs, grad)
        size = (product_block(inputs, grad) + 1) * inputs.shape[-1] * grad.shape[-1]
        scratch = getattr(self._scratch, "products", None)
        if scratch is None or scratch.size < size:
            scratch = self._scratch.products = np.empty(size)
        return linear_weight_grad(inputs, grad, scratch)

    def collect(self) -> None:
        """Wait for every handed-off gradient and write it into ``.grad``."""
        for parameter, future in self._pending:
            parameter.grad = future.result()
        self._pending.clear()


class PropagationBuffers:
    """The ``(I, N, ·)`` arrays one :class:`AdaptivePropagationLayer` step writes.

    A training run allocates one set per layer and every step writes into it
    with ``out=``, so a step's activations are not handed back to the heap at
    the end of each step and faulted back in at the start of the next.  The
    relation and purchase blocks of the triplet input never change, so they
    are filled once, here.  ``triplet_input``, ``triplet_repr``,
    ``interaction``, ``grad_hidden``, ``grad_in`` and ``grad_out`` go to the
    :class:`GradientSink`, so each layer has its own and nothing writes them
    before :meth:`GradientSink.collect`.  ``scratch``, ``product`` and
    ``grad_input`` live within one layer call, so layers may ``share`` them.
    """

    def __init__(self, relation_states: np.ndarray, purchase_state: np.ndarray,
                 share: Optional["PropagationBuffers"] = None) -> None:
        num_items, max_neighbors, dim = shape = relation_states.shape
        self.triplet_input = np.empty((num_items, max_neighbors, 4 * dim))
        self.triplet_input[..., 2 * dim:3 * dim] = relation_states
        self.triplet_input[..., 3 * dim:] = purchase_state
        (self.triplet_repr, self.interaction, self.messages, self.grad_hidden,
         self.grad_in, self.grad_out) = (np.empty(shape) for _ in range(6))
        if share is None:
            self.scratch, self.product = np.empty(shape), np.empty(shape)
            self.grad_input = np.empty((num_items, max_neighbors, 2 * dim))
        else:
            self.scratch, self.product = share.scratch, share.product
            self.grad_input = share.grad_input


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
                       purchase_state, neighbor_mask, neighbor_is_outgoing,
                       buffers: Optional[PropagationBuffers] = None
                       ) -> Tuple[np.ndarray, tuple]:
        """:meth:`forward` plus the activations :meth:`backward` needs.

        The activations are written into ``buffers``, which must have been
        built from these ``relation_states`` and ``purchase_state``; by
        default a fresh set.  The returned message never aliases them.
        """
        if buffers is None:
            buffers = PropagationBuffers(relation_states, purchase_state)
        dim = self.embedding_dim
        # The concatenation of Eq. 1, with the item state broadcast over the
        # neighbour axis; the relation and purchase blocks are already there.
        triplet_input = buffers.triplet_input
        triplet_input[..., :dim] = item_states[:, None, :]
        triplet_input[..., dim:2 * dim] = neighbor_states
        triplet_repr = np.matmul(triplet_input, self.triplet_transform.weight.data,
                                 out=buffers.triplet_repr)
        triplet_repr += self.triplet_transform.bias.data
        sigmoid(triplet_repr, out=triplet_repr)                              # Eq. 1
        attention = sigmoid(triplet_repr @ self.attention.weight.data
                            + self.attention.bias.data)                     # Eq. 2 (I, N, 1)

        mask = neighbor_mask[..., None]
        outgoing = neighbor_is_outgoing[..., None]
        incoming = (1.0 - neighbor_is_outgoing)[..., None]
        interaction = np.multiply(neighbor_states, relation_states,
                                  out=buffers.interaction)                  # h_ej ∘ h_r
        messages = np.matmul(interaction, self.transform_out.weight.data,
                             out=buffers.messages)
        messages *= outgoing
        incoming_messages = np.matmul(interaction, self.transform_in.weight.data,
                                      out=buffers.scratch)
        incoming_messages *= incoming
        messages += incoming_messages
        masked_attention = attention * mask
        message = np.multiply(masked_attention, messages,
                              out=buffers.scratch).sum(axis=1)               # Eq. 3
        trace = (buffers, attention, masked_attention, relation_states, mask,
                 outgoing, incoming)
        return message, trace

    def backward(self, trace: tuple, grad_message: np.ndarray, gradients: GradientSink
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Send the parameter gradients to ``gradients``; return the input gradients.

        Returns ``(grad_item_states, grad_neighbor_states)``: the item-state
        gradient through the broadcast in Eq. 1 only (the caller adds the
        other consumers of the item states in autograd's order).  The
        neighbour-state gradient is the shared ``scratch`` buffer: the
        caller may write it, and must be done with it before the next layer
        call.
        """
        (buffers, attention, masked_attention, relation_states, mask, outgoing,
         incoming) = trace
        dim = self.embedding_dim
        triplet_repr = buffers.triplet_repr
        grad = grad_message[:, None, :]
        grad_masked_attention = np.multiply(grad, buffers.messages,
                                            out=buffers.scratch).sum(axis=2, keepdims=True)
        grad_messages = np.multiply(grad, masked_attention, out=buffers.scratch)
        grad_in = np.multiply(grad_messages, incoming, out=buffers.grad_in)
        grad_out = np.multiply(grad_messages, outgoing, out=buffers.grad_out)
        grad_attention = grad_masked_attention * mask
        grad_logit = grad_attention * attention * (1.0 - attention)
        gradients.bias(self.attention.bias, grad_logit)
        gradients.weight(self.attention.weight, triplet_repr, grad_logit)
        grad_hidden = input_grad(grad_logit, self.attention.weight.data,
                                 out=buffers.grad_hidden)
        grad_hidden *= triplet_repr
        grad_hidden *= np.subtract(1.0, triplet_repr, out=buffers.scratch)
        gradients.bias(self.triplet_transform.bias, grad_hidden)
        gradients.weight(self.triplet_transform.weight, buffers.triplet_input, grad_hidden)
        # Only the item and neighbour blocks of the triplet input are inputs
        # of the step; the relation and purchase blocks are constants.
        grad_input = input_grad(grad_hidden, self.triplet_transform.weight.data[:2 * dim],
                                out=buffers.grad_input)

        gradients.weight(self.transform_in.weight, buffers.interaction, grad_in)
        gradients.weight(self.transform_out.weight, buffers.interaction, grad_out)
        grad_neighbors = input_grad(grad_in, self.transform_in.weight.data,
                                    out=buffers.scratch)
        grad_neighbors += input_grad(grad_out, self.transform_out.weight.data,
                                     out=buffers.product)
        grad_neighbors *= relation_states                     # grad of h_ej ∘ h_r
        grad_neighbors += grad_input[..., dim:]
        grad_items = grad_input[..., :dim].sum(axis=1)
        return grad_items, grad_neighbors
