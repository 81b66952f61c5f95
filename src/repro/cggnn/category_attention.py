"""Category-aware graph attention network (CGAN, Eq. 8-10).

Items attend over their neighbouring item-categories: the aggregation
coefficient is a LeakyReLU of a linear map over the concatenated item/category
representations (Eq. 8), normalised with a masked softmax (Eq. 9), and the
category context ``h_v^c`` is the attention-weighted sum of category vectors
(Eq. 10).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..nn.init import ensure_rng
from .propagation import GradientSink, input_grad

_MASK_FILL = -1e9


class CategoryBuffers:
    """The ``(I, C, ·)`` arrays one :class:`CategoryAttentionLayer` step writes.

    Reused step after step like
    :class:`~repro.cggnn.propagation.PropagationBuffers`: ``pair`` goes to
    the :class:`GradientSink`, so each layer has its own; ``scratch``,
    ``grad_weighted`` and ``grad_pair`` are done with before the next layer
    call, so layers may ``share`` them.
    """

    def __init__(self, category_shape: Tuple[int, int, int],
                 share: Optional["CategoryBuffers"] = None) -> None:
        num_items, max_categories, dim = category_shape
        self.pair = np.empty((num_items, max_categories, 2 * dim))
        if share is None:
            self.scratch = np.empty(category_shape)
            self.grad_weighted = np.empty(category_shape)
            self.grad_pair = np.empty(self.pair.shape)
        else:
            self.scratch, self.grad_weighted = share.scratch, share.grad_weighted
            self.grad_pair = share.grad_pair


class CategoryAttentionLayer(nn.Module):
    """One attention hop from an item to its neighbouring categories."""

    def __init__(self, embedding_dim: int, negative_slope: float = 0.2,
                 rng: Optional[np.random.Generator] = None) -> None:
        if embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        rng = ensure_rng(rng)
        self.embedding_dim = embedding_dim
        self.negative_slope = negative_slope
        self.score_transform = nn.Linear(2 * embedding_dim, 1, rng=rng)

    def forward(self, item_states: np.ndarray, category_states: np.ndarray,
                category_mask: np.ndarray) -> np.ndarray:
        """Return the category context vector ``h_v^c`` for every item.

        ``item_states`` (I, d); ``category_states`` (I, C, d);
        ``category_mask`` (I, C).  Output (I, d).
        """
        return self.forward_traced(item_states, category_states, category_mask)[0]

    def forward_traced(self, item_states, category_states, category_mask,
                       buffers: Optional[CategoryBuffers] = None
                       ) -> Tuple[np.ndarray, tuple]:
        """:meth:`forward` plus the activations :meth:`backward` needs.

        The activations are written into ``buffers`` (by default a fresh
        set); the returned context never aliases them.
        """
        if buffers is None:
            buffers = CategoryBuffers(category_states.shape)
        num_items, max_categories, dim = category_states.shape
        pair = buffers.pair
        pair[..., :dim] = item_states[:, None, :]
        pair[..., dim:] = category_states
        logits = pair @ self.score_transform.weight.data + self.score_transform.bias.data
        positive = logits > 0
        scores = np.where(positive, logits, self.negative_slope * logits)       # Eq. 8 (I, C, 1)

        # Masked softmax (Eq. 9): padded category slots get a large negative score.
        masked_scores = scores.reshape(num_items, max_categories) + (
            (1.0 - category_mask) * _MASK_FILL)
        shifted = masked_scores - np.max(masked_scores, axis=-1, keepdims=True)
        exps = np.exp(shifted)
        exp_sum = exps.sum(axis=-1, keepdims=True)
        masked = exps / exp_sum * category_mask
        normaliser = masked.sum(axis=-1, keepdims=True) + 1e-12
        attention = (masked / normaliser).reshape(num_items, max_categories, 1)

        context = np.multiply(category_states, attention,
                              out=buffers.scratch).sum(axis=1)                 # Eq. 10
        return context, (buffers, positive, exps, exp_sum, masked, normaliser,
                         attention, category_states, category_mask)

    def backward(self, trace: tuple, grad_context: np.ndarray, gradients: GradientSink
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Send the parameter gradients to ``gradients``; return the input gradients.

        Returns ``(grad_item_states, grad_weighted, grad_paired)``: the
        category-state gradient arrives through two consumers (the weighted
        sum of Eq. 10 and the pair of Eq. 8), which the caller adds up across
        layers in the autograd engine's order.  The last two are the shared
        buffers: the caller must be done with them before the next layer
        call.
        """
        (buffers, positive, exps, exp_sum, masked, normaliser, attention,
         category_states, category_mask) = trace
        num_items, max_categories, dim = category_states.shape
        grad = grad_context[:, None, :]
        grad_weighted = np.multiply(grad, attention, out=buffers.grad_weighted)
        grad_attention = np.multiply(grad, category_states, out=buffers.scratch).sum(
            axis=2).reshape(num_items, max_categories)
        grad_normaliser = (-grad_attention * masked / (normaliser ** 2)).sum(
            axis=1, keepdims=True)
        grad_masked = grad_attention / normaliser + grad_normaliser
        grad_softmax = grad_masked * category_mask
        grad_exp_sum = (-grad_softmax * exps / (exp_sum ** 2)).sum(axis=1, keepdims=True)
        grad_shifted = (grad_softmax / exp_sum + grad_exp_sum) * exps
        grad_logits = grad_shifted.reshape(num_items, max_categories, 1) * np.where(
            positive, 1.0, self.negative_slope)
        gradients.bias(self.score_transform.bias, grad_logits)
        gradients.weight(self.score_transform.weight, buffers.pair, grad_logits)
        grad_pair = input_grad(grad_logits, self.score_transform.weight.data,
                               out=buffers.grad_pair)
        return grad_pair[..., :dim].sum(axis=1), grad_weighted, grad_pair[..., dim:]
