"""Functional neural-network operations built on :class:`repro.nn.tensor.Tensor`."""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic sigmoid."""
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    return x.tanh()


def relu(x: Tensor) -> Tensor:
    """Elementwise rectified linear unit."""
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Elementwise leaky ReLU, used by the category-aware attention (Eq. 8)."""
    return x.leaky_relu(negative_slope)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(np.max(x.data, axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - Tensor(np.max(x.data, axis=axis, keepdims=True))
    log_norm = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_norm


def cosine_similarity(a: np.ndarray, b: np.ndarray, eps: float = 1e-12) -> float:
    """Cosine similarity between two plain vectors (used by the Rpe reward, Eq. 19)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    # ``np.linalg.norm`` of a real vector is ``sqrt(x.dot(x))``; spelled out
    # here to skip its dispatch on this per-step reward path.
    denom = math.sqrt(a.dot(a)) * math.sqrt(b.dot(b))
    if denom < eps:
        return 0.0
    return float(np.dot(a, b) / denom)


def kl_divergence(p: np.ndarray, q: np.ndarray, eps: float = 1e-12) -> float:
    """KL(p || q) for two discrete distributions (used by the Rpc reward, Eq. 17)."""
    p = np.maximum(np.asarray(p, dtype=np.float64).ravel(), eps)
    q = np.maximum(np.asarray(q, dtype=np.float64).ravel(), eps)
    p = p / p.sum()
    q = q / q.sum()
    return float((p * np.log(p / q)).sum())
