"""Minimal neural-network substrate: parameters, layers and optimisers.

Production code keeps its weights in :class:`~repro.nn.tensor.Tensor`
parameter holders (``.data`` / ``.grad``) organised by :class:`Module`,
:class:`Linear` and :class:`LSTMCell`; hand-written numpy backwards fill the
gradients and :class:`Adam` (with :func:`clip_grad_norm`) applies them.  The
``Tensor`` reverse-mode autodiff and the ``Tensor`` ops in :mod:`.functional`
back only the autograd oracles in :mod:`repro.perf.reference`.
"""

from . import functional
from . import init
from .init import DEFAULT_SEED, ensure_rng
from .layers import Linear
from .module import Module
from .optim import Adam, Optimizer, clip_grad_norm
from .recurrent import LSTMCell
from .tensor import Tensor, concat, ones, stack, tensor, zeros

__all__ = [
    "Adam",
    "DEFAULT_SEED",
    "LSTMCell",
    "Linear",
    "Module",
    "Optimizer",
    "Tensor",
    "clip_grad_norm",
    "concat",
    "ensure_rng",
    "functional",
    "init",
    "ones",
    "stack",
    "tensor",
    "zeros",
]
