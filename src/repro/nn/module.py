"""Module base class: parameter registration, traversal and (de)serialisation."""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .tensor import Tensor


class Module:
    """Base class for every neural component in this repository.

    Parameters are :class:`Tensor` attributes with ``requires_grad=True``;
    sub-modules are ``Module`` attributes.  Both are discovered by attribute
    scanning, mirroring the familiar ``torch.nn.Module`` contract.
    """

    def parameters(self) -> List[Tensor]:
        """Return every trainable tensor reachable from this module."""
        return [tensor for _, tensor in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> List[Tuple[str, Tensor]]:
        """Return ``(qualified_name, tensor)`` pairs for all trainable tensors."""
        found: List[Tuple[str, Tensor]] = []
        for name, value in vars(self).items():
            qualified = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                found.append((qualified, value))
            elif isinstance(value, Module):
                found.extend(value.named_parameters(prefix=f"{qualified}."))
            elif isinstance(value, (list, tuple)):
                for i, element in enumerate(value):
                    if isinstance(element, Tensor) and element.requires_grad:
                        found.append((f"{qualified}.{i}", element))
                    elif isinstance(element, Module):
                        found.extend(element.named_parameters(prefix=f"{qualified}.{i}."))
        return found

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(parameter.size for parameter in self.parameters()))

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a name → array snapshot of all parameters (copies)."""
        return {name: tensor.data.copy() for name, tensor in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values saved by :meth:`state_dict`.

        Raises ``KeyError`` if a parameter is missing and ``ValueError`` on a
        shape mismatch, so silent corruption is impossible.
        """
        for name, tensor in self.named_parameters():
            if name not in state:
                raise KeyError(f"missing parameter in state dict: {name!r}")
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != tensor.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"expected {tensor.data.shape}, got {value.shape}"
                )
            tensor.data = value.copy()

    # Subclasses implement __call__/forward with their own signatures.
    def forward(self, *args, **kwargs):  # pragma: no cover - interface stub
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
