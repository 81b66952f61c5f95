"""The LSTM cell of the shared policy networks' history encoders (Eq. 12-14)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import init
from .module import Module
from .tensor import Tensor


class LSTMCell(Module):
    """Single-step LSTM cell.

    The dual-agent policy networks encode the walked history with one LSTM per
    agent (Eq. 12-14 in the paper).  The recurrence is the standard
    input/forget/cell/output-gate formulation.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("LSTMCell dimensions must be positive")
        rng = init.ensure_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        gate_dim = 4 * hidden_size
        self.weight_ih = Tensor(init.xavier_uniform((input_size, gate_dim), rng),
                                requires_grad=True, name="lstm.weight_ih")
        self.weight_hh = Tensor(init.xavier_uniform((hidden_size, gate_dim), rng),
                                requires_grad=True, name="lstm.weight_hh")
        self.bias = Tensor(init.zeros((gate_dim,)), requires_grad=True, name="lstm.bias")

    def initial_state(self) -> Tuple[Tensor, Tensor]:
        """Return zero ``(hidden, cell)`` state vectors."""
        return (Tensor(np.zeros(self.hidden_size)), Tensor(np.zeros(self.hidden_size)))

    def forward(self, x: Tensor, state: Optional[Tuple[Tensor, Tensor]] = None
                ) -> Tuple[Tensor, Tensor]:
        if state is None:
            state = self.initial_state()
        hidden, cell = state
        gates = x @ self.weight_ih + hidden @ self.weight_hh + self.bias
        h = self.hidden_size
        input_gate = gates[0:h].sigmoid() if gates.ndim == 1 else gates[:, 0:h].sigmoid()
        forget_gate = gates[h:2 * h].sigmoid() if gates.ndim == 1 else gates[:, h:2 * h].sigmoid()
        candidate = gates[2 * h:3 * h].tanh() if gates.ndim == 1 else gates[:, 2 * h:3 * h].tanh()
        output_gate = gates[3 * h:4 * h].sigmoid() if gates.ndim == 1 else gates[:, 3 * h:].sigmoid()
        new_cell = forget_gate * cell + input_gate * candidate
        new_hidden = output_gate * new_cell.tanh()
        return new_hidden, new_cell
