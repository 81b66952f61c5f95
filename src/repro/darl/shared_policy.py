"""Shared policy networks of the dual-agent framework (Eq. 12-16).

Two LSTMs encode the histories of the category and entity agents.  History
*sharing* is realised by feeding each agent's previous hidden state into the
other agent's LSTM input (Eq. 13-14), so the two policies condition on a joint
view of the walk.  Action scoring follows Eq. 15-16: a two-layer perceptron
maps the (state, history) encoding to a query vector that is dotted with the
stacked action embeddings, and a softmax turns the scores into a policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..nn import Tensor
from ..nn import functional as F

LSTMState = Tuple[Tensor, Tensor]


@dataclass
class PolicyConfig:
    """Architecture hyper-parameters of the shared policy networks."""

    embedding_dim: int = 100
    hidden_size: int = 64
    mlp_hidden: int = 128
    share_history: bool = True   # disabled by the RSHI ablation (Fig. 4)
    seed: int = 0

    def validate(self) -> None:
        if min(self.embedding_dim, self.hidden_size, self.mlp_hidden) <= 0:
            raise ValueError("policy dimensions must be positive")


class SharedPolicyNetworks(nn.Module):
    """π^c_θ and π^e_θ with cross-agent history sharing."""

    def __init__(self, config: Optional[PolicyConfig] = None) -> None:
        self.config = config or PolicyConfig()
        self.config.validate()
        rng = np.random.default_rng(self.config.seed)
        d = self.config.embedding_dim
        h = self.config.hidden_size
        m = self.config.mlp_hidden

        # History encoders (Eq. 12-14).  Inputs: the latest step embedding of
        # the agent itself concatenated with the partner's previous hidden
        # state (zeros when sharing is disabled or at step 0).
        self.entity_lstm = nn.LSTMCell(2 * d + h, h, rng=rng)
        self.category_lstm = nn.LSTMCell(d + h, h, rng=rng)

        # Entity policy head (Eq. 16): query = W2 ReLU(W1 [h_e; h_r; y^e]).
        self.entity_mlp_in = nn.Linear(2 * d + h, m, rng=rng)
        self.entity_mlp_out = nn.Linear(m, 2 * d, rng=rng)

        # Category policy head (Eq. 15): query = W2 ReLU(W1 [u; c; y^c]).
        self.category_mlp_in = nn.Linear(2 * d + h, m, rng=rng)
        self.category_mlp_out = nn.Linear(m, d, rng=rng)

    # ------------------------------------------------------------------ #
    # history encoding
    # ------------------------------------------------------------------ #
    def initial_entity_state(self) -> LSTMState:
        return self.entity_lstm.initial_state()

    def initial_category_state(self) -> LSTMState:
        return self.category_lstm.initial_state()

    def zero_hidden(self) -> Tensor:
        return Tensor(np.zeros(self.config.hidden_size))

    def _partner(self, partner_hidden: Optional[Tensor]) -> Tensor:
        if partner_hidden is None or not self.config.share_history:
            return self.zero_hidden()
        return partner_hidden

    def encode_entity_step(self, relation_vector: np.ndarray, entity_vector: np.ndarray,
                           partner_hidden: Optional[Tensor],
                           state: LSTMState) -> Tuple[Tensor, LSTMState]:
        """Advance the entity history encoder with the latest hop (Eq. 14)."""
        step = nn.concat([Tensor(relation_vector), Tensor(entity_vector),
                          self._partner(partner_hidden)], axis=-1)
        hidden, cell = self.entity_lstm(step, state)
        return hidden, (hidden, cell)

    def encode_category_step(self, category_vector: np.ndarray,
                             partner_hidden: Optional[Tensor],
                             state: LSTMState) -> Tuple[Tensor, LSTMState]:
        """Advance the category history encoder with the latest category (Eq. 13)."""
        step = nn.concat([Tensor(category_vector), self._partner(partner_hidden)], axis=-1)
        hidden, cell = self.category_lstm(step, state)
        return hidden, (hidden, cell)

    # ------------------------------------------------------------------ #
    # action scoring
    # ------------------------------------------------------------------ #
    def entity_action_logits(self, entity_vector: np.ndarray, relation_vector: np.ndarray,
                             history_hidden: Tensor, action_matrix: np.ndarray) -> Tensor:
        """Unnormalised scores over the entity agent's candidate actions (Eq. 16)."""
        state_input = nn.concat([Tensor(entity_vector), Tensor(relation_vector),
                                 history_hidden], axis=-1)
        query = self.entity_mlp_out(F.relu(self.entity_mlp_in(state_input)))
        return Tensor(action_matrix) @ query

    def category_action_logits(self, user_vector: np.ndarray, category_vector: np.ndarray,
                               history_hidden: Tensor, action_matrix: np.ndarray) -> Tensor:
        """Unnormalised scores over the category agent's candidate actions (Eq. 15)."""
        state_input = nn.concat([Tensor(user_vector), Tensor(category_vector),
                                 history_hidden], axis=-1)
        query = self.category_mlp_out(F.relu(self.category_mlp_in(state_input)))
        return Tensor(action_matrix) @ query

    @staticmethod
    def policy_distribution(logits: Tensor) -> Tensor:
        """Softmax policy over candidate actions."""
        return F.softmax(logits, axis=-1)

    # ------------------------------------------------------------------ #
    # inference fast path (plain NumPy, no autograd graph)
    # ------------------------------------------------------------------ #
    # Beam-search inference never needs gradients; these mirrors of the methods
    # above run directly on the parameter arrays, which keeps the efficiency
    # study (Table III) honest about CADRL's deployment cost.
    #
    # Every method accepts either a single state (1-D vectors) or a batch of
    # states (2-D arrays with a leading batch axis) — batched inference uses
    # the batched form to vectorise one rollout step across many users.

    def _lstm_step_numpy(self, cell: nn.LSTMCell, step: np.ndarray,
                         state: Tuple[np.ndarray, np.ndarray]
                         ) -> Tuple[np.ndarray, np.ndarray]:
        hidden, memory = state
        gates = step @ cell.weight_ih.data + hidden @ cell.weight_hh.data + cell.bias.data
        h = cell.hidden_size
        sigmoid = lambda x: 1.0 / (1.0 + np.exp(-x))  # noqa: E731 - tiny local helper
        input_gate = sigmoid(gates[..., 0:h])
        forget_gate = sigmoid(gates[..., h:2 * h])
        candidate = np.tanh(gates[..., 2 * h:3 * h])
        output_gate = sigmoid(gates[..., 3 * h:4 * h])
        new_memory = forget_gate * memory + input_gate * candidate
        new_hidden = output_gate * np.tanh(new_memory)
        return new_hidden, new_memory

    def initial_state_numpy(self, batch_size: Optional[int] = None
                            ) -> Tuple[np.ndarray, np.ndarray]:
        h = self.config.hidden_size
        if batch_size is not None:
            return np.zeros((batch_size, h)), np.zeros((batch_size, h))
        return np.zeros(h), np.zeros(h)

    def _partner_numpy(self, partner_hidden: Optional[np.ndarray],
                       like: Optional[np.ndarray] = None) -> np.ndarray:
        if partner_hidden is None or not self.config.share_history:
            h = self.config.hidden_size
            if like is not None and like.ndim == 2:
                return np.zeros((like.shape[0], h))
            return np.zeros(h)
        return partner_hidden

    def encode_entity_step_numpy(self, relation_vector: np.ndarray, entity_vector: np.ndarray,
                                 partner_hidden: Optional[np.ndarray],
                                 state: Tuple[np.ndarray, np.ndarray]
                                 ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        step = np.concatenate([relation_vector, entity_vector,
                               self._partner_numpy(partner_hidden, like=entity_vector)],
                              axis=-1)
        hidden, memory = self._lstm_step_numpy(self.entity_lstm, step, state)
        return hidden, (hidden, memory)

    def encode_category_step_numpy(self, category_vector: np.ndarray,
                                   partner_hidden: Optional[np.ndarray],
                                   state: Tuple[np.ndarray, np.ndarray]
                                   ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        step = np.concatenate([category_vector,
                               self._partner_numpy(partner_hidden, like=category_vector)],
                              axis=-1)
        hidden, memory = self._lstm_step_numpy(self.category_lstm, step, state)
        return hidden, (hidden, memory)

    def entity_query_numpy(self, entity_vector: np.ndarray, relation_vector: np.ndarray,
                           history_hidden: np.ndarray) -> np.ndarray:
        """Entity-policy query vector(s) (Eq. 16) without the action dot-product."""
        state_input = np.concatenate([entity_vector, relation_vector, history_hidden],
                                     axis=-1)
        hidden = np.maximum(state_input @ self.entity_mlp_in.weight.data
                            + self.entity_mlp_in.bias.data, 0.0)
        return hidden @ self.entity_mlp_out.weight.data + self.entity_mlp_out.bias.data

    def category_query_numpy(self, user_vector: np.ndarray, category_vector: np.ndarray,
                             history_hidden: np.ndarray) -> np.ndarray:
        """Category-policy query vector(s) (Eq. 15) without the action dot-product."""
        state_input = np.concatenate([user_vector, category_vector, history_hidden],
                                     axis=-1)
        hidden = np.maximum(state_input @ self.category_mlp_in.weight.data
                            + self.category_mlp_in.bias.data, 0.0)
        return hidden @ self.category_mlp_out.weight.data + self.category_mlp_out.bias.data

    def entity_action_logits_numpy(self, entity_vector: np.ndarray,
                                   relation_vector: np.ndarray,
                                   history_hidden: np.ndarray,
                                   action_matrix: np.ndarray) -> np.ndarray:
        return action_matrix @ self.entity_query_numpy(entity_vector, relation_vector,
                                                       history_hidden)

    def category_action_logits_numpy(self, user_vector: np.ndarray,
                                     category_vector: np.ndarray,
                                     history_hidden: np.ndarray,
                                     action_matrix: np.ndarray) -> np.ndarray:
        return action_matrix @ self.category_query_numpy(user_vector, category_vector,
                                                         history_hidden)
