"""Shared policy networks of the dual-agent framework (Eq. 12-16).

Two LSTMs encode the histories of the category and entity agents.  History
*sharing* is realised by feeding each agent's previous hidden state into the
other agent's LSTM input (Eq. 13-14), so the two policies condition on a joint
view of the walk.  Action scoring follows Eq. 15-16: a two-layer perceptron
maps the (state, history) encoding to a query vector that is dotted with the
stacked action embeddings, and a softmax turns the scores into a policy.

The networks run as plain NumPy on the parameter arrays, one forward for
training and beam-search inference alike.  Training asks for the ``*_traced``
forms, which also return the activations the matching ``*_backward``
functions need; those write the gradients into each parameter's ``.grad``.
The backward functions use exactly the per-operation expressions of the
:mod:`repro.nn` autograd engine (``grad @ W.T``, ReLU as ``grad * mask``).
Weight and bias gradients are not formed step by step: each backward records
its (input, output-gradient) factors in a :class:`GradientFactors`, and one
contraction per weight turns them into ``.grad`` at the end of the update.
A caller that records the steps in autograd's order gets bit-identical
gradients without building a ``Tensor`` graph.  The action-scoring head
(:func:`score_actions`, :func:`policy_head` and their backwards) and the
action sampler (:func:`sample_index`) are module-level: the single-agent RL
baselines train and search with the same functions on their own parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .. import nn
from ..nn import Tensor

LSTMState = Tuple[np.ndarray, np.ndarray]


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


class LSTMActivations(NamedTuple):
    """One LSTM step's forward values that its backward reads."""

    step: np.ndarray            # cell input: own step embedding ++ partner hidden
    hidden: np.ndarray          # previous hidden state
    memory: np.ndarray          # previous memory cell
    input_gate: np.ndarray
    forget_gate: np.ndarray
    candidate: np.ndarray
    output_gate: np.ndarray
    memory_tanh: np.ndarray     # tanh of the new memory cell


class ScoreActivations(NamedTuple):
    """One action-scoring pass (query MLP + action dot product)."""

    state_input: np.ndarray     # [state embeddings; history hidden]
    hidden: np.ndarray          # ReLU layer output
    action_matrix: np.ndarray
    logits: np.ndarray


class HeadActivations(NamedTuple):
    """Log-softmax and entropy of one decision's (guided) logits."""

    exps: np.ndarray            # exp(logits - max)
    norm: np.ndarray            # sum of ``exps``, shape (1,)
    log_probs: np.ndarray
    probs: np.ndarray           # exp(log_probs), unnormalised
    entropy: float


class GradientFactors:
    """The per-step gradient factors of one update, contracted once per weight.

    Autograd adds one ``np.outer(x_t, g_t)`` per step to a weight's gradient
    and one row ``g_t`` to a bias's, in the order it visits the steps.  A
    backward pass records those factors here in that order instead, and
    :meth:`write` forms each weight gradient as one ``einsum('ti,tj->ij')``
    over the stacked factors and each bias gradient as one axis-0 sum of the
    stacked rows.  Both add the steps one after another in the recorded
    order, with no fused multiply-add, so every ``.grad`` equals the
    step-by-step sum bit for bit; ``tests/test_perf_equivalence.py`` pins it.
    The sums are taken in a form numpy never reorders: einsum's loop over
    the step axis is never the inner one unless the weight is 1 × 1, and
    ``np.add.accumulate`` always adds row after row, where ``np.add.reduce``
    goes pairwise when the rows have a single column.
    """

    def __init__(self) -> None:
        self._weights: Dict[Tensor, Tuple[List[np.ndarray], List[np.ndarray]]] = {}
        self._biases: Dict[Tensor, List[np.ndarray]] = {}

    def weight(self, parameter: Tensor, inputs: np.ndarray, grad: np.ndarray) -> None:
        """Record the step contribution ``np.outer(inputs, grad)`` to ``parameter``."""
        inputs_so_far, grads_so_far = self._weights.setdefault(parameter, ([], []))
        inputs_so_far.append(inputs)
        grads_so_far.append(grad)

    def bias(self, parameter: Tensor, grad: np.ndarray) -> None:
        """Record the step contribution ``grad`` to ``parameter``."""
        self._biases.setdefault(parameter, []).append(grad)

    def write(self) -> None:
        """Set every recorded parameter's ``.grad`` to the sum of its steps."""
        for parameter, (inputs, grads) in self._weights.items():
            inputs, grads = np.array(inputs), np.array(grads)
            if inputs.shape[1] == grads.shape[1] == 1:
                parameter.grad = np.add.accumulate(inputs * grads, axis=0)[-1:]
            else:
                parameter.grad = np.einsum("ti,tj->ij", inputs, grads)
        for parameter, rows in self._biases.items():
            parameter.grad = np.add.accumulate(np.array(rows), axis=0)[-1]


#: How far from 1 a sampled distribution may sum: ``Generator.choice``'s tolerance.
_SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))


def sample_index(probabilities: np.ndarray, rng: np.random.Generator) -> int:
    """``int(rng.choice(len(probabilities), p=probabilities))``, without its overhead.

    ``Generator.choice`` normalises the cumulative sum and searches one
    ``rng.random()`` draw in it; this does the same, so it returns the same
    index and leaves ``rng`` in the same state.  It rejects what ``choice``
    rejects (an empty distribution, NaN or negative entries, a sum more than
    ``sqrt(eps)`` from 1) with a ``ValueError``.
    """
    if len(probabilities) == 0:
        raise ValueError("cannot sample from an empty distribution")
    cdf = probabilities.cumsum()
    total = float(cdf[-1])
    if math.isnan(total):
        raise ValueError("probabilities contain NaN")
    if probabilities.min() < 0.0:
        raise ValueError("probabilities are not non-negative")
    if abs(total - 1.0) > _SUM_TOLERANCE:
        raise ValueError(f"probabilities sum to {total}, not 1")
    cdf /= total
    return int(cdf.searchsorted(rng.random(), side="right"))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


# --------------------------------------------------------------------------- #
# the policy head shared by every REINFORCE agent
# --------------------------------------------------------------------------- #
def _query_forward(mlp_in: nn.Linear, mlp_out: nn.Linear, state_input: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Query vector(s) ``W2 ReLU(W1 s)`` and the ReLU layer output."""
    hidden = np.maximum(state_input @ mlp_in.weight.data + mlp_in.bias.data, 0.0)
    return hidden @ mlp_out.weight.data + mlp_out.bias.data, hidden


def score_actions(mlp_in: nn.Linear, mlp_out: nn.Linear, state_input: np.ndarray,
                  action_matrix: np.ndarray) -> ScoreActivations:
    """Unnormalised action scores ``A · query``, with the activations."""
    query, hidden = _query_forward(mlp_in, mlp_out, state_input)
    return ScoreActivations(state_input, hidden, action_matrix, action_matrix @ query)


def policy_head(logits: np.ndarray) -> HeadActivations:
    """Log-softmax over one decision's logits, plus the policy entropy."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exps = np.exp(shifted)
    norm = exps.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(norm)
    probs = np.exp(log_probs)
    entropy = float(-(probs * log_probs).sum())
    return HeadActivations(exps, norm, log_probs, probs, entropy)


def policy_head_backward(head: HeadActivations, chosen_index: int, grad_log_prob: float,
                         grad_entropy: Optional[float]) -> np.ndarray:
    """Gradient of the logits from d loss / d log π(a) and d loss / d H."""
    if grad_entropy is None:
        grad_log_probs = np.zeros_like(head.log_probs)
        grad_log_probs[chosen_index] = grad_log_prob
    else:
        # H = -sum(p * log p), p = exp(log p): the product, then the exp,
        # then the chosen log-probability, in autograd's order.
        grad_products = np.full(head.log_probs.shape, -grad_entropy)
        grad_log_probs = (grad_products * head.probs
                          + (grad_products * head.log_probs) * head.probs)
        grad_log_probs[chosen_index] += grad_log_prob
    grad_norm = (-grad_log_probs).sum(axis=0, keepdims=True) / head.norm
    return grad_log_probs + grad_norm * head.exps


def scores_backward(mlp_in: nn.Linear, mlp_out: nn.Linear, scores: ScoreActivations,
                    grad_logits: np.ndarray, factors: GradientFactors) -> np.ndarray:
    """Backward of query MLP + action dot product; returns d/d state input.

    The four parameter contributions go into ``factors``.
    """
    grad_query = scores.action_matrix.T @ grad_logits
    factors.bias(mlp_out.bias, grad_query)
    factors.weight(mlp_out.weight, scores.hidden, grad_query)
    grad_pre = (grad_query @ mlp_out.weight.data.T) * (scores.hidden > 0)
    factors.bias(mlp_in.bias, grad_pre)
    factors.weight(mlp_in.weight, scores.state_input, grad_pre)
    return grad_pre @ mlp_in.weight.data.T


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
    # forward
    # ------------------------------------------------------------------ #
    # Every method accepts either a single state (1-D vectors) or a batch of
    # states (2-D arrays with a leading batch axis) — batched inference uses
    # the batched form to vectorise one rollout step across many users.

    @staticmethod
    def _lstm_forward(cell: nn.LSTMCell, step: np.ndarray, state: LSTMState
                      ) -> Tuple[np.ndarray, np.ndarray, LSTMActivations]:
        hidden, memory = state
        gates = step @ cell.weight_ih.data + hidden @ cell.weight_hh.data + cell.bias.data
        h = cell.hidden_size
        # One elementwise sigmoid over all four blocks; the candidate block
        # takes tanh of the raw gates instead.
        sigmoids = _sigmoid(gates)
        input_gate = sigmoids[..., 0:h]
        forget_gate = sigmoids[..., h:2 * h]
        candidate = np.tanh(gates[..., 2 * h:3 * h])
        output_gate = sigmoids[..., 3 * h:4 * h]
        new_memory = forget_gate * memory + input_gate * candidate
        memory_tanh = np.tanh(new_memory)
        new_hidden = output_gate * memory_tanh
        return new_hidden, new_memory, LSTMActivations(
            step, hidden, memory, input_gate, forget_gate, candidate, output_gate,
            memory_tanh)

    def initial_state_numpy(self, batch_size: Optional[int] = None) -> LSTMState:
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

    def encode_entity_step_traced(self, relation_vector: np.ndarray,
                                  entity_vector: np.ndarray,
                                  partner_hidden: Optional[np.ndarray], state: LSTMState
                                  ) -> Tuple[np.ndarray, LSTMState, LSTMActivations]:
        """Advance the entity history encoder with the latest hop (Eq. 14)."""
        step = np.concatenate([relation_vector, entity_vector,
                               self._partner_numpy(partner_hidden, like=entity_vector)],
                              axis=-1)
        hidden, memory, activations = self._lstm_forward(self.entity_lstm, step, state)
        return hidden, (hidden, memory), activations

    def encode_category_step_traced(self, category_vector: np.ndarray,
                                    partner_hidden: Optional[np.ndarray], state: LSTMState
                                    ) -> Tuple[np.ndarray, LSTMState, LSTMActivations]:
        """Advance the category history encoder with the latest category (Eq. 13)."""
        step = np.concatenate([category_vector,
                               self._partner_numpy(partner_hidden, like=category_vector)],
                              axis=-1)
        hidden, memory, activations = self._lstm_forward(self.category_lstm, step, state)
        return hidden, (hidden, memory), activations

    def encode_entity_step_numpy(self, relation_vector: np.ndarray, entity_vector: np.ndarray,
                                 partner_hidden: Optional[np.ndarray], state: LSTMState
                                 ) -> Tuple[np.ndarray, LSTMState]:
        hidden, state, _ = self.encode_entity_step_traced(relation_vector, entity_vector,
                                                          partner_hidden, state)
        return hidden, state

    def encode_category_step_numpy(self, category_vector: np.ndarray,
                                   partner_hidden: Optional[np.ndarray], state: LSTMState
                                   ) -> Tuple[np.ndarray, LSTMState]:
        hidden, state, _ = self.encode_category_step_traced(category_vector, partner_hidden,
                                                            state)
        return hidden, state

    def entity_query_numpy(self, entity_vector: np.ndarray, relation_vector: np.ndarray,
                           history_hidden: np.ndarray) -> np.ndarray:
        """Entity-policy query vector(s) (Eq. 16) without the action dot-product."""
        state_input = np.concatenate([entity_vector, relation_vector, history_hidden],
                                     axis=-1)
        return _query_forward(self.entity_mlp_in, self.entity_mlp_out, state_input)[0]

    def category_query_numpy(self, user_vector: np.ndarray, category_vector: np.ndarray,
                             history_hidden: np.ndarray) -> np.ndarray:
        """Category-policy query vector(s) (Eq. 15) without the action dot-product."""
        state_input = np.concatenate([user_vector, category_vector, history_hidden],
                                     axis=-1)
        return _query_forward(self.category_mlp_in, self.category_mlp_out, state_input)[0]

    def entity_scores_traced(self, entity_vector: np.ndarray, relation_vector: np.ndarray,
                             history_hidden: np.ndarray,
                             action_matrix: np.ndarray) -> ScoreActivations:
        """Unnormalised scores over the entity agent's candidate actions (Eq. 16)."""
        state_input = np.concatenate([entity_vector, relation_vector, history_hidden],
                                     axis=-1)
        return score_actions(self.entity_mlp_in, self.entity_mlp_out, state_input,
                             action_matrix)

    def category_scores_traced(self, user_vector: np.ndarray, category_vector: np.ndarray,
                               history_hidden: np.ndarray,
                               action_matrix: np.ndarray) -> ScoreActivations:
        """Unnormalised scores over the category agent's candidate actions (Eq. 15)."""
        state_input = np.concatenate([user_vector, category_vector, history_hidden],
                                     axis=-1)
        return score_actions(self.category_mlp_in, self.category_mlp_out, state_input,
                             action_matrix)

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

    # ------------------------------------------------------------------ #
    # backward (single, unbatched steps)
    # ------------------------------------------------------------------ #
    @staticmethod
    def lstm_backward(cell: nn.LSTMCell, step: LSTMActivations, grad_hidden: np.ndarray,
                      grad_memory: Optional[np.ndarray], factors: GradientFactors, *,
                      first_step: bool, partner_grad: bool
                      ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray],
                                 Optional[np.ndarray]]:
        """Backward of one LSTM step; the parameter contributions go into ``factors``.

        Returns the gradients of the partner hidden state (the trailing slice
        of the cell input; ``None`` unless ``partner_grad``), the previous
        hidden state and the previous memory cell (both ``None`` for the
        first step, whose state is the constant zero state).
        """
        grad_memory_new = grad_hidden * step.output_gate * (1.0 - step.memory_tanh**2)
        if grad_memory is not None:
            grad_memory_new = grad_memory_new + grad_memory
        grad_gates = np.concatenate([
            grad_memory_new * step.candidate * step.input_gate * (1.0 - step.input_gate),
            grad_memory_new * step.memory * step.forget_gate * (1.0 - step.forget_gate),
            grad_memory_new * step.input_gate * (1.0 - step.candidate**2),
            grad_hidden * step.memory_tanh * step.output_gate * (1.0 - step.output_gate),
        ])
        factors.bias(cell.bias, grad_gates)
        factors.weight(cell.weight_hh, step.hidden, grad_gates)
        factors.weight(cell.weight_ih, step.step, grad_gates)
        grad_partner = ((grad_gates @ cell.weight_ih.data.T)[-cell.hidden_size:]
                        if partner_grad else None)
        if first_step:
            return grad_partner, None, None
        return (grad_partner, grad_gates @ cell.weight_hh.data.T,
                grad_memory_new * step.forget_gate)
