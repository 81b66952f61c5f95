"""The category agent and the entity agent (Section IV-C.1 and IV-C.2).

Each agent bundles its environment view with the shared policy networks and
exposes a single ``decide`` method that scores the candidate actions, samples
(or greedily picks) one, and advances its history encoder.  The DARL trainer
drives both agents through this interface; each decision carries the forward
activations (scores, log-softmax head, LSTM step) that the trainer's
hand-written backward pass reads.  Beam-search inference
(:mod:`repro.darl.inference`) batches the same numpy forward of
:class:`SharedPolicyNetworks` directly instead of calling ``decide``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..kg.pruning import Action
from ..kg.relations import RELATION_LIST, Relation
from ..rl.environment import CategoryEnvironment, CategoryState, EntityEnvironment, EntityState
from .collaborative import GuidanceModel, action_target_categories
from .shared_policy import (
    HeadActivations,
    LSTMActivations,
    LSTMState,
    ScoreActivations,
    SharedPolicyNetworks,
    policy_head,
    sample_index,
)


@dataclass
class CategoryDecision:
    """Outcome of one category-agent step."""

    actions: List[int]
    probabilities: np.ndarray
    chosen_index: int
    chosen_category: int
    log_prob: float
    entropy: float
    new_hidden: np.ndarray
    new_lstm_state: LSTMState
    scores: ScoreActivations
    head: HeadActivations
    lstm: LSTMActivations

    @property
    def alternative_categories(self) -> List[int]:
        return [c for i, c in enumerate(self.actions) if i != self.chosen_index]

    @property
    def alternative_probabilities(self) -> List[float]:
        return [float(p) for i, p in enumerate(self.probabilities) if i != self.chosen_index]


@dataclass
class EntityDecision:
    """Outcome of one entity-agent step.

    The candidate actions are kept as the environment's
    ``(relation_index, target)`` arrays; :attr:`actions` lists them as
    ``(Relation, target)`` pairs on demand.
    """

    relations: np.ndarray
    targets: np.ndarray
    base_logits: np.ndarray
    target_categories: np.ndarray     # -1 where the target has no category
    probabilities: np.ndarray
    chosen_index: int
    chosen_action: Action
    log_prob: float
    entropy: float
    new_hidden: np.ndarray
    new_lstm_state: LSTMState
    scores: ScoreActivations
    head: HeadActivations
    lstm: LSTMActivations

    @property
    def actions(self) -> List[Action]:
        return [(RELATION_LIST[relation], target)
                for relation, target in zip(self.relations.tolist(), self.targets.tolist())]


def _pick(head: HeadActivations, rng: np.random.Generator,
          greedy: bool) -> Tuple[np.ndarray, int]:
    """Normalised policy and the chosen action index (sampled or argmax)."""
    probabilities = head.probs / head.probs.sum()
    if greedy:
        return probabilities, int(np.argmax(probabilities))
    return probabilities, sample_index(probabilities, rng)


class CategoryAgent:
    """Walks the category knowledge graph ``Gc`` and emits milestone guidance."""

    def __init__(self, environment: CategoryEnvironment, policy: SharedPolicyNetworks) -> None:
        self.environment = environment
        self.policy = policy

    def decide(self, state: CategoryState, partner_hidden: Optional[np.ndarray],
               history_hidden: np.ndarray, lstm_state: LSTMState,
               rng: np.random.Generator, greedy: bool = False) -> CategoryDecision:
        """Score candidate categories, pick one, and advance the history LSTM."""
        actions = self.environment.actions(state)
        action_matrix = self.environment.action_matrix(actions)
        user_vector = self.environment.representations.entity_vector(state.user_entity)
        current_vector = self.environment.representations.category_vector(state.current_category)

        scores = self.policy.category_scores_traced(user_vector, current_vector,
                                                    history_hidden, action_matrix)
        head = policy_head(scores.logits)
        probabilities, chosen_index = _pick(head, rng, greedy)
        chosen_category = actions[chosen_index]

        chosen_vector = self.environment.representations.category_vector(chosen_category)
        new_hidden, new_lstm_state, lstm = self.policy.encode_category_step_traced(
            chosen_vector, partner_hidden, lstm_state)

        return CategoryDecision(
            actions=actions,
            probabilities=probabilities,
            chosen_index=chosen_index,
            chosen_category=chosen_category,
            log_prob=float(head.log_probs[chosen_index]),
            entropy=head.entropy,
            new_hidden=new_hidden,
            new_lstm_state=new_lstm_state,
            scores=scores,
            head=head,
            lstm=lstm,
        )


class EntityAgent:
    """Walks the entity-level KG under (optional) category guidance."""

    def __init__(self, environment: EntityEnvironment, policy: SharedPolicyNetworks,
                 guidance: Optional[GuidanceModel] = None) -> None:
        self.environment = environment
        self.policy = policy
        self.guidance = guidance or GuidanceModel()

    def decide(self, state: EntityState, last_relation: Relation,
               partner_hidden: Optional[np.ndarray], history_hidden: np.ndarray,
               lstm_state: LSTMState, rng: np.random.Generator,
               guided_category: Optional[int] = None, greedy: bool = False) -> EntityDecision:
        """Score candidate hops (with guidance), pick one, advance the LSTM."""
        environment = self.environment
        representations = environment.representations
        relations, targets = environment.legal_action_arrays(state, guided_category)
        action_matrix = environment.arrays_matrix((relations, targets))
        entity_vector = representations.entity_vector(state.current_entity)
        relation_vector = representations.relation_vector(last_relation)

        scores = self.policy.entity_scores_traced(entity_vector, relation_vector,
                                                  history_hidden, action_matrix)
        target_categories = action_target_categories(environment.graph, targets)
        bonus = self.guidance.guidance_bonus(target_categories, guided_category)
        head = policy_head(scores.logits + bonus)
        probabilities, chosen_index = _pick(head, rng, greedy)
        chosen_relation, chosen_target = (int(relations[chosen_index]),
                                          int(targets[chosen_index]))

        new_hidden, new_lstm_state, lstm = self.policy.encode_entity_step_traced(
            representations.relation[chosen_relation], representations.entity[chosen_target],
            partner_hidden, lstm_state)

        return EntityDecision(
            relations=relations,
            targets=targets,
            base_logits=scores.logits,
            target_categories=target_categories,
            probabilities=probabilities,
            chosen_index=chosen_index,
            chosen_action=(RELATION_LIST[chosen_relation], chosen_target),
            log_prob=float(head.log_probs[chosen_index]),
            entropy=head.entropy,
            new_hidden=new_hidden,
            new_lstm_state=new_lstm_state,
            scores=scores,
            head=head,
            lstm=lstm,
        )
