"""Joint REINFORCE training of the dual agents (Section IV-C).

One training episode walks both agents for ``L`` steps starting from a user:
the category agent over ``Gc`` and the entity agent over the KG, with the
entity agent's action space narrowed towards the category agent's current
milestone.  Per-step partner rewards (KL guidance and cosine consistency) are
combined with the binary terminal rewards (Eq. 20-21), and both policies are
updated through the shared networks with REINFORCE.

The update builds no autograd graph.  The rollout keeps each decision's
numpy activations, and :meth:`DARLTrainer._backpropagate` runs
backprop-through-time by hand, recording every weight's per-step gradient
factors in the order :meth:`repro.nn.Tensor.backward` would add them and
contracting them once per weight at the end of the episode.  Gradients and
trained weights are therefore bit-identical to the autograd episode kept as
the oracle in :class:`repro.perf.reference.ReferenceDARLTrainer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .. import nn
from ..cggnn.model import Representations
from ..kg.category_graph import CategoryGraph
from ..kg.graph import KnowledgeGraph
from ..kg.relations import Relation
from ..rl.environment import CategoryEnvironment, EntityEnvironment
from ..rl.reinforce import (MovingBaseline, ReinforceConfig, apply_gradients,
                            reinforce_advantages, reinforce_loss)
from ..rl.rewards import collaborative_rewards, consistency_reward
from ..rl.trajectory import CategoryStep, EntityStep, EpisodeResult
from .agents import CategoryAgent, CategoryDecision, EntityAgent, EntityDecision
from .collaborative import GuidanceModel
from .shared_policy import (GradientFactors, LSTMActivations, PolicyConfig,
                            SharedPolicyNetworks, policy_head_backward, scores_backward)


@dataclass
class DARLConfig:
    """Hyper-parameters of the dual-agent RL stage (paper Section V-A.3)."""

    max_path_length: int = 6          # L
    epochs: int = 20
    learning_rate: float = 1e-3
    gamma: float = 0.95
    alpha_pe: float = 0.4             # weight of the consistency reward in R^c
    alpha_pc: float = 0.5             # weight of the guidance reward in R^e
    max_entity_actions: int = 50      # |A^e| bound
    max_category_actions: int = 10    # |A^c| bound
    guidance_strength: float = 2.0    # logit bonus of the category intervention
    hidden_size: int = 64
    mlp_hidden: int = 128
    episodes_per_user: int = 1
    gradient_clip: float = 5.0
    entropy_weight: float = 0.01      # entropy regularisation against policy collapse
    # Ablation switches (Table IV / Fig. 4)
    use_dual_agent: bool = True       # False => "CADRL w/o DARL" (single agent)
    use_collaborative_rewards: bool = True  # False => RCRM
    share_history: bool = True        # False => RSHI
    seed: int = 0

    def validate(self) -> None:
        if self.max_path_length < 1:
            raise ValueError("max_path_length must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.episodes_per_user < 1:
            raise ValueError(f"episodes_per_user must be at least 1, "
                             f"got {self.episodes_per_user}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not self.gradient_clip > 0:
            raise ValueError(f"gradient_clip must be positive, got {self.gradient_clip}")
        if not (0.0 <= self.alpha_pe <= 1.0 and 0.0 <= self.alpha_pc <= 1.0):
            raise ValueError("reward discount factors must lie in [0, 1]")


@dataclass
class EpochStats:
    """Per-epoch training diagnostics."""

    epoch: int
    mean_entity_reward: float
    mean_category_reward: float
    hit_rate: float
    policy_loss: float


class DARLTrainer:
    """Trains the dual-agent policies for one dataset."""

    def __init__(self, graph: KnowledgeGraph, category_graph: CategoryGraph,
                 representations: Representations,
                 config: Optional[DARLConfig] = None) -> None:
        self.config = config or DARLConfig()
        self.config.validate()
        self.graph = graph
        self.category_graph = category_graph
        self.representations = representations
        self.rng = np.random.default_rng(self.config.seed)

        self.entity_environment = EntityEnvironment(
            graph, representations, max_actions=self.config.max_entity_actions,
            rng=np.random.default_rng(self.config.seed + 1))
        self.category_environment = CategoryEnvironment(
            category_graph, graph, representations,
            max_actions=self.config.max_category_actions)

        policy_config = PolicyConfig(
            embedding_dim=representations.dim,
            hidden_size=self.config.hidden_size,
            mlp_hidden=self.config.mlp_hidden,
            share_history=self.config.share_history,
            seed=self.config.seed,
        )
        self.policy = SharedPolicyNetworks(policy_config)
        self.guidance = GuidanceModel(strength=self.config.guidance_strength)
        self.category_agent = CategoryAgent(self.category_environment, self.policy)
        self.entity_agent = EntityAgent(self.entity_environment, self.policy, self.guidance)

        self.optimiser = nn.Adam(self.policy.parameters(), lr=self.config.learning_rate)
        self.reinforce_config = ReinforceConfig(gamma=self.config.gamma,
                                                gradient_clip=self.config.gradient_clip,
                                                entropy_weight=self.config.entropy_weight)
        self.reinforce_config.validate()
        self._entity_baseline = MovingBaseline()
        self._category_baseline = MovingBaseline()
        self.history: List[EpochStats] = []

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def train(self, user_positive_items: Dict[int, List[int]]) -> List[EpochStats]:
        """Run REINFORCE training over all users for ``config.epochs`` epochs.

        ``user_positive_items`` maps user *entity ids* to the entity ids of
        their training items (the reward targets V_u).
        """
        users = [user for user, items in user_positive_items.items() if items]
        for epoch in range(self.config.epochs):
            order = self.rng.permutation(len(users))
            entity_rewards: List[float] = []
            category_rewards: List[float] = []
            hits = 0
            episodes = 0
            losses: List[float] = []
            for index in order:
                user = users[index]
                positives = set(user_positive_items[user])
                for _ in range(self.config.episodes_per_user):
                    episode, loss = self._run_training_episode(user, positives)
                    episodes += 1
                    entity_rewards.append(episode.total_entity_reward())
                    category_rewards.append(episode.total_category_reward())
                    if episode.final_entity in positives:
                        hits += 1
                    losses.append(loss)
            # Empty episodes report a NaN loss (nothing was measured); average
            # only over episodes that actually performed an update.
            measured_losses = [loss for loss in losses if not np.isnan(loss)]
            # An epoch without episodes measured nothing: its statistics are NaN.
            stats = EpochStats(
                epoch=epoch,
                mean_entity_reward=(float(np.mean(entity_rewards)) if entity_rewards
                                    else float("nan")),
                mean_category_reward=(float(np.mean(category_rewards)) if category_rewards
                                      else float("nan")),
                hit_rate=hits / episodes if episodes else float("nan"),
                policy_loss=(float(np.mean(measured_losses))
                             if measured_losses else float("nan")),
            )
            self.history.append(stats)
        return self.history

    # ------------------------------------------------------------------ #
    def _run_training_episode(self, user_entity: int, positives: Set[int]
                              ) -> Tuple[EpisodeResult, float]:
        """Roll out one dual-agent (or single-agent) episode and update the policy."""
        target_categories = {
            category for category in
            (self.graph.category_of(item) for item in positives)
            if category is not None
        }

        episode = EpisodeResult(user_id=user_entity, start_entity=user_entity)
        entity_state = self.entity_environment.initial_state(user_entity)
        rollout = _Rollout()

        user_vector = self.representations.entity_vector(user_entity)
        entity_hidden, entity_lstm, rollout.entity_start = self.policy.encode_entity_step_traced(
            self.representations.relation_vector(Relation.SELF_LOOP), user_vector,
            None, self.policy.initial_state_numpy())

        use_dual = self.config.use_dual_agent
        category_state = None
        category_hidden = None
        category_lstm = None
        if use_dual:
            start_category = self.category_environment.start_category_for(user_entity)
            category_state = self.category_environment.initial_state(user_entity, start_category)
            category_hidden, category_lstm, rollout.category_start = (
                self.policy.encode_category_step_traced(
                    self.representations.category_vector(start_category), None,
                    self.policy.initial_state_numpy()))

        guidance_rewards: List[float] = []
        consistency_rewards: List[float] = []
        last_relation = Relation.SELF_LOOP

        for _ in range(self.config.max_path_length):
            guided_category: Optional[int] = None
            category_decision = None
            if use_dual:
                category_decision = self.category_agent.decide(
                    category_state, entity_hidden, category_hidden, category_lstm, self.rng)
                guided_category = category_decision.chosen_category

            entity_decision = self.entity_agent.decide(
                entity_state, last_relation, category_hidden, entity_hidden, entity_lstm,
                self.rng, guided_category=guided_category)

            # Per-step partner rewards (collaborative reward mechanism).
            if use_dual and self.config.use_collaborative_rewards:
                step_guidance = self.guidance.kl_guidance_reward(
                    entity_decision.base_logits, entity_decision.target_categories,
                    category_decision.chosen_category,
                    category_decision.alternative_categories,
                    category_decision.alternative_probabilities)
            else:
                step_guidance = 0.0

            next_entity_state = self.entity_environment.step(entity_state,
                                                             entity_decision.chosen_action)
            if use_dual:
                next_category_state = self.category_environment.step(
                    category_state, category_decision.chosen_category)
                if self.config.use_collaborative_rewards:
                    step_consistency = consistency_reward(
                        self.category_environment.state_vector(next_category_state),
                        self.entity_environment.state_vector(next_entity_state))
                else:
                    step_consistency = 0.0
            else:
                next_category_state = None
                step_consistency = 0.0

            guidance_rewards.append(step_guidance)
            consistency_rewards.append(step_consistency)
            rollout.entity.append(entity_decision)
            episode.entity_steps.append(EntityStep(
                entity_id=entity_decision.chosen_action[1],
                relation=entity_decision.chosen_action[0],
                log_prob=entity_decision.log_prob))
            if use_dual:
                rollout.category.append(category_decision)
                episode.category_steps.append(CategoryStep(
                    category_id=category_decision.chosen_category,
                    log_prob=category_decision.log_prob))

            # Advance states and history encoders.
            entity_state = next_entity_state
            last_relation = entity_decision.chosen_action[0]
            entity_hidden = entity_decision.new_hidden
            entity_lstm = entity_decision.new_lstm_state
            if use_dual:
                category_state = next_category_state
                category_hidden = category_decision.new_hidden
                category_lstm = category_decision.new_lstm_state

        terminal_entity = self.entity_environment.terminal_reward(entity_state, positives)
        terminal_category = (
            self.category_environment.terminal_reward(category_state, target_categories)
            if use_dual else 0.0)

        rewards = collaborative_rewards(
            terminal_category=terminal_category,
            terminal_entity=terminal_entity,
            guidance=guidance_rewards,
            consistency=consistency_rewards,
            alpha_pe=self.config.alpha_pe if self.config.use_collaborative_rewards else 0.0,
            alpha_pc=self.config.alpha_pc if self.config.use_collaborative_rewards else 0.0,
        )
        for step, reward in zip(episode.entity_steps, rewards["entity"]):
            step.reward = reward
        for step, reward in zip(episode.category_steps, rewards["category"]):
            step.reward = reward

        loss_value = self._update_policy(rollout, rewards["entity"], rewards["category"])
        return episode, loss_value

    def _update_policy(self, rollout: "_Rollout", entity_rewards: List[float],
                       category_rewards: List[float]) -> float:
        """One REINFORCE update over both agents' losses; returns the loss.

        The gradient of ``-Σ A log π - w Σ H`` is back-propagated by hand
        through both policy heads and both LSTMs, including the partner
        links between them, then clipped and applied exactly as
        ``loss.backward()`` + :func:`repro.nn.clip_grad_norm` + Adam would.
        """
        if not rollout.entity:
            return float("nan")  # no decision was recorded: no loss measured
        config = self.reinforce_config
        entity_advantages = reinforce_advantages(entity_rewards, config.gamma,
                                                 self._entity_baseline)
        total = self._loss(rollout.entity, entity_advantages)
        category_advantages: List[float] = []
        if rollout.category:
            category_advantages = reinforce_advantages(category_rewards, config.gamma,
                                                       self._category_baseline)
            total = total + self._loss(rollout.category, category_advantages)
        apply_gradients(self.optimiser, config.gradient_clip,
                        lambda: self._backpropagate(rollout, entity_advantages,
                                                    category_advantages))
        return float(total)

    def _loss(self, decisions: List, advantages: List[float]) -> float:
        """One agent's ``-Σ A log π - w Σ H``."""
        return reinforce_loss([decision.log_prob for decision in decisions], advantages,
                              [decision.entropy for decision in decisions],
                              self.reinforce_config.entropy_weight)

    def _backpropagate(self, rollout: "_Rollout", entity_advantages: List[float],
                       category_advantages: List[float]) -> None:
        """Backprop-through-time over one episode, writing every ``.grad``.

        Walks the steps backwards.  At step ``t`` the LSTM steps that produced
        ``h_t`` run first (they need the complete gradient of ``h_t``), then
        the two policy heads, whose history inputs are ``h_{t-1}``.  Every
        sum follows the order in which :meth:`repro.nn.Tensor.backward`
        accumulates, so the gradients are bit-identical to autograd's:
        parameters add their per-step contributions latest step first (the
        order they are recorded in one :class:`GradientFactors`); the
        entity hidden state adds (category-LSTM partner + entity-LSTM
        recurrence) + entity head, the category hidden state adds
        (category-LSTM recurrence + category head) + entity-LSTM partner.
        """
        policy = self.policy
        share = self.config.share_history
        entropy_weight = self.reinforce_config.entropy_weight
        grad_entropy = -entropy_weight if entropy_weight > 0.0 else None
        history = slice(-self.config.hidden_size, None)
        factors = GradientFactors()
        entity_hidden = entity_memory = None      # d loss / d (h^e_t, c^e_t)
        category_hidden = category_memory = None  # d loss / d (h^c_t, c^c_t)

        for t in range(len(rollout.entity) - 1, -1, -1):
            entity = rollout.entity[t]
            category = rollout.category[t] if rollout.category else None
            to_entity_from_category = to_category_from_entity = None
            entity_recurrent = category_recurrent = None
            if category is not None and category_hidden is not None:
                to_entity_from_category, category_recurrent, category_memory = (
                    policy.lstm_backward(policy.category_lstm, category.lstm,
                                         category_hidden, category_memory, factors,
                                         first_step=False, partner_grad=share))
            if entity_hidden is not None:
                to_category_from_entity, entity_recurrent, entity_memory = (
                    policy.lstm_backward(policy.entity_lstm, entity.lstm, entity_hidden,
                                         entity_memory, factors, first_step=False,
                                         partner_grad=share and category is not None))

            category_head = None
            if category is not None:
                grad_logits = policy_head_backward(
                    category.head, category.chosen_index, -category_advantages[t],
                    grad_entropy)
                category_head = scores_backward(
                    policy.category_mlp_in, policy.category_mlp_out, category.scores,
                    grad_logits, factors)[history]
            grad_logits = policy_head_backward(
                entity.head, entity.chosen_index, -entity_advantages[t], grad_entropy)
            entity_head = scores_backward(
                policy.entity_mlp_in, policy.entity_mlp_out, entity.scores,
                grad_logits, factors)[history]

            entity_hidden = _sum_in_order(to_entity_from_category, entity_recurrent,
                                          entity_head)
            if category is not None:
                category_hidden = _sum_in_order(category_recurrent, category_head,
                                                to_category_from_entity)

        if rollout.category_start is not None:
            policy.lstm_backward(policy.category_lstm, rollout.category_start,
                                 category_hidden, category_memory, factors,
                                 first_step=True, partner_grad=False)
        policy.lstm_backward(policy.entity_lstm, rollout.entity_start, entity_hidden,
                             entity_memory, factors, first_step=True, partner_grad=False)
        factors.write()


def _sum_in_order(*terms: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Left-to-right sum of the present gradient contributions."""
    total = None
    for term in terms:
        if term is not None:
            total = term if total is None else total + term
    return total


@dataclass
class _Rollout:
    """The decisions of one training episode, in step order."""

    entity: List[EntityDecision] = field(default_factory=list)
    category: List[CategoryDecision] = field(default_factory=list)
    entity_start: Optional[LSTMActivations] = None    # LSTM step from the user
    category_start: Optional[LSTMActivations] = None  # LSTM step from the start category
