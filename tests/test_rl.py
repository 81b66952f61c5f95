"""Unit tests for the RL substrate (environments, rewards, REINFORCE, trajectories)."""

import numpy as np
import pytest

from repro.kg import Relation
from repro.nn import Tensor
from repro.rl import (
    CategoryEnvironment,
    EntityEnvironment,
    MovingBaseline,
    ReinforceConfig,
    collaborative_rewards,
    consistency_reward,
    discounted_returns,
    guidance_reward,
)
from repro.perf.reference import apply_update, policy_gradient_loss
from repro.rl.trajectory import EntityStep, EpisodeResult, RecommendationPath
from repro import nn


@pytest.fixture(scope="module")
def environments(tiny_kg, tiny_representations):
    graph, category_graph, builder = tiny_kg
    entity_env = EntityEnvironment(graph, tiny_representations, max_actions=10)
    category_env = CategoryEnvironment(category_graph, graph, tiny_representations,
                                       max_actions=5)
    return entity_env, category_env, builder


class TestEntityEnvironment:
    def test_initial_state_starts_at_user(self, environments):
        entity_env, _, builder = environments
        user = builder.user_to_entity(0)
        state = entity_env.initial_state(user)
        assert state.current_entity == user
        assert state.step == 0

    def test_actions_are_bounded_and_contain_self_loop(self, environments):
        entity_env, _, builder = environments
        state = entity_env.initial_state(builder.user_to_entity(0))
        actions = entity_env.actions(state)
        assert len(actions) <= entity_env.max_actions + 1
        assert any(relation == Relation.SELF_LOOP for relation, _ in actions)

    def test_step_moves_to_target(self, environments):
        entity_env, _, builder = environments
        state = entity_env.initial_state(builder.user_to_entity(0))
        action = entity_env.actions(state)[0]
        new_state = entity_env.step(state, action)
        assert new_state.current_entity == action[1]
        assert new_state.step == 1

    def test_state_and_action_vectors_dimensions(self, environments, tiny_representations):
        entity_env, _, builder = environments
        state = entity_env.initial_state(builder.user_to_entity(0))
        assert entity_env.state_vector(state).shape == (2 * tiny_representations.dim,)
        action = entity_env.actions(state)[0]
        assert entity_env.action_vector(action).shape == (2 * tiny_representations.dim,)

    def test_terminal_reward_binary(self, environments):
        entity_env, _, builder = environments
        user = builder.user_to_entity(0)
        item = builder.item_to_entity(0)
        state = entity_env.initial_state(user)
        state.current_entity = item
        assert entity_env.terminal_reward(state, {item}) == 1.0
        assert entity_env.terminal_reward(state, {item + 1}) == 0.0

    def test_guided_actions_prefer_target_category(self, environments, tiny_kg):
        entity_env, _, builder = environments
        graph, _, _ = tiny_kg
        item = builder.item_to_entity(0)
        state = entity_env.initial_state(builder.user_to_entity(0))
        state.current_entity = item
        neighbors = graph.outgoing(item)
        categories = [graph.category_of(t) for _, t in neighbors if graph.category_of(t) is not None]
        if categories:
            target = categories[0]
            actions = entity_env.actions(state, target_category=target)
            reached = [graph.category_of(t) for _, t in actions]
            assert target in reached

    def test_forbid_return_to_user(self, environments, tiny_kg):
        entity_env, _, builder = environments
        graph, _, _ = tiny_kg
        user = builder.user_to_entity(0)
        purchased = graph.purchased_items(user)
        if purchased:
            state = entity_env.initial_state(user)
            state.current_entity = purchased[0]
            actions = entity_env.actions(state)
            assert all(target != user for _, target in actions)

    def test_invalid_max_actions(self, tiny_kg, tiny_representations):
        graph, _, _ = tiny_kg
        with pytest.raises(ValueError):
            EntityEnvironment(graph, tiny_representations, max_actions=0)


class TestCategoryEnvironment:
    def test_start_category_comes_from_purchases(self, environments, tiny_kg):
        _, category_env, builder = environments
        graph, _, _ = tiny_kg
        user = builder.user_to_entity(0)
        start = category_env.start_category_for(user)
        purchased_categories = {graph.category_of(item) for item in graph.purchased_items(user)}
        assert start in purchased_categories or not purchased_categories

    def test_actions_include_current_category(self, environments):
        _, category_env, builder = environments
        user = builder.user_to_entity(0)
        state = category_env.initial_state(user, 0)
        actions = category_env.actions(state)
        assert 0 in actions
        assert len(actions) <= category_env.max_actions

    def test_step_and_terminal_reward(self, environments):
        _, category_env, builder = environments
        user = builder.user_to_entity(0)
        state = category_env.initial_state(user, 0)
        new_state = category_env.step(state, 1)
        assert new_state.current_category == 1
        assert category_env.terminal_reward(new_state, {1}) == 1.0
        assert category_env.terminal_reward(new_state, {2}) == 0.0

    def test_state_vector_dimension(self, environments, tiny_representations):
        _, category_env, builder = environments
        state = category_env.initial_state(builder.user_to_entity(0), 0)
        assert category_env.state_vector(state).shape == (3 * tiny_representations.dim,)


class TestRewards:
    def test_guidance_reward_zero_influence(self):
        uniform = np.array([0.25, 0.25, 0.25, 0.25])
        reward = guidance_reward(uniform, [uniform, uniform])
        assert reward == pytest.approx(0.5)

    def test_guidance_reward_increases_with_influence(self):
        conditional = np.array([0.9, 0.05, 0.05])
        counterfactual = np.array([1 / 3] * 3)
        strong = guidance_reward(conditional, [counterfactual])
        weak = guidance_reward(counterfactual, [counterfactual])
        assert strong > weak

    def test_guidance_reward_with_weights(self):
        conditional = np.array([0.7, 0.3])
        alternatives = [np.array([0.5, 0.5]), np.array([0.7, 0.3])]
        weighted = guidance_reward(conditional, alternatives, [0.0, 1.0])
        assert weighted == pytest.approx(0.5)

    def test_guidance_reward_no_counterfactuals(self):
        assert guidance_reward(np.array([1.0]), []) == pytest.approx(0.5)

    def test_consistency_reward_is_cosine(self):
        assert consistency_reward(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)
        assert consistency_reward(np.array([1.0, 0.0, 5.0]),
                                  np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_collaborative_rewards_structure(self):
        rewards = collaborative_rewards(terminal_category=1.0, terminal_entity=1.0,
                                        guidance=[0.5, 0.5], consistency=[0.2, 0.4],
                                        alpha_pe=0.5, alpha_pc=0.6)
        assert rewards["category"] == pytest.approx([0.1, 1.2])
        assert rewards["entity"] == pytest.approx([0.3, 1.3])

    def test_collaborative_rewards_requires_aligned_lengths(self):
        with pytest.raises(ValueError):
            collaborative_rewards(0, 0, guidance=[0.1], consistency=[], alpha_pe=1, alpha_pc=1)


class TestReinforce:
    def test_discounted_returns(self):
        assert discounted_returns([0.0, 0.0, 1.0], gamma=0.5) == pytest.approx([0.25, 0.5, 1.0])
        assert discounted_returns([], gamma=0.9) == []

    def test_moving_baseline_tracks_returns(self):
        baseline = MovingBaseline(momentum=0.5)
        assert baseline.value == 0.0
        baseline.update(1.0)
        baseline.update(0.0)
        assert baseline.value == pytest.approx(0.5)

    def test_policy_gradient_loss_empty(self):
        assert policy_gradient_loss([], [], ReinforceConfig()) is None

    def test_policy_gradient_loss_mismatched_lengths(self):
        with pytest.raises(ValueError):
            policy_gradient_loss([Tensor([0.0])], [], ReinforceConfig())

    def test_policy_gradient_moves_probability_towards_reward(self, rng):
        """A bandit: action 0 always rewarded — its probability should rise."""
        logits_param = Tensor(np.zeros(3), requires_grad=True)
        optimiser = nn.Adam([logits_param], lr=0.5)
        config = ReinforceConfig(gamma=1.0)
        from repro.nn import functional as F
        for _ in range(50):
            log_probs = F.log_softmax(logits_param, axis=-1)
            action = int(rng.choice(3, p=np.exp(log_probs.data)))
            reward = 1.0 if action == 0 else 0.0
            loss = policy_gradient_loss([log_probs[action]], [reward], config)
            apply_update(loss, [logits_param], optimiser, config)
        final_probs = np.exp(logits_param.data) / np.exp(logits_param.data).sum()
        assert final_probs[0] > 0.5

    def test_reinforce_config_validation(self):
        with pytest.raises(ValueError):
            ReinforceConfig(gamma=1.5).validate()
        with pytest.raises(ValueError):
            ReinforceConfig(baseline_momentum=1.0).validate()

    @pytest.mark.parametrize("clip", [0.0, -5.0, float("nan")])
    def test_reinforce_config_rejects_non_positive_gradient_clip(self, clip):
        with pytest.raises(ValueError, match="gradient_clip"):
            ReinforceConfig(gradient_clip=clip).validate()

    @pytest.mark.parametrize("max_norm", [0.0, -5.0, float("nan")])
    def test_clip_grad_norm_rejects_non_positive_bound(self, max_norm):
        """A negative bound would flip the gradients into an ascent step."""
        parameter = Tensor(np.zeros(3), requires_grad=True)
        parameter.grad = np.array([3.0, 4.0, 0.0])
        with pytest.raises(ValueError, match="max_norm"):
            nn.clip_grad_norm([parameter], max_norm)
        assert np.array_equal(parameter.grad, [3.0, 4.0, 0.0])


class TestDeterminism:
    """Same seed ⇒ identical trajectories, for the environments and training."""

    def _walk(self, entity_env, user, walker_seed=99, steps=6):
        """A seeded random walk recording (pruned actions, chosen hop) pairs."""
        walker = np.random.default_rng(walker_seed)
        state = entity_env.initial_state(user)
        trajectory = []
        for _ in range(steps):
            actions = entity_env.actions(state)
            assert actions
            chosen = actions[int(walker.integers(len(actions)))]
            trajectory.append((tuple(actions), chosen))
            state = entity_env.step(state, chosen)
        return trajectory

    def test_entity_environment_rollouts_identical_per_seed(self, tiny_kg,
                                                            tiny_representations):
        graph, _, builder = tiny_kg
        user = builder.user_to_entity(0)
        runs = []
        for _ in range(2):
            env = EntityEnvironment(graph, tiny_representations, max_actions=6,
                                    rng=np.random.default_rng(123))
            runs.append(self._walk(env, user))
        assert runs[0] == runs[1]

    def test_entity_environment_differs_across_seeds(self, tiny_kg,
                                                     tiny_representations):
        """Sanity check that the seed actually feeds the degree pruning."""
        graph, _, builder = tiny_kg
        user = builder.user_to_entity(0)
        walks = []
        for seed in (1, 2, 3, 4):
            env = EntityEnvironment(graph, tiny_representations, max_actions=3,
                                    rng=np.random.default_rng(seed))
            walks.append(self._walk(env, user))
        assert len({repr(walk) for walk in walks}) > 1

    def test_category_environment_is_seed_free_deterministic(self, environments):
        _, category_env, builder = environments
        user = builder.user_to_entity(1)
        start = category_env.start_category_for(user)
        state = category_env.initial_state(user, start)
        assert category_env.actions(state) == category_env.actions(state)

    def test_rewards_are_pure_functions(self, rng):
        conditional = rng.dirichlet(np.ones(4))
        counterfactuals = [rng.dirichlet(np.ones(4)) for _ in range(3)]
        assert guidance_reward(conditional, counterfactuals) == guidance_reward(
            conditional, counterfactuals)
        first = collaborative_rewards(1.0, 0.0, [0.5, 0.2], [0.1, 0.9], 0.4, 0.5)
        second = collaborative_rewards(1.0, 0.0, [0.5, 0.2], [0.1, 0.9], 0.4, 0.5)
        assert first == second

    def test_darl_training_identical_per_seed(self, tiny_kg, tiny_representations):
        """Two full training runs with one seed: identical stats & trajectories."""
        from repro.darl import DARLConfig, DARLTrainer

        graph, category_graph, builder = tiny_kg
        user_items = {}
        for user_id in range(4):
            user_entity = builder.user_to_entity(user_id)
            items = graph.purchased_items(user_entity)
            if items:
                user_items[user_entity] = items

        def run():
            config = DARLConfig(max_path_length=3, epochs=1, hidden_size=8,
                                mlp_hidden=16, max_entity_actions=6,
                                max_category_actions=4, seed=5)
            trainer = DARLTrainer(graph, category_graph, tiny_representations, config)
            history = trainer.train(user_items)
            probe_user = next(iter(user_items))
            episode, _ = trainer._run_training_episode(probe_user,
                                                       set(user_items[probe_user]))
            return history, episode.entity_path(), episode.category_path()

        first_history, first_entity, first_category = run()
        second_history, second_entity, second_category = run()
        assert first_history == second_history
        assert first_entity == second_entity
        assert first_category == second_category


class TestTrajectories:
    def test_episode_result_accessors(self):
        episode = EpisodeResult(user_id=1, start_entity=1)
        assert episode.final_entity == 1
        assert episode.final_category is None
        episode.entity_steps.append(EntityStep(entity_id=5, relation=Relation.PURCHASE,
                                               log_prob=None, reward=0.5))
        assert episode.final_entity == 5
        assert episode.total_entity_reward() == pytest.approx(0.5)
        assert episode.entity_path() == [(Relation.PURCHASE, 5)]

    def test_recommendation_path_length(self):
        path = RecommendationPath(user_entity=0, item_entity=3,
                                  hops=((Relation.PURCHASE, 1), (Relation.ALSO_BOUGHT, 3)),
                                  score=-1.0)
        assert path.length == 2
