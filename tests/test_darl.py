"""Unit and integration tests for the DARL framework and the CADRL facade."""

import copy

import numpy as np
import pytest

from repro.cggnn import Representations
from repro.darl import CADRL, CADRLConfig, DARLConfig, DARLTrainer, GuidanceModel, InferenceConfig, PathRecommender, PolicyConfig, SharedPolicyNetworks, VARIANT_OVERRIDES, apply_overrides
from repro.darl.shared_policy import policy_head
from repro.kg import Relation
from repro.nn import Tensor
from repro.nn import functional as F
from repro.perf import reference


@pytest.fixture(scope="module")
def policy():
    return SharedPolicyNetworks(PolicyConfig(embedding_dim=16, hidden_size=8, mlp_hidden=16,
                                             seed=0))


@pytest.fixture(scope="module")
def darl_setup(tiny_kg, tiny_representations):
    graph, category_graph, builder = tiny_kg
    config = DARLConfig(max_path_length=3, epochs=1, hidden_size=8, mlp_hidden=16,
                        max_entity_actions=8, max_category_actions=4, seed=0)
    trainer = DARLTrainer(graph, category_graph, tiny_representations, config)
    return trainer, builder


class TestSharedPolicy:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PolicyConfig(embedding_dim=0).validate()

    def test_entity_logits_shape(self, policy, rng):
        logits = policy.entity_action_logits_numpy(np.ones(16), np.ones(16), np.zeros(8),
                                                   rng.random((5, 32)))
        assert logits.shape == (5,)

    def test_category_logits_shape(self, policy, rng):
        logits = policy.category_action_logits_numpy(np.ones(16), np.ones(16), np.zeros(8),
                                                     rng.random((3, 16)))
        assert logits.shape == (3,)

    def test_history_encoding_changes_hidden(self, policy):
        state = policy.initial_state_numpy()
        hidden1, state1 = policy.encode_entity_step_numpy(np.ones(16), np.ones(16), None, state)
        hidden2, _ = policy.encode_entity_step_numpy(np.ones(16) * -1, np.ones(16), None,
                                                     state1)
        assert not np.allclose(hidden1, hidden2)

    def test_share_history_flag_zeroes_partner(self):
        no_share = SharedPolicyNetworks(PolicyConfig(embedding_dim=16, hidden_size=8,
                                                     mlp_hidden=16, share_history=False, seed=0))
        partner = np.ones(8) * 5
        with_partner, _ = no_share.encode_category_step_numpy(np.ones(16), partner,
                                                              no_share.initial_state_numpy())
        without_partner, _ = no_share.encode_category_step_numpy(
            np.ones(16), None, no_share.initial_state_numpy())
        assert np.array_equal(with_partner, without_partner)

    def test_numpy_fast_path_matches_tensor_path(self, policy, rng):
        entity_vec, relation_vec = rng.random(16), rng.random(16)
        actions = rng.random((6, 32))
        hidden = rng.random(8)
        slow = reference.entity_action_logits(policy, entity_vec, relation_vec,
                                              Tensor(hidden), actions)
        fast = policy.entity_action_logits_numpy(entity_vec, relation_vec, hidden, actions)
        assert np.array_equal(slow.data, fast)
        traced = policy.entity_scores_traced(entity_vec, relation_vec, hidden, actions)
        assert np.array_equal(traced.logits, fast)

    def test_numpy_lstm_matches_tensor_lstm(self, policy, rng):
        relation_vec, entity_vec = rng.random(16), rng.random(16)
        slow_hidden, _ = reference.encode_entity_step(policy, relation_vec, entity_vec, None,
                                                      policy.entity_lstm.initial_state())
        fast_hidden, _ = policy.encode_entity_step_numpy(relation_vec, entity_vec, None,
                                                         policy.initial_state_numpy())
        assert np.array_equal(slow_hidden.data, fast_hidden)

    def test_category_numpy_matches_tensor(self, policy, rng):
        user_vec, category_vec = rng.random(16), rng.random(16)
        actions = rng.random((4, 16))
        hidden = rng.random(8)
        slow = reference.category_action_logits(policy, user_vec, category_vec,
                                                Tensor(hidden), actions)
        fast = policy.category_action_logits_numpy(user_vec, category_vec, hidden, actions)
        assert np.array_equal(slow.data, fast)

    def test_policy_head_matches_tensor_log_softmax(self, policy, rng):
        logits = rng.normal(size=7)
        head = policy_head(logits)
        log_probs = F.log_softmax(Tensor(logits))
        assert np.array_equal(head.log_probs, log_probs.data)
        assert head.entropy == float(-(log_probs.exp() * log_probs).sum().data)
        assert np.array_equal(reference.policy_distribution(Tensor(logits)).data,
                              F.softmax(Tensor(logits)).data)


class TestGuidanceModel:
    def test_guided_probabilities_sum_to_one(self):
        guidance = GuidanceModel(strength=2.0)
        probs = guidance.guided_probabilities(np.array([0.1, 0.2, 0.3]), np.array([0, 1, -1]), 0)
        assert probs.sum() == pytest.approx(1.0)

    def test_guidance_shifts_mass_to_target_category(self):
        guidance = GuidanceModel(strength=3.0)
        base = np.zeros(3)
        probs = guidance.guided_probabilities(base, np.array([0, 1, 1]), guided_category=0)
        assert probs[0] > 1 / 3

    def test_no_guidance_is_plain_softmax(self):
        guidance = GuidanceModel()
        base = np.array([1.0, 2.0])
        probs = guidance.guided_probabilities(base, np.array([-1, -1]), guided_category=None)
        expected = np.exp(base - base.max())
        expected /= expected.sum()
        assert np.allclose(probs, expected)

    def test_kl_guidance_reward_in_unit_interval(self):
        guidance = GuidanceModel(strength=2.0)
        reward = guidance.kl_guidance_reward(np.zeros(4), np.array([0, 1, 0, -1]), 0, [1, 2],
                                             [0.5, 0.5])
        assert 0.0 <= reward <= 1.0

    def test_guidance_bonus_zero_without_category(self):
        guidance = GuidanceModel(strength=2.0)
        assert np.allclose(guidance.guidance_bonus(np.array([0, 1, -1]), None), 0.0)


class TestAgents:
    def test_category_agent_decision(self, darl_setup, rng):
        trainer, builder = darl_setup
        user = builder.user_to_entity(0)
        start = trainer.category_environment.start_category_for(user)
        state = trainer.category_environment.initial_state(user, start)
        hidden, lstm = trainer.policy.encode_category_step_numpy(
            trainer.representations.category_vector(start), None,
            trainer.policy.initial_state_numpy())
        decision = trainer.category_agent.decide(state, None, hidden, lstm, rng)
        assert decision.chosen_category in decision.actions
        assert decision.probabilities.sum() == pytest.approx(1.0)
        assert len(decision.alternative_categories) == len(decision.actions) - 1

    def test_entity_agent_decision(self, darl_setup, rng):
        trainer, builder = darl_setup
        user = builder.user_to_entity(0)
        state = trainer.entity_environment.initial_state(user)
        hidden, lstm = trainer.policy.encode_entity_step_numpy(
            trainer.representations.relation_vector(Relation.SELF_LOOP),
            trainer.representations.entity_vector(user), None,
            trainer.policy.initial_state_numpy())
        decision = trainer.entity_agent.decide(state, Relation.SELF_LOOP, None, hidden, lstm,
                                               rng, guided_category=0)
        assert decision.chosen_action in decision.actions
        assert decision.base_logits.shape == (len(decision.actions),)
        assert isinstance(decision.log_prob, float) and decision.log_prob <= 0.0
        assert isinstance(decision.entropy, float) and decision.entropy >= 0.0

    def test_greedy_decision_is_deterministic(self, darl_setup, rng):
        trainer, builder = darl_setup
        user = builder.user_to_entity(1)
        state = trainer.entity_environment.initial_state(user)
        hidden, lstm = trainer.policy.encode_entity_step_numpy(
            trainer.representations.relation_vector(Relation.SELF_LOOP),
            trainer.representations.entity_vector(user), None,
            trainer.policy.initial_state_numpy())
        first = trainer.entity_agent.decide(state, Relation.SELF_LOOP, None, hidden, lstm,
                                            rng, greedy=True)
        second = trainer.entity_agent.decide(state, Relation.SELF_LOOP, None, hidden, lstm,
                                             rng, greedy=True)
        assert first.chosen_action == second.chosen_action


class TestTrainer:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            DARLConfig(max_path_length=0).validate()
        with pytest.raises(ValueError):
            DARLConfig(alpha_pe=2.0).validate()

    @pytest.mark.parametrize("field, value", [
        ("gradient_clip", 0.0), ("gradient_clip", -5.0), ("gradient_clip", float("nan")),
        ("episodes_per_user", 0), ("episodes_per_user", -1)])
    def test_config_rejects_ascent_clip_and_empty_epochs(self, field, value):
        """A negative clip trains by gradient ascent; no episodes trains nothing."""
        with pytest.raises(ValueError, match=field):
            DARLConfig(**{field: value}).validate()

    def test_training_produces_history(self, darl_setup, tiny_split, tiny_kg):
        trainer, builder = darl_setup
        graph, _, _ = tiny_kg
        user_items = {}
        for user_id in range(5):
            user_entity = builder.user_to_entity(user_id)
            items = graph.purchased_items(user_entity)
            if items:
                user_items[user_entity] = items
        history = trainer.train(user_items)
        assert len(history) == trainer.config.epochs
        assert 0.0 <= history[0].hit_rate <= 1.0

    def test_epoch_without_episodes_reports_nan(self, tiny_kg, tiny_representations):
        graph, category_graph, _ = tiny_kg
        config = DARLConfig(max_path_length=2, epochs=2, hidden_size=8, mlp_hidden=16, seed=0)
        trainer = DARLTrainer(graph, category_graph, tiny_representations, config)
        history = trainer.train({})
        assert [stats.epoch for stats in history] == [0, 1]
        for stats in history:
            assert np.isnan(stats.mean_entity_reward)
            assert np.isnan(stats.mean_category_reward)
            assert np.isnan(stats.hit_rate)
            assert np.isnan(stats.policy_loss)

    def test_single_agent_mode_has_no_category_steps(self, tiny_kg, tiny_representations):
        graph, category_graph, builder = tiny_kg
        config = DARLConfig(max_path_length=2, epochs=1, hidden_size=8, mlp_hidden=16,
                            use_dual_agent=False, max_entity_actions=6, seed=0)
        trainer = DARLTrainer(graph, category_graph, tiny_representations, config)
        user = builder.user_to_entity(0)
        items = graph.purchased_items(user)
        episode, _ = trainer._run_training_episode(user, set(items))
        assert episode.category_steps == []
        assert len(episode.entity_steps) == 2

    def test_episode_rewards_attached_to_steps(self, darl_setup, tiny_kg):
        trainer, builder = darl_setup
        graph, _, _ = tiny_kg
        user = builder.user_to_entity(2)
        items = graph.purchased_items(user)
        episode, _ = trainer._run_training_episode(user, set(items))
        assert len(episode.entity_steps) == trainer.config.max_path_length
        assert len(episode.category_steps) == trainer.config.max_path_length
        assert all(np.isfinite(step.reward) for step in episode.entity_steps)


class TestInference:
    @pytest.fixture(scope="class")
    def recommender(self, tiny_kg, tiny_representations, policy):
        graph, category_graph, _ = tiny_kg
        return PathRecommender(graph, category_graph, tiny_representations, policy,
                               max_path_length=4, max_entity_actions=8,
                               max_category_actions=4,
                               config=InferenceConfig(beam_width=6, expansions_per_beam=2))

    def test_inference_config_validation(self):
        with pytest.raises(ValueError):
            InferenceConfig(beam_width=0).validate()

    def test_recommend_returns_item_paths(self, recommender, tiny_kg):
        graph, _, builder = tiny_kg
        user = builder.user_to_entity(0)
        paths = recommender.recommend(user, top_k=5)
        assert len(paths) <= 5
        for path in paths:
            assert graph.entities.is_item(path.item_entity)
            assert path.hops[-1][1] == path.item_entity
            assert path.user_entity == user

    def test_recommend_excludes_requested_items(self, recommender, tiny_kg):
        graph, _, builder = tiny_kg
        user = builder.user_to_entity(0)
        all_paths = recommender.recommend(user, top_k=10)
        if all_paths:
            excluded = {all_paths[0].item_entity}
            filtered = recommender.recommend(user, exclude_items=excluded, top_k=10)
            assert all(path.item_entity not in excluded for path in filtered)

    def test_paths_are_sorted_by_score(self, recommender, tiny_kg):
        _, _, builder = tiny_kg
        paths = recommender.recommend(builder.user_to_entity(1), top_k=10)
        scores = [path.score for path in paths]
        assert scores == sorted(scores, reverse=True)

    def test_find_paths_respects_limit(self, recommender, tiny_kg):
        _, _, builder = tiny_kg
        paths = recommender.find_paths(builder.user_to_entity(0), num_paths=7)
        assert len(paths) <= 7

    def test_milestones_have_path_length(self, recommender, tiny_kg):
        _, _, builder = tiny_kg
        milestones = recommender.category_milestones(builder.user_to_entity(0))
        assert len(milestones) == recommender.max_path_length

    def test_recommend_batch_covers_all_users(self, recommender, tiny_kg):
        _, _, builder = tiny_kg
        users = [builder.user_to_entity(u) for u in range(3)]
        batch = recommender.recommend_many(users, top_k=3)
        assert set(batch) == set(users)

    def test_top_k_is_validated_once_for_every_entry_point(self, recommender, tiny_kg):
        """``top_k=0`` used to fall back to the default and ``-1`` to drop the last path."""
        _, _, builder = tiny_kg
        user = builder.user_to_entity(0)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="top_k"):
                recommender.recommend(user, top_k=bad)
            with pytest.raises(ValueError, match="top_k"):
                recommender.recommend_many([user], top_k=bad)
            with pytest.raises(ValueError, match="top_k"):
                recommender.recommend_requests([(user, set(), 3), (user, set(), bad)])
        default = recommender.recommend(user)
        assert default == recommender.recommend(user, top_k=recommender.config.top_k)
        assert recommender.recommend_requests([(user, set(), None)]) == [default]


def _search_settings(recommender):
    return (recommender.policy, recommender.guidance, recommender.config,
            recommender.max_path_length, recommender.entity_environment.max_actions,
            recommender.category_environment.max_actions, recommender.use_dual_agent,
            recommender.milestone_cache_limit)


def _answers(recommender, users):
    return [[(path.item_entity, path.hops) for path in recommender.recommend(user, top_k=5)]
            for user in users]


class TestLike:
    """``PathRecommender.like``: the one place serving replicas are cloned."""

    @pytest.fixture()
    def source(self, tiny_kg, tiny_representations, policy):
        graph, category_graph, _ = tiny_kg
        # Every setting off its default, so a clone that drops one differs.
        return PathRecommender(graph, category_graph, tiny_representations, policy,
                               guidance=GuidanceModel(strength=0.7), max_path_length=3,
                               max_entity_actions=6, max_category_actions=3,
                               use_dual_agent=False,
                               config=InferenceConfig(beam_width=5, expansions_per_beam=2,
                                                      top_k=4, min_path_length=2),
                               milestone_cache_limit=32)

    def test_clone_answers_like_its_source_with_fresh_caches(self, source, tiny_kg):
        _, _, builder = tiny_kg
        users = [builder.user_to_entity(user) for user in range(6)]
        expected = _answers(source, users)
        assert any(expected)
        clone = PathRecommender.like(source)
        assert type(clone) is PathRecommender
        assert _search_settings(clone) == _search_settings(source)
        assert clone.graph is source.graph
        assert clone.representations is source.representations
        assert (clone.category_environment.category_graph
                is source.category_environment.category_graph)
        # The source's caches are warm; the clone's are its own and empty.
        def cache_sizes(recommender):
            environment = recommender.entity_environment
            return (len(recommender.milestone_cache), len(environment._action_cache)
                    + len(environment._array_cache) + len(environment._matrix_cache))

        assert min(cache_sizes(source)) > 0
        assert clone.milestone_cache is not source.milestone_cache
        assert clone.entity_environment is not source.entity_environment
        assert cache_sizes(clone) == (0, 0)
        assert _answers(clone, users) == expected

    def test_table_overrides_are_the_tables_searched(self, source, tiny_kg,
                                                     tiny_representations):
        graph, category_graph, builder = tiny_kg
        other_graph = graph.copy()
        other_categories = copy.deepcopy(category_graph)
        rng = np.random.default_rng(5)
        other_tables = Representations(
            entity=rng.permutation(tiny_representations.entity),
            relation=tiny_representations.relation,
            category=rng.permutation(tiny_representations.category))
        clone = PathRecommender.like(source, graph=other_graph,
                                     category_graph=other_categories,
                                     representations=other_tables)
        assert _search_settings(clone) == _search_settings(source)
        assert clone.graph is other_graph
        assert clone.entity_environment.graph is other_graph
        assert clone.category_environment.graph is other_graph
        assert clone.category_environment.category_graph is other_categories
        assert clone.representations is other_tables
        assert clone.entity_environment.representations is other_tables
        assert clone.category_environment.representations is other_tables
        users = [builder.user_to_entity(user) for user in range(6)]
        direct = PathRecommender(other_graph, other_categories, other_tables, source.policy,
                                 guidance=source.guidance, max_path_length=3,
                                 max_entity_actions=6, max_category_actions=3,
                                 use_dual_agent=False, config=source.config)
        assert _answers(clone, users) == _answers(direct, users)
        assert _answers(clone, users) != _answers(source, users)


def variant(name, config):
    """``config`` with the named ablation's overrides, on a copy."""
    return apply_overrides(copy.deepcopy(config), VARIANT_OVERRIDES[name])


class TestVariants:
    def test_every_variant_override_names_a_field(self):
        config = CADRLConfig.fast(embedding_dim=16)
        assert set(VARIANT_OVERRIDES) == {"CADRL", "CADRL w/o DARL", "CADRL w/o CGGNN",
                                          "RGGNN", "RCGAN", "RSHI", "RCRM"}
        for name in VARIANT_OVERRIDES:
            assert isinstance(variant(name, config), CADRLConfig)
        assert variant("CADRL", config) == config

    def test_misspelled_override_raises(self):
        """A typo used to be ignored (or set a stray attribute) and train the default."""
        from repro.experiments.common import ExperimentSetting, cadrl_config

        setting = ExperimentSetting.from_profile("smoke")
        with pytest.raises(ValueError, match="darl__max_path_lenght"):
            cadrl_config(setting, darl__max_path_lenght=3)
        with pytest.raises(ValueError, match="embeding_dim"):
            CADRLConfig.fast(embeding_dim=8)
        with pytest.raises(ValueError, match="DARLConfig has no field 'nope'"):
            apply_overrides(CADRLConfig(), {"darl__nope": 1})
        with pytest.raises(ValueError, match="int has no field 'deeper'"):
            apply_overrides(CADRLConfig(), {"darl__seed__deeper": 1})
        assert cadrl_config(setting, darl__max_path_length=3).darl.max_path_length == 3
        assert CADRLConfig.fast(use_cggnn=False).use_cggnn is False

    def test_variant_flags(self):
        config = CADRLConfig.fast(embedding_dim=16)
        assert variant("CADRL w/o DARL", config).darl.use_dual_agent is False
        assert variant("CADRL w/o DARL", config).darl.use_collaborative_rewards is False
        assert variant("CADRL w/o CGGNN", config).use_cggnn is False
        assert variant("RGGNN", config).cggnn.use_ggnn is False
        assert variant("RCGAN", config).cggnn.use_category_attention is False
        assert variant("RSHI", config).darl.share_history is False
        assert variant("RCRM", config).darl.use_collaborative_rewards is False

    def test_variant_configs_do_not_alias(self):
        config = CADRLConfig.fast(embedding_dim=16)
        variant("RSHI", config)
        assert config.darl.share_history is True
        assert VARIANT_OVERRIDES["RSHI"] == {"darl__share_history": False}


class TestCADRLFacade:
    @pytest.fixture(scope="class")
    def fitted_cadrl(self, tiny_dataset, tiny_split):
        config = CADRLConfig.fast(embedding_dim=16, seed=0)
        config.transe.epochs = 5
        config.cggnn_training.epochs = 3
        config.darl.epochs = 1
        config.darl.max_path_length = 3
        config.darl.max_entity_actions = 8
        config.inference.beam_width = 6
        return CADRL(config).fit(tiny_dataset, tiny_split)

    def test_requires_fit_before_recommending(self):
        with pytest.raises(RuntimeError):
            CADRL(CADRLConfig.fast(embedding_dim=16)).recommend_items(0)

    def test_recommend_items_returns_dataset_ids(self, fitted_cadrl, tiny_dataset):
        items = fitted_cadrl.recommend_items(0, top_k=10)
        assert len(items) == 10
        assert all(0 <= item < tiny_dataset.num_items for item in items)
        assert len(set(items)) == len(items)

    def test_recommendations_exclude_training_items(self, fitted_cadrl, tiny_split):
        train_items = set(tiny_split.train_items_of(0))
        assert not train_items & set(fitted_cadrl.recommend_items(0, top_k=10))

    def test_score_items_covers_catalogue(self, fitted_cadrl, tiny_dataset):
        scores = fitted_cadrl.score_items(0)
        assert scores.shape == (tiny_dataset.num_items,)
        assert np.all(np.isfinite(scores))

    def test_recommend_paths_are_explainable(self, fitted_cadrl):
        paths = fitted_cadrl.recommend_paths(0, top_k=3)
        for path in paths:
            text = fitted_cadrl.describe_path(path)
            assert text.startswith("user:")
            assert "-->" in text

    def test_training_history_recorded(self, fitted_cadrl):
        assert len(fitted_cadrl.training_history) == 1
        assert fitted_cadrl.transe_losses
        assert fitted_cadrl.cggnn_losses

    def test_path_bonus_zero_matches_pure_scoring(self, fitted_cadrl, tiny_split):
        ranked_no_bonus = fitted_cadrl.recommend_items(1, top_k=5, path_bonus=0.0)
        scores = fitted_cadrl.score_items(1)
        train_items = set(tiny_split.train_items_of(1))
        expected = [int(i) for i in np.argsort(-scores) if int(i) not in train_items][:5]
        assert ranked_no_bonus == expected
