"""Unit tests for the baseline recommenders."""

import numpy as np
import pytest

from repro.baselines import (
    BASELINE_FACTORIES,
    TABLE1_BASELINES,
    TABLE3_BASELINES,
    SingleAgentConfig,
    build_baseline,
)
from repro.baselines.rl_single import CogERRecommender
from repro.perf.reference import degree_prune, ensure_self_loop

FAST_RL_CONFIG = SingleAgentConfig(epochs=1, transe_epochs=3, max_actions=15,
                                   beam_width=8, expansions_per_beam=2, seed=0)

RL_NAMES = {"PGPR", "ADAC", "UCPR", "ReMR", "INFER", "CogER"}


def make_fitted(name, tiny_dataset, tiny_split):
    if name in RL_NAMES:
        model = build_baseline(name, config=FAST_RL_CONFIG, seed=0)
    else:
        model = build_baseline(name, seed=0)
    return model.fit(tiny_dataset, tiny_split)


class TestRegistry:
    def test_table1_baselines_are_registered(self):
        assert set(TABLE1_BASELINES) <= set(BASELINE_FACTORIES)

    def test_table3_baselines_are_registered(self):
        assert set(TABLE3_BASELINES) <= set(BASELINE_FACTORIES)

    def test_unknown_baseline_raises(self):
        with pytest.raises(KeyError):
            build_baseline("SVD++")

    def test_factories_produce_distinct_names(self):
        names = {build_baseline(name).name for name in BASELINE_FACTORIES}
        assert len(names) == len(BASELINE_FACTORIES)


class TestProtocol:
    @pytest.mark.parametrize("name", ["Popularity", "ItemKNN", "CKE", "DeepCoNN",
                                      "RuleRec", "HeteroEmbed", "CAFE"])
    def test_recommendations_are_valid_item_ids(self, name, tiny_dataset, tiny_split):
        model = make_fitted(name, tiny_dataset, tiny_split)
        items = model.recommend_items(0, top_k=10)
        assert len(items) == 10
        assert len(set(items)) == 10
        assert all(0 <= item < tiny_dataset.num_items for item in items)

    @pytest.mark.parametrize("name", ["Popularity", "CKE", "HeteroEmbed"])
    def test_training_items_are_excluded(self, name, tiny_dataset, tiny_split):
        model = make_fitted(name, tiny_dataset, tiny_split)
        train_items = set(tiny_split.train_items_of(0))
        assert not train_items & set(model.recommend_items(0, top_k=10))

    def test_recommend_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            build_baseline("Popularity").recommend_items(0)

    def test_interaction_matrix_shape(self, tiny_dataset, tiny_split):
        model = build_baseline("Popularity")
        matrix = model.interaction_matrix(tiny_dataset, tiny_split)
        assert matrix.shape == (tiny_dataset.num_users, tiny_dataset.num_items)
        assert matrix.sum() == len(tiny_split.train)


class TestSimpleBaselines:
    def test_popularity_ranks_by_count(self, tiny_dataset, tiny_split):
        model = make_fitted("Popularity", tiny_dataset, tiny_split)
        counts = model.item_popularity(tiny_dataset, tiny_split)
        recommended = model.recommend_items(0, top_k=3)
        train_items = set(tiny_split.train_items_of(0))
        eligible = [i for i in np.argsort(-counts) if i not in train_items][:3]
        assert recommended == [int(i) for i in eligible]

    def test_itemknn_rejects_bad_neighbor_count(self):
        with pytest.raises(ValueError):
            build_baseline("ItemKNN", num_neighbors=0)

    def test_itemknn_scores_depend_on_user(self, tiny_dataset, tiny_split):
        model = make_fitted("ItemKNN", tiny_dataset, tiny_split)
        assert not np.allclose(model._score_items(0), model._score_items(1))


class TestEmbeddingBaselines:
    def test_cke_beats_random_on_training_data(self, tiny_dataset, tiny_split):
        model = make_fitted("CKE", tiny_dataset, tiny_split)
        scores = model._score_items(0)
        train_items = tiny_split.train_items_of(0)
        if train_items:
            train_mean = np.mean([scores[i] for i in train_items])
            assert train_mean >= np.mean(scores) - 1e-9

    def test_kgat_produces_finite_scores(self, tiny_dataset, tiny_split):
        model = make_fitted("KGAT", tiny_dataset, tiny_split)
        assert np.all(np.isfinite(model._score_items(1)))


class TestNeuralBaselines:
    def test_deepconn_scores_all_items(self, tiny_dataset, tiny_split):
        model = make_fitted("DeepCoNN", tiny_dataset, tiny_split)
        assert model._score_items(0).shape == (tiny_dataset.num_items,)

    def test_ripplenet_builds_ripple_sets(self, tiny_dataset, tiny_split):
        model = make_fitted("RippleNet", tiny_dataset, tiny_split)
        assert len(model._ripple_vectors) == tiny_dataset.num_users
        assert np.all(np.isfinite(model._score_items(0)))


class TestPathBaselines:
    def test_rulerec_learns_rule_weights(self, tiny_dataset, tiny_split):
        model = make_fitted("RuleRec", tiny_dataset, tiny_split)
        assert model.rule_weights
        assert all(0.0 <= weight <= 1.0 for weight in model.rule_weights.values())

    def test_heteroembed_find_paths_end_at_items(self, tiny_dataset, tiny_split):
        model = make_fitted("HeteroEmbed", tiny_dataset, tiny_split)
        paths = model.find_paths(0, num_paths=5)
        assert paths
        for path in paths:
            assert model._graph.entities.is_item(path.item_entity)
            assert 2 <= path.length <= model.max_path_length

    def test_cafe_profiles_are_distributions(self, tiny_dataset, tiny_split):
        model = make_fitted("CAFE", tiny_dataset, tiny_split)
        for profile in list(model._profiles.values())[:10]:
            assert profile.sum() == pytest.approx(1.0)

    def test_cafe_find_paths(self, tiny_dataset, tiny_split):
        model = make_fitted("CAFE", tiny_dataset, tiny_split)
        paths = model.find_paths(0, num_paths=4)
        assert len(paths) <= 4


class TestRLBaselines:
    @pytest.mark.parametrize("name", sorted(RL_NAMES))
    def test_rl_baseline_end_to_end(self, name, tiny_dataset, tiny_split):
        model = make_fitted(name, tiny_dataset, tiny_split)
        items = model.recommend_items(1, top_k=5)
        assert len(items) == 5
        paths = model.find_paths(1, num_paths=5)
        assert len(paths) <= 5
        for path in paths:
            assert path.length <= FAST_RL_CONFIG.max_hops

    def test_ucpr_state_includes_demand_vector(self, tiny_dataset, tiny_split):
        model = make_fitted("UCPR", tiny_dataset, tiny_split)
        assert model._extra_state_dim() == FAST_RL_CONFIG.embedding_dim
        assert model._extra_state(0).shape == (FAST_RL_CONFIG.embedding_dim,)

    def test_pgpr_has_no_extra_state(self, tiny_dataset, tiny_split):
        model = make_fitted("PGPR", tiny_dataset, tiny_split)
        assert model._extra_state_dim() == 0

    def test_coger_prunes_harder_than_pgpr(self, tiny_dataset, tiny_split):
        coger = make_fitted("CogER", tiny_dataset, tiny_split)
        pgpr = make_fitted("PGPR", tiny_dataset, tiny_split)
        user_entity = coger._builder.user_to_entity(0)
        assert len(coger._prune_actions(0, user_entity)) <= len(pgpr._prune_actions(0, user_entity)) + 1

    def test_adac_mines_demonstrations(self, tiny_dataset, tiny_split):
        model = build_baseline("ADAC", config=FAST_RL_CONFIG, seed=0)
        model.fit(tiny_dataset, tiny_split)
        demos = model._mine_demonstrations()
        assert demos
        for user_id, path in demos[:10]:
            assert 2 <= len(path) <= FAST_RL_CONFIG.max_hops

    def test_infer_smooths_item_representations(self, tiny_dataset, tiny_split):
        infer = make_fitted("INFER", tiny_dataset, tiny_split)
        pgpr = make_fitted("PGPR", tiny_dataset, tiny_split)
        item_entity = infer._builder.item_to_entity(0)
        assert not np.allclose(infer._entity_table[item_entity],
                               pgpr._entity_table[item_entity])


    @pytest.mark.parametrize("field", ["max_hops", "beam_width", "expansions_per_beam",
                                       "max_actions"])
    def test_invalid_config_is_a_typed_error(self, field, tiny_dataset, tiny_split):
        config = SingleAgentConfig(epochs=1, transe_epochs=1, **{field: 0})
        with pytest.raises(ValueError, match=field):
            build_baseline("PGPR", config=config, seed=0).fit(tiny_dataset, tiny_split)

    def test_invalid_gamma_is_rejected_before_training(self, tiny_dataset, tiny_split):
        config = SingleAgentConfig(epochs=0, transe_epochs=1, gamma=1.5)
        with pytest.raises(ValueError, match="gamma"):
            build_baseline("PGPR", config=config, seed=0).fit(tiny_dataset, tiny_split)


class _ListPruning:
    """The pre-CSR ``_prune_actions``, over the list forms in ``repro.perf.reference``."""

    def _prune_actions(self, user_id, entity_id):
        actions = degree_prune(self._graph, entity_id, self.config.max_actions, rng=self._rng)
        if isinstance(self, CogERRecommender) and len(actions) > self.system1_keep:
            user_vector = self._entity_table[self._builder.user_to_entity(user_id)]
            similarities = np.array([float(user_vector @ self._entity_table[target])
                                     for _, target in actions])
            actions = [actions[i] for i in np.argsort(-similarities)[: self.system1_keep]]
        return ensure_self_loop(actions, entity_id)


class TestCSRPruningPort:
    """Same-seed outputs are identical with the CSR pruning and the list reference."""

    @pytest.mark.parametrize("name", ["PGPR", "UCPR", "CogER", "INFER"])
    def test_same_seed_outputs_identical(self, name, tiny_dataset, tiny_split):
        model = make_fitted(name, tiny_dataset, tiny_split)
        factory = type(build_baseline(name))
        reference = type("List" + factory.__name__, (_ListPruning, factory), {})(
            config=FAST_RL_CONFIG, seed=0).fit(tiny_dataset, tiny_split)
        for user in range(6):
            assert model.recommend_items(user, top_k=10) == \
                reference.recommend_items(user, top_k=10)
            assert [(p.item_entity, p.hops, p.score) for p in model.find_paths(user, 8)] == \
                [(p.item_entity, p.hops, p.score) for p in reference.find_paths(user, 8)]
