"""Unit tests for the CGGNN (neighbourhood table, layers, model, training)."""

import numpy as np
import pytest

from repro.cggnn import (
    CGGNN,
    CGGNNConfig,
    CGGNNTrainer,
    CGGNNTrainingConfig,
    CategoryAttentionLayer,
    GatedAggregationLayer,
    AdaptivePropagationLayer,
    build_neighbourhood_table,
    train_cggnn,
)
from repro.kg import EntityType


@pytest.fixture(scope="module")
def small_cggnn(tiny_kg, tiny_transe):
    graph, _, _ = tiny_kg
    transe, _ = tiny_transe
    config = CGGNNConfig(embedding_dim=16, num_ggnn_layers=2, num_category_layers=1,
                         max_neighbors=6, max_categories=3, seed=0)
    return CGGNN(graph, transe, config)


class TestNeighbourhoodTable:
    def test_table_covers_all_items(self, tiny_kg):
        graph, _, _ = tiny_kg
        table = build_neighbourhood_table(graph, max_neighbors=6, max_categories=3)
        assert table.num_items == graph.entities.count(EntityType.ITEM)
        assert table.neighbor_entities.shape == (table.num_items, 6)
        assert table.category_ids.shape == (table.num_items, 3)

    def test_masks_are_binary(self, tiny_kg):
        graph, _, _ = tiny_kg
        table = build_neighbourhood_table(graph, max_neighbors=6, max_categories=3)
        assert set(np.unique(table.neighbor_mask)) <= {0.0, 1.0}
        assert set(np.unique(table.category_mask)) <= {0.0, 1.0}

    def test_no_user_neighbours(self, tiny_kg):
        graph, _, _ = tiny_kg
        table = build_neighbourhood_table(graph, max_neighbors=6, max_categories=3)
        for row in range(table.num_items):
            for column in range(table.max_neighbors):
                if table.neighbor_mask[row, column]:
                    neighbor = int(table.neighbor_entities[row, column])
                    assert graph.entities.type_of(neighbor) != EntityType.USER

    def test_item_position_maps_back(self, tiny_kg):
        graph, _, _ = tiny_kg
        table = build_neighbourhood_table(graph)
        for row, item in enumerate(table.item_ids[:10]):
            assert table.item_position[int(item)] == row

    def test_invalid_limits_raise(self, tiny_kg):
        graph, _, _ = tiny_kg
        with pytest.raises(ValueError):
            build_neighbourhood_table(graph, max_neighbors=0)


class TestLayers:
    def test_propagation_layer_output_shape(self, rng):
        layer = AdaptivePropagationLayer(8, rng=rng)
        items, neighbors = 5, 4
        out = layer(rng.random((items, 8)), rng.random((items, neighbors, 8)),
                    rng.random((items, neighbors, 8)), rng.random(8),
                    np.ones((items, neighbors)), np.ones((items, neighbors)))
        assert out.shape == (items, 8)

    def test_propagation_respects_mask(self, rng):
        layer = AdaptivePropagationLayer(8, rng=rng)
        items, neighbors = 3, 4
        args = (rng.random((items, 8)), rng.random((items, neighbors, 8)),
                rng.random((items, neighbors, 8)), rng.random(8))
        masked = layer(*args, np.zeros((items, neighbors)), np.ones((items, neighbors)))
        assert np.allclose(masked, 0.0)

    def test_gated_aggregation_interpolates(self, rng):
        layer = GatedAggregationLayer(8, rng=rng)
        message = np.zeros((4, 8))
        states = rng.random((4, 8))
        out = layer(message, states)
        assert out.shape == (4, 8)
        assert np.all(np.isfinite(out))

    def test_category_attention_weights_sum_to_one_effectively(self, rng):
        layer = CategoryAttentionLayer(8, rng=rng)
        items, cats = 4, 3
        item_states = rng.random((items, 8))
        category_states = rng.random((items, cats, 8))
        mask = np.ones((items, cats))
        out = layer(item_states, category_states, mask)
        assert out.shape == (items, 8)
        # With a single unmasked category the context equals that category.
        single_mask = np.zeros((items, cats))
        single_mask[:, 0] = 1.0
        single = layer(item_states, category_states, single_mask)
        assert np.allclose(single, category_states[:, 0, :], atol=1e-6)

    def test_layer_dimension_validation(self):
        with pytest.raises(ValueError):
            AdaptivePropagationLayer(0)
        with pytest.raises(ValueError):
            GatedAggregationLayer(-1)
        with pytest.raises(ValueError):
            CategoryAttentionLayer(0)


class TestCGGNNModel:
    def test_forward_shape(self, small_cggnn):
        out = small_cggnn.forward()
        assert out.shape == (small_cggnn.table.num_items, 16)
        assert np.all(np.isfinite(out))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CGGNNConfig(delta=2.0).validate()
        with pytest.raises(ValueError):
            CGGNNConfig(embedding_dim=0).validate()

    def test_dimension_mismatch_raises(self, tiny_kg, tiny_transe):
        graph, _, _ = tiny_kg
        transe, _ = tiny_transe
        with pytest.raises(ValueError):
            CGGNN(graph, transe, CGGNNConfig(embedding_dim=99))

    def test_export_representations_shapes(self, small_cggnn, tiny_kg):
        graph, _, _ = tiny_kg
        representations = small_cggnn.export_representations()
        assert representations.entity.shape == (graph.num_entities, 16)
        assert representations.category.shape[0] == graph.num_categories
        assert representations.dim == 16

    def test_export_only_changes_item_rows(self, small_cggnn, tiny_kg):
        graph, _, _ = tiny_kg
        representations = small_cggnn.export_representations()
        static = small_cggnn.static_representations()
        item_ids = set(int(i) for i in small_cggnn.table.item_ids)
        for entity_id in range(0, graph.num_entities, 13):
            if entity_id not in item_ids:
                assert np.allclose(representations.entity[entity_id],
                                   static.entity[entity_id])

    def test_disabling_ggnn_keeps_items_near_static(self, tiny_kg, tiny_transe):
        graph, _, _ = tiny_kg
        transe, _ = tiny_transe
        config = CGGNNConfig(embedding_dim=16, use_ggnn=False, num_category_layers=0,
                             max_neighbors=4, max_categories=3, seed=0)
        model = CGGNN(graph, transe, config)
        out = model.forward()
        assert np.allclose(out, model.item_embeddings.data)

    def test_delta_zero_removes_category_context(self, tiny_kg, tiny_transe):
        graph, _, _ = tiny_kg
        transe, _ = tiny_transe
        base = CGGNNConfig(embedding_dim=16, num_ggnn_layers=1, num_category_layers=1,
                           max_neighbors=4, max_categories=3, delta=0.0, seed=0)
        with_context = CGGNNConfig(embedding_dim=16, num_ggnn_layers=1, num_category_layers=1,
                                   max_neighbors=4, max_categories=3, delta=0.5, seed=0)
        out_zero = CGGNN(graph, transe, base).forward()
        out_ctx = CGGNN(graph, transe, with_context).forward()
        assert not np.allclose(out_zero, out_ctx)


def _loop_index_arrays(model):
    """The item-neighbour gather tables, one table cell at a time."""
    table = model.table
    is_item = np.zeros_like(table.neighbor_mask)
    item_positions = np.zeros_like(table.neighbor_entities)
    for row in range(table.num_items):
        for column in range(table.max_neighbors):
            if table.neighbor_mask[row, column] == 0.0:
                continue
            neighbor = int(table.neighbor_entities[row, column])
            if model.graph.entities.type_of(neighbor) == EntityType.ITEM:
                is_item[row, column] = 1.0
                item_positions[row, column] = table.item_position[neighbor]
    return is_item, item_positions


class TestIndexArrays:
    def _assert_match_loop(self, model):
        is_item, item_positions = _loop_index_arrays(model)
        assert model._neighbor_is_item.dtype == is_item.dtype
        assert model._neighbor_item_positions.dtype == item_positions.dtype
        assert np.array_equal(model._neighbor_is_item, is_item)
        assert np.array_equal(model._neighbor_item_positions, item_positions)
        assert is_item.any()

    def test_vectorised_arrays_equal_the_loop(self, small_cggnn):
        self._assert_match_loop(small_cggnn)

    def test_vectorised_arrays_equal_the_loop_on_a_grown_graph(self, tiny_kg,
                                                               tiny_transe):
        from repro.embeddings import TransEConfig, train_transe
        from repro.live import UpdateLog, synthesize_deltas

        graph, _, _ = tiny_kg
        transe, _ = tiny_transe
        grown = graph.copy()
        UpdateLog(synthesize_deltas(grown, 40, seed=4)).apply(grown)
        assert grown.entities.count(EntityType.ITEM) > graph.entities.count(EntityType.ITEM)
        grown_transe, _ = train_transe(grown, TransEConfig(embedding_dim=16, epochs=1),
                                       initial_state=transe)
        model = CGGNN(grown, grown_transe,
                      CGGNNConfig(embedding_dim=16, num_ggnn_layers=1,
                                  num_category_layers=1, max_neighbors=8,
                                  max_categories=3, seed=0))
        self._assert_match_loop(model)


class TestCGGNNTraining:
    def test_training_reduces_bpr_loss(self, tiny_kg, tiny_transe):
        graph, _, _ = tiny_kg
        transe, _ = tiny_transe
        config = CGGNNConfig(embedding_dim=16, num_ggnn_layers=1, num_category_layers=1,
                             max_neighbors=4, max_categories=3, seed=0)
        model = CGGNN(graph, transe, config)
        _, losses = train_cggnn(graph, model,
                                CGGNNTrainingConfig(epochs=6, learning_rate=3e-3, seed=0))
        assert len(losses) == 6
        assert losses[-1] < losses[0]

    def test_zero_epochs_yields_empty_history(self, tiny_kg, small_cggnn):
        graph, _, _ = tiny_kg
        trainer = CGGNNTrainer(small_cggnn, graph, CGGNNTrainingConfig(epochs=0))
        assert trainer.train() == []

    def test_training_config_validation(self):
        with pytest.raises(ValueError):
            CGGNNTrainingConfig(learning_rate=0).validate()
        with pytest.raises(ValueError):
            CGGNNTrainingConfig(batch_size=0).validate()

    @pytest.mark.parametrize("field, value", [("negatives_per_positive", 0),
                                              ("gradient_clip", 0.0),
                                              ("gradient_clip", -1.0),
                                              ("weight_decay", -1e-5)])
    def test_invalid_training_fields_raise_typed_errors(self, field, value):
        # negatives_per_positive=0 used to pass and then crash with an
        # IndexError; gradient_clip=0 silently zeroed every gradient.
        with pytest.raises(ValueError, match=field):
            CGGNNTrainingConfig(**{field: value}).validate()

    def test_pipeline_rejects_zero_negatives_with_a_typed_error(self):
        from repro.pipeline import Pipeline, RunConfig

        config = RunConfig.from_profile("smoke")
        config.data.scale = 0.1
        config.model.transe.epochs = 1
        config.model.cggnn_training.negatives_per_positive = 0
        with pytest.raises(ValueError, match="negatives_per_positive"):
            Pipeline(config).run(until=["cggnn"])

    def test_purchase_pairs_only_reference_items(self, tiny_kg, small_cggnn):
        graph, _, _ = tiny_kg
        trainer = CGGNNTrainer(small_cggnn, graph)
        positions = set(range(small_cggnn.table.num_items))
        assert all(int(pair[1]) in positions for pair in trainer._pairs)


class TestDefaultSeedReproducibility:
    """CGGNN layers built without an rng must be bit-identical across
    constructions (seeded fallback, the DET001 convention)."""

    @pytest.mark.parametrize("layer_class", [AdaptivePropagationLayer,
                                             GatedAggregationLayer,
                                             CategoryAttentionLayer])
    def test_bare_layer_construction_is_reproducible(self, layer_class):
        first, second = layer_class(8), layer_class(8)
        for a, b in zip(first.parameters(), second.parameters()):
            assert np.array_equal(a.data, b.data)
