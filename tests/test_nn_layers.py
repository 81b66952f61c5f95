"""Unit tests for layers, recurrent cells, initialisation and optimisers."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor, init


class TestLinear:
    def test_linear_output_shape(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        out = layer(Tensor(np.ones(4)))
        assert out.shape == (3,)

    def test_linear_batched_input(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        assert layer(Tensor(np.ones((5, 4)))).shape == (5, 3)

    def test_linear_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            nn.Linear(0, 3)

    def test_linear_without_bias_has_one_parameter(self, rng):
        layer = nn.Linear(4, 3, bias=False, rng=rng)
        assert len(layer.parameters()) == 1


class TestModuleBookkeeping:
    def test_named_parameters_cover_submodules(self, rng):
        class Stack(nn.Module):
            def __init__(self):
                self.layers = [nn.Linear(4, 8, rng=rng), nn.Linear(8, 2, rng=rng)]

        names = [name for name, _ in Stack().named_parameters()]
        assert names == ["layers.0.weight", "layers.0.bias",
                         "layers.1.weight", "layers.1.bias"]

    def test_num_parameters_counts_scalars(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        assert layer.num_parameters() == 4 * 3 + 3

    def test_state_dict_roundtrip(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        snapshot = layer.state_dict()
        layer.weight.data += 1.0
        layer.load_state_dict(snapshot)
        assert np.allclose(layer.weight.data, snapshot["weight"])

    def test_load_state_dict_rejects_missing_key(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        with pytest.raises(KeyError):
            layer.load_state_dict({})

    def test_load_state_dict_rejects_shape_mismatch(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        state = layer.state_dict()
        state["weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)

    def test_zero_grad_clears_gradients(self, rng):
        layer = nn.Linear(4, 1, rng=rng)
        layer(Tensor(np.ones(4))).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestRecurrent:
    def test_lstm_cell_shapes(self, rng):
        cell = nn.LSTMCell(6, 4, rng=rng)
        hidden, memory = cell(Tensor(np.ones(6)))
        assert hidden.shape == (4,)
        assert memory.shape == (4,)

    def test_lstm_cell_state_changes_with_input(self, rng):
        cell = nn.LSTMCell(3, 4, rng=rng)
        state = cell.initial_state()
        h1, _ = cell(Tensor([1.0, 0.0, 0.0]), state)
        h2, _ = cell(Tensor([0.0, 1.0, 0.0]), state)
        assert not np.allclose(h1.data, h2.data)

    def test_lstm_gradients_flow_to_weights(self, rng):
        cell = nn.LSTMCell(3, 4, rng=rng)
        hidden, _ = cell(Tensor(np.ones(3)))
        hidden.sum().backward()
        assert cell.weight_ih.grad is not None
        assert cell.weight_hh.grad is not None

    def test_cell_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            nn.LSTMCell(0, 4)
        with pytest.raises(ValueError):
            nn.LSTMCell(4, 0)


class TestInit:
    def test_xavier_bound(self, rng):
        weights = init.xavier_uniform((100, 50), rng)
        bound = np.sqrt(6.0 / 150)
        assert np.all(np.abs(weights) <= bound)

    def test_zeros(self):
        assert np.allclose(init.zeros((3, 3)), 0.0)


class TestOptimisers:
    def _quadratic_problem(self, rng):
        target = Tensor(np.array([1.0, -2.0, 3.0]))
        parameter = Tensor(np.zeros(3), requires_grad=True)
        return parameter, target

    def test_adam_converges(self, rng):
        parameter, target = self._quadratic_problem(rng)
        optimiser = nn.Adam([parameter], lr=0.1)
        for _ in range(200):
            optimiser.zero_grad()
            ((parameter - target) ** 2).sum().backward()
            optimiser.step()
        assert np.allclose(parameter.data, target.data, atol=0.1)

    def test_optimizer_requires_parameters(self):
        with pytest.raises(ValueError):
            nn.Adam([])

    def test_optimizer_rejects_bad_lr(self, rng):
        parameter = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ValueError):
            nn.Adam([parameter], lr=-1.0)
        with pytest.raises(ValueError):
            nn.Adam([parameter], lr=0.0)

    def test_weight_decay_shrinks_parameters(self):
        parameter = Tensor(np.ones(3) * 10, requires_grad=True)
        optimiser = nn.Adam([parameter], lr=0.1, weight_decay=0.5)
        parameter.grad = np.zeros(3)
        optimiser.step()
        assert np.all(np.abs(parameter.data) < 10)

    def test_clip_grad_norm_scales_down(self):
        parameter = Tensor(np.zeros(4), requires_grad=True)
        parameter.grad = np.ones(4) * 10.0
        norm = nn.clip_grad_norm([parameter], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(parameter.grad) == pytest.approx(1.0)

    def test_clip_grad_norm_leaves_small_gradients(self):
        parameter = Tensor(np.zeros(4), requires_grad=True)
        parameter.grad = np.ones(4) * 0.01
        nn.clip_grad_norm([parameter], max_norm=1.0)
        assert np.allclose(parameter.grad, 0.01)


class TestDefaultSeedReproducibility:
    """Bare constructions (no injected rng) derive from init.DEFAULT_SEED,
    so two of them are bit-identical — the DET001 seeding convention."""

    def test_linear_default_construction_is_reproducible(self):
        first, second = nn.Linear(6, 4), nn.Linear(6, 4)
        assert np.array_equal(first.weight.data, second.weight.data)

    def test_recurrent_cells_default_construction_is_reproducible(self):
        assert np.array_equal(nn.LSTMCell(5, 7).weight_ih.data,
                              nn.LSTMCell(5, 7).weight_ih.data)
        assert np.array_equal(nn.LSTMCell(5, 7).weight_hh.data,
                              nn.LSTMCell(5, 7).weight_hh.data)

    def test_injected_rng_still_differs_from_default(self):
        seeded = nn.Linear(6, 4, rng=np.random.default_rng(12345))
        bare = nn.Linear(6, 4)
        assert not np.array_equal(seeded.weight.data, bare.weight.data)

    def test_ensure_rng_passthrough_and_fallback(self):
        generator = np.random.default_rng(3)
        assert init.ensure_rng(generator) is generator
        a, b = init.ensure_rng(None), init.ensure_rng()
        assert np.array_equal(a.random(8), b.random(8))
