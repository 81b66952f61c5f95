"""The Category-aware Gated Graph Neural Network (CGGNN, Section IV-B).

The model refines TransE item embeddings with ``k`` adaptive-propagation +
gated-aggregation hops (entity-level contextual dependency) and ``m``
category-attention hops (category-level contextual dependency), and fuses the
two with the trade-off factor ``δ`` (Eq. 11).

Only items receive refined representations — the paper's explicit design
choice — so non-item neighbours always contribute their static TransE vectors
while item neighbours contribute the representation of the previous GNN layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .. import nn
from ..embeddings.transe import TransEModel, category_embeddings
from ..kg.entities import EntityType
from ..kg.graph import KnowledgeGraph
from ..kg.relations import Relation, relation_index
from ..nn import Tensor
from .category_attention import CategoryAttentionLayer, CategoryBuffers
from .gating import GatedAggregationLayer, GatingBuffers
from .neighbourhood import NeighbourhoodTable, build_neighbourhood_table
from .propagation import AdaptivePropagationLayer, GradientSink, PropagationBuffers


@dataclass
class CGGNNConfig:
    """Hyper-parameters of the CGGNN (paper Section V-A.3)."""

    embedding_dim: int = 100
    num_ggnn_layers: int = 3        # k
    num_category_layers: int = 2    # m
    delta: float = 0.4              # trade-off factor in Eq. 11
    max_neighbors: int = 16
    max_categories: int = 6
    leaky_relu_slope: float = 0.2
    use_ggnn: bool = True           # disabled by the RGGNN ablation (Fig. 3)
    use_category_attention: bool = True  # disabled by the RCGAN ablation (Fig. 3)
    seed: int = 0

    def validate(self) -> None:
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if self.num_ggnn_layers < 0 or self.num_category_layers < 0:
            raise ValueError("layer counts must be non-negative")
        if not (0.0 <= self.delta <= 1.0):
            raise ValueError("delta must lie in [0, 1]")


@dataclass
class Representations:
    """Frozen representation tables handed to the RL stage.

    ``entity`` rows of item entities hold CGGNN outputs; every other entity
    keeps its TransE vector.  ``category`` holds one vector per item-category.
    """

    entity: np.ndarray
    relation: np.ndarray
    category: np.ndarray

    @property
    def dim(self) -> int:
        return self.entity.shape[1]

    def entity_vector(self, entity_id: int) -> np.ndarray:
        return self.entity[entity_id]

    def relation_vector(self, relation: Relation) -> np.ndarray:
        return self.relation[relation_index(relation)]

    def category_vector(self, category_id: int) -> np.ndarray:
        return self.category[category_id]


class CGGNN(nn.Module):
    """End-to-end CGGNN producing high-order item representations."""

    def __init__(self, graph: KnowledgeGraph, transe: TransEModel,
                 config: Optional[CGGNNConfig] = None,
                 table: Optional[NeighbourhoodTable] = None) -> None:
        self.config = config or CGGNNConfig()
        self.config.validate()
        if transe.config.embedding_dim != self.config.embedding_dim:
            raise ValueError("TransE and CGGNN embedding dimensions must match")
        rng = np.random.default_rng(self.config.seed)
        self.graph = graph
        self.table = table or build_neighbourhood_table(
            graph, max_neighbors=self.config.max_neighbors,
            max_categories=self.config.max_categories, rng=rng)

        dim = self.config.embedding_dim
        # Static context (TransE): every entity and relation.
        self._static_entities = np.array(transe.entity_embeddings, copy=True)
        self._static_relations = np.array(transe.relation_embeddings, copy=True)
        self._static_categories = category_embeddings(transe, graph)
        if self._static_categories.shape[0] == 0:
            self._static_categories = np.zeros((1, dim))

        # Trainable tables: item self-embeddings and category embeddings,
        # initialised from the TransE statistics.
        self.item_embeddings = Tensor(
            self._static_entities[self.table.item_ids].copy(), requires_grad=True,
            name="cggnn.item_embeddings")
        self.category_table = Tensor(self._static_categories.copy(), requires_grad=True,
                                     name="cggnn.category_embeddings")

        self.propagation_layers = [
            AdaptivePropagationLayer(dim, rng=rng) for _ in range(self.config.num_ggnn_layers)
        ]
        self.gating_layers = [
            GatedAggregationLayer(dim, rng=rng) for _ in range(self.config.num_ggnn_layers)
        ]
        self.category_layers = [
            CategoryAttentionLayer(dim, self.config.leaky_relu_slope, rng=rng)
            for _ in range(self.config.num_category_layers)
        ]

        self._prepare_index_arrays()

    # ------------------------------------------------------------------ #
    def _prepare_index_arrays(self) -> None:
        """Pre-compute gather indices and the constant per-neighbour tables."""
        table = self.table
        dim = self.config.embedding_dim
        neighbors = table.neighbor_entities
        item_type = np.zeros(self.graph.num_entities, dtype=bool)
        item_type[self.graph.entities.ids_of_type(EntityType.ITEM)] = True
        is_item = (table.neighbor_mask != 0.0) & item_type[neighbors]
        positions = np.zeros(len(item_type), dtype=neighbors.dtype)
        positions[table.item_ids] = np.arange(table.num_items, dtype=neighbors.dtype)
        self._neighbor_is_item = is_item.astype(table.neighbor_mask.dtype)
        self._neighbor_item_positions = np.where(is_item, positions[neighbors], 0)

        # Constants of every forward pass (no gradient flows into them).
        self._item_gather = self._neighbor_item_positions.reshape(-1)
        self._is_item_column = self._neighbor_is_item[..., None]
        self._static_neighbor_part = (self._static_entities[neighbors]
                                      * (1.0 - self._is_item_column))
        self._relation_states = self._static_relations[table.neighbor_relations]
        self._purchase_state = self._static_relations[relation_index(Relation.PURCHASE)]
        self._category_gather = table.category_ids.reshape(-1)
        self._gathered_shape = (table.num_items, table.max_neighbors, dim)
        # The scatter cells of the two gathers' backward passes (constant).
        self._item_cells = row_cells(self._item_gather, dim)
        self._category_cells = row_cells(self._category_gather, dim)

    # ------------------------------------------------------------------ #
    def forward(self) -> np.ndarray:
        """Return the refined item representation matrix ``(num_items, dim)``."""
        return self.forward_traced()[0]

    def forward_traced(self, buffers: Optional[StepBuffers] = None
                       ) -> Tuple[np.ndarray, tuple]:
        """:meth:`forward` plus the activations :meth:`backward` needs.

        The activations are written into ``buffers`` (by default a fresh
        set); the returned matrix never aliases them.
        """
        table = self.table
        buffers = buffers or StepBuffers(self)
        item_states = self.item_embeddings.data
        hops = []
        # The buffers hold one set per hop the configuration runs.
        for propagation, gating, propagation_buffers, gating_buffers in zip(
                self.propagation_layers, self.gating_layers, buffers.propagation,
                buffers.gating):
            neighbor_states = self._neighbor_states(item_states, buffers.neighbor_states)
            message, propagation_trace = propagation.forward_traced(
                item_states, neighbor_states, self._relation_states,
                self._purchase_state, table.neighbor_mask,
                table.neighbor_is_outgoing, propagation_buffers)
            item_states, gating_trace = gating.forward_traced(message, item_states,
                                                              gating_buffers)
            hops.append((propagation_trace, gating_trace))

        category_traces = []
        if buffers.category:
            category_states = buffers.category_states
            np.take(self.category_table.data, self._category_gather, axis=0, mode="clip",
                    out=category_states.reshape(-1, self.config.embedding_dim))
            context = item_states
            for layer, layer_buffers in zip(self.category_layers, buffers.category):
                context, layer_trace = layer.forward_traced(
                    context, category_states, table.category_mask, layer_buffers)
                category_traces.append(layer_trace)
            item_states = item_states + context * self.config.delta         # Eq. 11
        return item_states, (hops, category_traces, buffers)

    def _neighbor_states(self, item_states: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Neighbour representations, written into ``out``: current item states
        for item neighbours, static TransE vectors for attributes."""
        # mode="clip" lets ``take`` write ``out`` directly (the default mode
        # buffers it); every index is in range, so the values are the same.
        gathered_items = np.take(item_states, self._item_gather, axis=0,
                                 out=out.reshape(-1, self.config.embedding_dim),
                                 mode="clip")
        gathered_items *= self._is_item_column.reshape(-1, 1)
        return np.add(out, self._static_neighbor_part, out=out)

    def backward(self, trace: tuple, grad_output: np.ndarray,
                 gradients: GradientSink) -> None:
        """Write every parameter gradient reachable from ``grad_output``.

        ``grad_output`` is d(loss)/d(:meth:`forward`).  The layers' weight and
        bias gradients go to ``gradients`` (the caller collects them); the
        two tables' gradients are written here.  Parameters the configuration
        leaves out of the forward pass keep ``grad = None``, exactly as after
        ``Tensor.backward``.  Every gradient with several consumers is added
        up in the autograd engine's order, so the result is bit-identical to
        it.
        """
        hops, category_traces, buffers = trace
        dim = self.config.embedding_dim
        grad_items = grad_output
        if category_traces:
            grad_context = grad_output * self.config.delta
            grad_categories = None
            for layer, layer_trace in zip(reversed(self.category_layers),
                                          reversed(category_traces)):
                grad_context, grad_weighted, grad_paired = layer.backward(
                    layer_trace, grad_context, gradients)
                if grad_categories is None:
                    grad_categories = np.add(grad_weighted, grad_paired,
                                             out=buffers.grad_categories)
                else:
                    grad_categories += grad_weighted
                    grad_categories += grad_paired
            grad_items = grad_output + grad_context
            self.category_table.grad = scatter_cells(
                self._category_cells, self.category_table.data.shape[0],
                grad_categories.reshape(-1, dim))
        for (propagation_trace, gating_trace), propagation, gating in zip(
                reversed(hops), reversed(self.propagation_layers),
                reversed(self.gating_layers)):
            grad_message, grad_from_gating = gating.backward(gating_trace, grad_items,
                                                             gradients)
            grad_from_tile, grad_neighbors = propagation.backward(
                propagation_trace, grad_message, gradients)
            grad_neighbors *= self._is_item_column               # the gather's share
            grad_items = (grad_from_gating
                          + scatter_cells(self._item_cells, self.table.num_items,
                                          grad_neighbors.reshape(-1, dim))
                          + grad_from_tile)
        self.item_embeddings.grad = grad_items.copy()

    # ------------------------------------------------------------------ #
    def export_representations(self) -> Representations:
        """Freeze current outputs into numpy tables for the RL stage."""
        item_matrix = self.forward()
        entity = np.array(self._static_entities, copy=True)
        entity[self.table.item_ids] = item_matrix
        return Representations(
            entity=entity,
            relation=np.array(self._static_relations, copy=True),
            category=np.array(self.category_table.data, copy=True),
        )

    def static_representations(self) -> Representations:
        """TransE-only representations (used by the ``w/o CGGNN`` ablation)."""
        return Representations(
            entity=np.array(self._static_entities, copy=True),
            relation=np.array(self._static_relations, copy=True),
            category=np.array(self._static_categories, copy=True),
        )


class StepBuffers:
    """The step-sized arrays of one :class:`CGGNN`'s forward and backward.

    :meth:`CGGNN.forward_traced` writes into them; a training run builds one
    set and hands it to every step, and drops it when it ends.  One :class:`PropagationBuffers` and one
    :class:`GatingBuffers` per GGNN hop and one :class:`CategoryBuffers` per
    attention hop (each kind sharing its within-call scratch), plus the
    gathered neighbour and category states.
    """

    def __init__(self, model: CGGNN) -> None:
        config, table = model.config, model.table
        category_shape = (table.num_items, table.max_categories, config.embedding_dim)
        self.neighbor_states = np.empty(model._gathered_shape)
        self.category_states = np.empty(category_shape)
        self.grad_categories = np.empty(category_shape)
        self.propagation: List[PropagationBuffers] = []
        self.gating: List[GatingBuffers] = []
        self.category: List[CategoryBuffers] = []
        for _ in (model.propagation_layers if config.use_ggnn else ()):
            self.propagation.append(PropagationBuffers(
                model._relation_states, model._purchase_state,
                share=self.propagation[0] if self.propagation else None))
            self.gating.append(GatingBuffers(
                (table.num_items, config.embedding_dim),
                share=self.gating[0] if self.gating else None))
        for _ in (model.category_layers if config.use_category_attention else ()):
            self.category.append(CategoryBuffers(
                category_shape, share=self.category[0] if self.category else None))


def row_cells(rows: np.ndarray, dim: int) -> np.ndarray:
    """The flat ``(row, column)`` cell of every element of ``table[rows]``."""
    return (rows[:, None] * dim + np.arange(dim)).reshape(-1)


def scatter_cells(cells: np.ndarray, num_rows: int, grad: np.ndarray) -> np.ndarray:
    """``grad`` scatter-added onto a zero ``(num_rows, d)`` table at ``cells``.

    ``np.bincount`` adds each cell's contributions one by one in ``cells``
    order onto 0.0 — exactly the sequence ``np.add.at`` (the autograd
    gather's backward) performs, at a fraction of its cost.
    """
    dim = grad.shape[-1]
    return np.bincount(cells, weights=grad.reshape(-1),
                       minlength=num_rows * dim).reshape(num_rows, dim)


def scatter_rows(like: np.ndarray, rows: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The gradient of ``like[rows]``: ``grad`` scatter-added in index order."""
    num_rows, dim = like.shape
    return scatter_cells(row_cells(rows, dim), num_rows, grad)
