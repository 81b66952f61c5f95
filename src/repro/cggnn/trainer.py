"""Training loop for the CGGNN.

The paper trains CGGNN jointly with the recommendation objective; here the
representation stage is optimised with a Bayesian Personalised Ranking (BPR)
objective on the training purchases — the item representation that makes
observed purchases score higher than sampled negatives is exactly the
"context-aware item representation" the RL stage consumes.  Purchases are
scored with the TransE translation ``-||u + r_purchase - h_v||²`` so the
refined item vectors stay in the same geometry the rest of the pipeline
(action pruning, soft scores, baselines) uses.  The user vectors stay fixed at
their TransE values so all learning pressure lands on the item side, mirroring
the paper's item-only refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .. import nn
from ..blas import blas_threads
from ..kg.graph import KnowledgeGraph
from ..kg.relations import Relation, relation_index
from .model import CGGNN, Representations, StepBuffers, scatter_rows
from .propagation import GradientSink


@dataclass
class CGGNNTrainingConfig:
    """Optimisation hyper-parameters for the representation stage."""

    learning_rate: float = 1e-3
    epochs: int = 15
    batch_size: int = 128
    negatives_per_positive: int = 1
    weight_decay: float = 1e-5
    gradient_clip: float = 5.0
    seed: int = 0

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be at least 1")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.gradient_clip <= 0:
            raise ValueError("gradient_clip must be positive")


class CGGNNTrainer:
    """Optimises a :class:`CGGNN` with the BPR purchase-reconstruction loss."""

    def __init__(self, model: CGGNN, graph: KnowledgeGraph,
                 config: Optional[CGGNNTrainingConfig] = None) -> None:
        self.model = model
        self.graph = graph
        self.config = config or CGGNNTrainingConfig()
        self.config.validate()
        self._pairs = self._collect_purchase_pairs()
        # Where the layers' weight gradients go.  :meth:`train` installs one
        # sink for its whole run, on a worker thread the call creates and
        # shuts down; outside it each step computes them inline.
        self._gradients: Optional[GradientSink] = None
        # The arrays every step of :meth:`train` writes into (one set per
        # run); outside it each step allocates its own.
        self._buffers: Optional[StepBuffers] = None

    def _collect_purchase_pairs(self) -> np.ndarray:
        """(user_entity, item_row) pairs for every training purchase edge.

        Rows follow the graph's edge order; purchases of items outside the
        model's table are skipped.
        """
        triplets = self.graph.adjacency().triplets
        purchases = triplets[triplets[:, 1] == relation_index(Relation.PURCHASE)]
        item_ids = self.model.table.item_ids
        item_row = np.full(self.graph.num_entities, -1, dtype=np.int64)
        inside = item_ids < len(item_row)
        item_row[item_ids[inside]] = np.flatnonzero(inside)
        rows = item_row[purchases[:, 2]]
        kept = rows >= 0
        return np.stack([purchases[kept, 0], rows[kept]], axis=1)

    # ------------------------------------------------------------------ #
    def train(self) -> List[float]:
        """Run the optimisation; returns per-epoch mean BPR loss.

        The layers' weight gradients run on a worker thread this call owns,
        beside the input-gradient chain (see :class:`GradientSink`), every
        step writes its activations into one set of buffers
        (:class:`~repro.cggnn.model.StepBuffers`), and OpenBLAS runs on one
        thread.  The worker and the buffers are gone when it returns, and
        the previous BLAS thread count is back, also when it raises.
        """
        if len(self._pairs) == 0 or self.config.epochs == 0:
            return []
        # Imported here: ~5 ms that a process which never trains (a serving
        # boot, the CLI) should not pay at start-up.
        from concurrent.futures import ThreadPoolExecutor

        # The worker and this thread already fill two cores; OpenBLAS
        # threads on top of them only contend.  The count does not change
        # bits: OpenBLAS threads a GEMM by splitting its output, not its
        # inner sum, and the paper arrays are byte-equal on one and two.
        with blas_threads(1), ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="cggnn-weight-grads") as executor:
            self._gradients = GradientSink(executor)
            self._buffers = StepBuffers(self.model)
            try:
                return self._optimise()
            finally:
                self._gradients = self._buffers = None

    def _optimise(self) -> List[float]:
        rng = np.random.default_rng(self.config.seed)
        parameters = self.model.parameters()
        optimiser = nn.Adam(parameters, lr=self.config.learning_rate,
                            weight_decay=self.config.weight_decay)
        num_items = self.model.table.num_items

        losses: List[float] = []
        for _ in range(self.config.epochs):
            order = rng.permutation(len(self._pairs))
            epoch_loss = 0.0
            batches = 0
            for start in range(0, len(order), self.config.batch_size):
                batch = self._pairs[order[start:start + self.config.batch_size]]
                negatives = rng.integers(0, num_items,
                                         size=(len(batch), self.config.negatives_per_positive))
                optimiser.zero_grad()
                epoch_loss += self._loss_and_gradients(batch[:, 0], batch[:, 1], negatives)
                nn.clip_grad_norm(parameters, self.config.gradient_clip)
                optimiser.step()
                batches += 1
            losses.append(epoch_loss / max(batches, 1))
        return losses

    def _loss_and_gradients(self, users: np.ndarray, positives: np.ndarray,
                            negatives: np.ndarray) -> float:
        """One BPR step: write every parameter's ``.grad``, return the loss.

        The forward pass scores each purchase against each column of
        ``negatives``; the backward pass is hand-written and adds up every
        multi-consumer gradient in the order the autograd engine did, so the
        gradients are bit-identical to the reference trainer's.  Every
        gradient is in place when this returns, wherever it was computed.
        """
        item_matrix, trace = self.model.forward_traced(self._buffers)
        # Translated user query u + r_purchase; users keep their TransE vectors.
        query = self.model._static_entities[users] + self.model._purchase_state  # (B, d)
        positive_diff = query - item_matrix[positives]
        positive_scores = -(positive_diff * positive_diff).sum(axis=1)
        columns = negatives.shape[1]
        scale = 1.0 / columns
        loss = None
        steps = []
        for column in range(columns):
            negative_diff = query - item_matrix[negatives[:, column]]
            margin = positive_scores - -(negative_diff * negative_diff).sum(axis=1)
            likelihood = 1.0 / (1.0 + np.exp(-margin))
            clipped = np.clip(likelihood, 1e-9, 1.0)
            term = (-np.log(clipped)).sum() * (1.0 / len(margin))
            loss = term if loss is None else loss + term
            steps.append((negative_diff, likelihood, clipped))

        # Backward, newest negative column first (the engine's visit order).
        grad_items = None
        grad_positive = None
        for column in reversed(range(columns)):
            negative_diff, likelihood, clipped = steps[column]
            grad_term = -(scale * (1.0 / len(likelihood))) / clipped
            in_range = (likelihood >= 1e-9) & (likelihood <= 1.0)
            grad_margin = grad_term * in_range * likelihood * (1.0 - likelihood)
            grad_positive = (grad_margin if grad_positive is None
                             else grad_positive + grad_margin)
            grad_negative = grad_margin[:, None] * negative_diff
            grad_rows = scatter_rows(item_matrix, negatives[:, column],
                                      -(grad_negative + grad_negative))
            grad_items = grad_rows if grad_items is None else grad_items + grad_rows
        grad_query = -grad_positive[:, None] * positive_diff
        grad_items = grad_items + scatter_rows(item_matrix, positives,
                                                -(grad_query + grad_query))
        gradients = self._gradients or GradientSink()
        self.model.backward(trace, grad_items, gradients)
        gradients.collect()
        return float(loss * scale)

    # ------------------------------------------------------------------ #
    def export(self) -> Representations:
        """Convenience wrapper returning the trained representation tables."""
        return self.model.export_representations()


def warm_start_cggnn(model: CGGNN, initial_state: Representations) -> None:
    """Overlay a prior generation's representation tables onto ``model``.

    The trainable tables (item self-embeddings, category embeddings) start
    from the prior generation's converged values instead of the TransE
    initialisation; items and categories that appeared *after* the prior keep
    their seeded initialisation.  Entity ids are append-only, so a prior row
    index is a valid entity id in every descendant graph — the overlay maps
    prior vectors to item rows by entity id, not by row position.
    """
    dim = model.config.embedding_dim
    if initial_state.entity.ndim != 2 or initial_state.entity.shape[1] != dim:
        raise ValueError(
            f"warm-start entity table shape {initial_state.entity.shape} does "
            f"not match embedding_dim={dim}")
    if initial_state.category.ndim != 2 or initial_state.category.shape[1] != dim:
        raise ValueError(
            f"warm-start category table shape {initial_state.category.shape} "
            f"does not match embedding_dim={dim}")
    prior_rows = initial_state.entity.shape[0]
    item_ids = np.asarray(model.table.item_ids, dtype=np.int64)
    known = item_ids < prior_rows
    model.item_embeddings.data[known] = initial_state.entity[item_ids[known]]
    overlap = min(model.category_table.data.shape[0],
                  initial_state.category.shape[0])
    model.category_table.data[:overlap] = initial_state.category[:overlap]


def train_cggnn(graph: KnowledgeGraph, model: CGGNN,
                config: Optional[CGGNNTrainingConfig] = None,
                initial_state: Optional[Representations] = None
                ) -> Tuple[Representations, List[float]]:
    """Train ``model`` on ``graph`` and return (representations, loss curve).

    ``initial_state`` warm-starts the trainable tables from a prior
    generation's :class:`Representations` (see :func:`warm_start_cggnn`),
    which is what lets the live-refresh path run a few-epoch delta refresh
    instead of retraining from the TransE initialisation.
    """
    if initial_state is not None:
        warm_start_cggnn(model, initial_state)
    trainer = CGGNNTrainer(model, graph, config)
    losses = trainer.train()
    return trainer.export(), losses
