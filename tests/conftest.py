"""Shared fixtures: one tiny dataset/KG/embedding stack reused across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cggnn import CGGNN, CGGNNConfig, CGGNNTrainingConfig, train_cggnn
from repro.darl import CADRLConfig
from repro.data import SyntheticConfig, generate, split_interactions
from repro.embeddings import TransEConfig, train_transe
from repro.kg import build_knowledge_graph
from repro.pipeline import Pipeline, RunConfig
from repro.pipeline.config import DataConfig, EvalConfig
from repro.serving import ServingConfig


TINY_CONFIG = SyntheticConfig(
    name="tiny",
    num_users=30,
    num_items=60,
    num_brands=8,
    num_features=16,
    num_categories=6,
    num_clusters=3,
    interactions_per_user=(4, 8),
    seed=7,
)


@pytest.fixture(scope="session")
def tiny_dataset():
    return generate(TINY_CONFIG)


@pytest.fixture(scope="session")
def tiny_split(tiny_dataset):
    return split_interactions(tiny_dataset, seed=1)


@pytest.fixture(scope="session")
def tiny_kg(tiny_dataset, tiny_split):
    graph, category_graph, builder = build_knowledge_graph(tiny_dataset, tiny_split.train)
    return graph, category_graph, builder


@pytest.fixture(scope="session")
def tiny_transe(tiny_kg):
    graph, _, _ = tiny_kg
    model, losses = train_transe(graph, TransEConfig(embedding_dim=16, epochs=6, seed=0))
    return model, losses


@pytest.fixture(scope="session")
def tiny_representations(tiny_kg, tiny_transe):
    graph, _, _ = tiny_kg
    transe, _ = tiny_transe
    config = CGGNNConfig(embedding_dim=16, num_ggnn_layers=1, num_category_layers=1,
                         max_neighbors=6, max_categories=3, seed=0)
    model = CGGNN(graph, transe, config)
    representations, _ = train_cggnn(graph, model,
                                     CGGNNTrainingConfig(epochs=2, batch_size=128, seed=0))
    return representations


@pytest.fixture(scope="session")
def tiny_pipeline(tmp_path_factory):
    """A tiny trained pipeline, persisted: ``(artifact directory, result)``.

    The stack that replay builders (:func:`repro.simulate.build_stack`, the
    scenario explorer, ``repro simulate --artifacts``) boot from; answers
    stay cached for ten minutes of trace time.
    """
    config = RunConfig(
        data=DataConfig(dataset="beauty", scale=0.25, split_seed=0),
        model=CADRLConfig.fast(embedding_dim=16, seed=0),
        serving=ServingConfig(cache_capacity=64, cache_ttl_seconds=600.0),
        eval=EvalConfig(max_eval_users=8),
    )
    config.model.transe.epochs = 5
    config.model.cggnn_training.epochs = 3
    config.model.darl.epochs = 2
    store = tmp_path_factory.mktemp("tiny_pipeline")
    return store, Pipeline(config, store=store).run(until=("train",))


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
