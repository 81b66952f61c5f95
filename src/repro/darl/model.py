"""The CADRL model facade: TransE → CGGNN → DARL → beam-search recommendations.

``CADRL.fit`` trains the paper's chain on a dataset split by running the
:mod:`repro.pipeline` stages (``kg`` → ``embed`` → ``cggnn`` → ``train``), the
only code that trains the model; the resulting object answers
``recommend_items`` / ``recommend_paths`` queries in terms of *dataset*
user/item ids, which is what the evaluation harness and the examples consume.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set

import numpy as np

from ..cggnn import CGGNNConfig, CGGNNTrainingConfig, Representations
from ..data.schema import InteractionDataset, TrainTestSplit
from ..embeddings import TransEConfig, TransEModel
from ..rl.trajectory import RecommendationPath
from .collaborative import GuidanceModel
from .inference import InferenceConfig, PathRecommender
from .shared_policy import SharedPolicyNetworks
from .trainer import DARLConfig, EpochStats


def apply_overrides(config: Any, overrides: Mapping[str, Any]) -> Any:
    """Set ``section__field``-style paths on a nested config dataclass.

    ``{"darl__max_path_length": 3}`` sets ``config.darl.max_path_length``.
    A path naming no field raises ``ValueError``, so a misspelled override
    fails instead of silently training (and fingerprinting) the default.
    Returns ``config``, edited in place.
    """
    for key, value in overrides.items():
        parts = key.split("__")
        target = config
        for part in parts:
            if not (dataclasses.is_dataclass(target)
                    and part in {f.name for f in dataclasses.fields(target)}):
                raise ValueError(f"unknown config override {key!r}: "
                                 f"{type(target).__name__} has no field {part!r}")
            owner, target = target, getattr(target, part)
        setattr(owner, parts[-1], value)
    return config


@dataclass
class CADRLConfig:
    """End-to-end configuration of the CADRL pipeline.

    ``embedding_dim`` and ``seed`` are propagated into every stage so a single
    number controls the model size and reproducibility.  Individual stage
    configurations can still be overridden explicitly.
    """

    embedding_dim: int = 48
    seed: int = 0
    use_cggnn: bool = True            # False => "CADRL w/o CGGNN" (Table IV)
    transe: TransEConfig = field(default_factory=TransEConfig)
    cggnn: CGGNNConfig = field(default_factory=CGGNNConfig)
    cggnn_training: CGGNNTrainingConfig = field(default_factory=CGGNNTrainingConfig)
    darl: DARLConfig = field(default_factory=DARLConfig)
    inference: InferenceConfig = field(default_factory=InferenceConfig)

    def __post_init__(self) -> None:
        self.transe.embedding_dim = self.embedding_dim
        self.transe.seed = self.seed
        self.cggnn.embedding_dim = self.embedding_dim
        self.cggnn.seed = self.seed
        self.cggnn_training.seed = self.seed
        self.darl.seed = self.seed

    @classmethod
    def fast(cls, embedding_dim: int = 32, seed: int = 0, **overrides) -> "CADRLConfig":
        """A configuration tuned for quick experiments on the synthetic presets."""
        config = cls(
            embedding_dim=embedding_dim,
            seed=seed,
            transe=TransEConfig(embedding_dim=embedding_dim, epochs=25, seed=seed),
            cggnn=CGGNNConfig(embedding_dim=embedding_dim, num_ggnn_layers=2,
                              num_category_layers=1, max_neighbors=10, max_categories=4,
                              seed=seed),
            cggnn_training=CGGNNTrainingConfig(epochs=25, learning_rate=3e-3,
                                               negatives_per_positive=2, batch_size=128,
                                               seed=seed),
            darl=DARLConfig(epochs=8, max_path_length=6, hidden_size=32, mlp_hidden=64,
                            max_entity_actions=25, seed=seed),
            inference=InferenceConfig(beam_width=12, expansions_per_beam=3),
        )
        return apply_overrides(config, overrides)


class CADRL:
    """Category-Aware Dual-agent Reinforcement Learning recommender."""

    name = "CADRL"

    def __init__(self, config: Optional[CADRLConfig] = None) -> None:
        self.config = config or CADRLConfig()
        self.dataset: Optional[InteractionDataset] = None
        self.builder = None
        self.graph = None
        self.category_graph = None
        self.transe: Optional[TransEModel] = None
        self.representations: Optional[Representations] = None
        self.recommender: Optional[PathRecommender] = None
        self.training_history: List[EpochStats] = []
        self.transe_losses: List[float] = []
        self.cggnn_losses: List[float] = []
        self._train_items: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------ #
    def fit(self, dataset: InteractionDataset, split: TrainTestSplit) -> "CADRL":
        """Train the full chain on the training split (the pipeline's stages)."""
        # Deferred: repro.pipeline builds on this module.
        from ..pipeline.config import RunConfig
        from ..pipeline.stages import (CGGNNStage, EmbedStage, KGStage,
                                       PipelineContext, TrainStage)

        context = PipelineContext(config=RunConfig(model=self.config),
                                  dataset=dataset, split=split, cadrl=self)
        for stage in (KGStage(), EmbedStage(), CGGNNStage(), TrainStage()):
            stage.run(context)
        return self

    def adopt(self, context) -> "CADRL":
        """Take over the trained components of a pipeline context.

        The one assembly path, shared by :meth:`fit` and the pipeline's
        ``train`` stage (run, restored from disk or from a stage memo): the
        facade gets a fresh :class:`PathRecommender` with cold caches.
        """
        from ..pipeline.stages import entity_train_items  # deferred, as in fit

        self.dataset = context.dataset
        self.graph = context.graph
        self.category_graph = context.category_graph
        self.builder = context.builder
        self.transe = context.transe
        self.representations = context.representations
        self.training_history = list(context.training_history)
        self.transe_losses = list(context.transe_losses)
        self.cggnn_losses = list(context.cggnn_losses)
        self._train_items = {user: set(items) for user, items in
                             entity_train_items(context.split, context.builder).items()}
        darl = self.config.darl
        self.recommender = PathRecommender(
            context.graph, context.category_graph, context.representations, context.policy,
            guidance=GuidanceModel(strength=darl.guidance_strength),
            max_path_length=darl.max_path_length,
            max_entity_actions=darl.max_entity_actions,
            max_category_actions=darl.max_category_actions,
            use_dual_agent=darl.use_dual_agent,
            config=self.config.inference,
        )
        return self

    @property
    def policy(self) -> Optional[SharedPolicyNetworks]:
        """The trained shared policy (``None`` before :meth:`fit`)."""
        return self.recommender.policy if self.recommender is not None else None

    def _require_fitted(self) -> None:
        if self.recommender is None:
            raise RuntimeError("CADRL.fit must be called before recommending")

    # ------------------------------------------------------------------ #
    # recommendation API (dataset-level ids)
    # ------------------------------------------------------------------ #
    def recommend_paths(self, user_id: int, top_k: int = 10) -> List[RecommendationPath]:
        """Top-k recommendations for a dataset user, as explanation paths."""
        self._require_fitted()
        user_entity = self.builder.user_to_entity(user_id)
        exclude = self._train_items.get(user_entity, set())
        return self.recommender.recommend(user_entity, exclude_items=exclude, top_k=top_k)

    def score_items(self, user_id: int) -> np.ndarray:
        """Representation score ``-||u + r_purchase - h_v||²`` for every item.

        Uses the CGGNN-refined item vectors, i.e. the same scoring geometry the
        representation stage was trained with.
        """
        self._require_fitted()
        from ..kg.relations import Relation  # local import to avoid cycle at module load

        user_entity = self.builder.user_to_entity(user_id)
        query = (self.representations.entity_vector(user_entity)
                 + self.representations.relation_vector(Relation.PURCHASE))
        if not hasattr(self, "_item_matrix"):
            item_entities = np.array([self.builder.item_to_entity(item)
                                      for item in range(self.dataset.num_items)])
            self._item_matrix = self.representations.entity[item_entities]
        differences = self._item_matrix - query[None, :]
        return -np.sum(differences * differences, axis=1)

    def recommend_items(self, user_id: int, top_k: int = 10,
                        path_bonus: float = 0.5) -> List[int]:
        """Top-k recommended dataset item ids for a dataset user.

        The ranking fuses two signals, mirroring how PGPR-family systems rank
        candidates: the representation score of every item and a bonus for the
        items the dual-agent policy actually reached (weighted by their path
        probability rank).  ``path_bonus`` is expressed in units of the score's
        standard deviation; setting it to 0 disables the path evidence.
        """
        self._require_fitted()
        scores = self.score_items(user_id).astype(np.float64)
        spread = float(np.std(scores)) or 1.0
        scores = (scores - float(np.mean(scores))) / spread

        if path_bonus > 0.0:
            paths = self.recommend_paths(user_id, top_k)
            for rank, path in enumerate(paths):
                item = self.builder.entity_to_item(path.item_entity)
                if item is None:
                    continue
                scores[item] += path_bonus * (1.0 + 1.0 / (rank + 1.0))

        user_entity = self.builder.user_to_entity(user_id)
        exclude_entities = self._train_items.get(user_entity, set())
        exclude = {self.builder.entity_to_item(entity) for entity in exclude_entities}
        ranked = [int(item) for item in np.argsort(-scores) if int(item) not in exclude]
        return ranked[:top_k]

    def find_paths(self, user_id: int, num_paths: int) -> List[RecommendationPath]:
        """Raw path discovery for the efficiency study (Table III)."""
        self._require_fitted()
        user_entity = self.builder.user_to_entity(user_id)
        return self.recommender.find_paths(user_entity, num_paths)

    # ------------------------------------------------------------------ #
    def describe_path(self, path: RecommendationPath) -> str:
        """Render a path as a human-readable explanation string."""
        self._require_fitted()
        parts = [str(self.graph.entities.get(path.user_entity))]
        for relation, entity in path.hops:
            parts.append(f"--{relation.value}--> {self.graph.entities.get(entity)}")
        return " ".join(parts)
