"""Warm-start refresh: a few-epoch delta retrain producing a new generation.

A :class:`GenerationBundle` freezes everything one artifact generation needs
to serve — a :class:`~repro.darl.inference.PathRecommender` (graph, category
graph, representations, policy and search settings) plus the TransE table and
the CGGNN configs a refresh retrains with — and :func:`refresh_generation`
derives generation N+1 from generation N plus the update-log slice ingested
since:

* **TransE** restarts from the prior entity/relation tables
  (``train_transe(..., initial_state=prior)``) and runs
  :attr:`RefreshConfig.transe_epochs` epochs over the *grown* triplet table —
  new entities get their seeded initialisation, everything else a warm start.
* **CGGNN** rebuilds its neighbourhood table over the new graph (the
  neighbourhoods are exactly what the deltas changed) but overlays the prior
  item/category tables (``initial_state=prior_representations``) before its
  few-epoch refresh.
* **Policy, guidance and search settings are reused** — the shared policy
  depends only on the embedding dimension, not on entity count, so generation
  N+1's recommender is :meth:`PathRecommender.like` generation N's over the
  refreshed tables.

An **empty delta is a no-op by construction**: when no log entries arrived
since the base generation, :func:`refresh_generation` returns the base bundle
*object*, so replays across a vacuous "refresh" are bit-identical.

Generations persist via :func:`save_generation` into the nested stores of
:class:`repro.pipeline.ArtifactStore` (``<root>/generations/<N>/``): the
refreshed arrays plus the delta slice that produced them, so
:func:`load_generation_result` can rebuild the generation from the base
artifacts alone — replay the deltas onto the restored base graph, then
overlay the persisted tables.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..cggnn import CGGNN, CGGNNConfig, CGGNNTrainingConfig, train_cggnn
from ..cggnn.model import Representations
from ..darl.inference import PathRecommender
from ..embeddings import TransEModel, train_transe
from ..kg.category_graph import CategoryGraph
from ..kg.graph import KnowledgeGraph
from ..pipeline.artifacts import ArtifactStore
from ..serving import RecommendationService, ServingConfig
from .log import UpdateLog

#: Stage name generation stores use for their delta slice + metadata.
LIVE_STAGE = "live"


@dataclass
class RefreshConfig:
    """How aggressive a delta refresh is."""

    transe_epochs: int = 3     # warm-started, so a few epochs suffice
    cggnn_epochs: int = 2
    seed: int = 0              # refresh RNG seed (negative sampling etc.)

    def validate(self) -> None:
        if self.transe_epochs < 0 or self.cggnn_epochs < 0:
            raise ValueError("refresh epoch counts must be non-negative")


@dataclass
class GenerationBundle:
    """One artifact generation, frozen and ready to build services from."""

    generation: int
    #: Template of this generation's serving replicas: the tables and search
    #: settings every :meth:`build_service` clones.
    recommender: PathRecommender
    transe: TransEModel
    cggnn_config: CGGNNConfig
    cggnn_training: CGGNNTrainingConfig
    #: Update-log entries ``[0, log_offset)`` are folded into these tables.
    log_offset: int = 0

    @property
    def graph(self) -> KnowledgeGraph:
        return self.recommender.graph

    @property
    def representations(self) -> Representations:
        return self.recommender.representations

    # ------------------------------------------------------------------ #
    @classmethod
    def from_cadrl(cls, model, *, transe: TransEModel,
                   cggnn_config: Optional[CGGNNConfig] = None,
                   cggnn_training: Optional[CGGNNTrainingConfig] = None,
                   generation: int = 0, log_offset: int = 0
                   ) -> "GenerationBundle":
        """Freeze a fitted :class:`repro.darl.CADRL` as generation ``generation``."""
        if model.recommender is None:
            raise RuntimeError("CADRL.fit must be called before going live")
        return cls(
            generation=generation,
            recommender=model.recommender,
            transe=transe,
            cggnn_config=cggnn_config or CGGNNConfig(
                embedding_dim=model.representations.dim),
            cggnn_training=cggnn_training or CGGNNTrainingConfig(),
            log_offset=log_offset,
        )

    @classmethod
    def from_pipeline(cls, result, *, generation: Optional[int] = None,
                      log_offset: int = 0) -> "GenerationBundle":
        """Freeze a :class:`repro.pipeline.PipelineResult` (needs ``train``)."""
        if result.cadrl is None:
            raise ValueError("pipeline result did not reach the train stage")
        if result.transe is None:
            raise ValueError("pipeline result is missing the TransE model")
        return cls.from_cadrl(
            result.cadrl, transe=result.transe,
            cggnn_config=result.config.model.cggnn,
            cggnn_training=result.config.model.cggnn_training,
            generation=(result.context.store.generation
                        if generation is None and result.context.store is not None
                        else (generation or 0)),
            log_offset=log_offset)

    # ------------------------------------------------------------------ #
    def build_service(self, *, serving_config: Optional[ServingConfig] = None,
                      clock: Callable[[], float] = time.perf_counter,
                      name: Optional[str] = None) -> RecommendationService:
        """A generation-stamped serving facade over this bundle.

        Each call serves through a fresh :meth:`PathRecommender.like` clone:
        same tables and search settings, own milestone/action caches.
        """
        return RecommendationService(
            PathRecommender.like(self.recommender), transe=self.transe,
            config=serving_config, clock=clock,
            name=name or f"live@gen{self.generation}",
            generation=self.generation)


# --------------------------------------------------------------------------- #
# the refresh itself
# --------------------------------------------------------------------------- #
def refresh_generation(base: GenerationBundle, graph: KnowledgeGraph,
                       log_offset: int,
                       config: Optional[RefreshConfig] = None
                       ) -> GenerationBundle:
    """Derive generation N+1 from ``base`` plus the grown ``graph``.

    ``graph`` must be the base graph with the update-log slice
    ``[base.log_offset, log_offset)`` applied (the live session's staging
    graph).  Returns ``base`` itself when that slice is empty — a refresh
    over no deltas must not change a single bit of serving behaviour.
    """
    if log_offset < base.log_offset:
        raise ValueError(
            f"log_offset {log_offset} precedes the base generation's "
            f"{base.log_offset}; the update log is append-only")
    if log_offset == base.log_offset:
        return base
    if graph.num_entities < base.graph.num_entities:
        raise ValueError("the refreshed graph must descend from the base graph")
    config = config or RefreshConfig()
    config.validate()

    transe_config = dataclasses.replace(
        base.transe.config, epochs=config.transe_epochs, seed=config.seed)
    transe, _ = train_transe(graph, transe_config, initial_state=base.transe)

    category_graph = CategoryGraph.from_knowledge_graph(graph)

    cggnn = CGGNN(graph, transe, base.cggnn_config)
    training = dataclasses.replace(
        base.cggnn_training, epochs=config.cggnn_epochs, seed=config.seed)
    representations, _ = train_cggnn(graph, cggnn, training,
                                     initial_state=base.representations)

    return dataclasses.replace(
        base,
        generation=base.generation + 1,
        recommender=PathRecommender.like(
            base.recommender, graph=graph, category_graph=category_graph,
            representations=representations),
        transe=transe,
        log_offset=log_offset)


# --------------------------------------------------------------------------- #
# persistence: nested generation stores
# --------------------------------------------------------------------------- #
def save_generation(root_store: ArtifactStore, bundle: GenerationBundle,
                    log: UpdateLog) -> ArtifactStore:
    """Persist ``bundle`` under ``<root>/generations/<N>/``.

    Writes the refreshed arrays (``embed/transe.npz``,
    ``cggnn/representations.npz``) plus the full delta slice that produced
    them (``live/deltas.json``), so the generation is reconstructible from
    the base artifacts alone.  Returns the nested store.
    """
    if bundle.generation <= 0:
        raise ValueError("generation 0 is the root store; nothing to save")
    store = root_store.generation_store(bundle.generation)
    manifest = store.read_manifest()
    manifest["generation"] = bundle.generation
    store._write_manifest(manifest)

    fingerprint = f"live-generation-{bundle.generation}"
    store.begin("embed")
    store.save_arrays("embed", "transe.npz", {
        "entity": bundle.transe.entity_embeddings,
        "relation": bundle.transe.relation_embeddings,
    })
    store.complete("embed", fingerprint,
                   {"num_entities": bundle.transe.num_entities})
    store.begin("cggnn")
    store.save_arrays("cggnn", "representations.npz", {
        "entity": bundle.representations.entity,
        "relation": bundle.representations.relation,
        "category": bundle.representations.category,
    })
    store.complete("cggnn", fingerprint,
                   {"dim": bundle.representations.dim})
    store.begin(LIVE_STAGE)
    deltas = log.to_dicts(0, bundle.log_offset)
    store.save_json(LIVE_STAGE, "deltas.json", deltas)
    store.save_json(LIVE_STAGE, "meta.json", {
        "generation": bundle.generation,
        "log_offset": bundle.log_offset,
        "log_signature": log.signature(0, bundle.log_offset),
        "num_entities": bundle.graph.num_entities,
        "num_triplets": bundle.graph.num_triplets,
    })
    store.complete(LIVE_STAGE, fingerprint, {"log_offset": bundle.log_offset})
    return store


def load_generation_result(root_store: ArtifactStore, store: ArtifactStore,
                           until: Optional[Sequence[str]] = None,
                           config=None):
    """Rebuild one persisted generation as a :class:`PipelineResult`.

    Loads the base (generation-0) pipeline, replays the generation's delta
    slice onto its freshly-restored graph, then overlays the persisted
    TransE/representation tables and reassembles the CADRL facade — so
    ``load_pipeline(path, generation=N)`` hands back the same result shape
    as any other load, just with generation-N tables.
    """
    from ..pipeline.pipeline import load_pipeline
    from ..pipeline.stages import TrainStage

    targets = set(until or ("train",))
    targets.add("train")  # the facade rebuild below needs the policy
    result = load_pipeline(root_store.root, until=sorted(targets),
                           config=config, generation=0)
    if not store.has_file(LIVE_STAGE, "deltas.json"):
        raise FileNotFoundError(
            f"generation store {store.root} has no {LIVE_STAGE}/deltas.json; "
            "was save_generation interrupted?")
    log = UpdateLog.from_dicts(store.load_json(LIVE_STAGE, "deltas.json"))
    context = result.context
    log.apply(context.graph)  # freshly loaded graph, private to this result
    context.category_graph = CategoryGraph.from_knowledge_graph(context.graph)

    transe_arrays = store.load_arrays("embed", "transe.npz")
    context.transe = TransEModel.from_arrays(
        transe_arrays["entity"], transe_arrays["relation"],
        result.config.model.transe)
    if context.transe.num_entities != context.graph.num_entities:
        raise ValueError(
            f"generation store {store.root} holds a TransE table for "
            f"{context.transe.num_entities} entities but replaying its deltas "
            f"produced {context.graph.num_entities} — store is inconsistent")
    rep_arrays = store.load_arrays("cggnn", "representations.npz")
    context.representations = Representations(
        entity=rep_arrays["entity"], relation=rep_arrays["relation"],
        category=rep_arrays["category"])
    TrainStage._assemble(context)
    return result
