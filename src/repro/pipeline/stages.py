"""The pipeline stages: one unit of work each, with persist/restore symmetry.

Each :class:`Stage` implements

* ``run(context)``    — compute the stage output from upstream context;
* ``save(context)``   — persist the output into the context's artifact store;
* ``load(context)``   — restore the output from the store without recomputing.

Stages communicate exclusively through the :class:`PipelineContext`, so the
:class:`~repro.pipeline.pipeline.Pipeline` can swap a ``run`` for a ``load``
whenever the artifact store already holds the stage's output under the current
fingerprint, or for a ``recall`` of the context fields named by ``outputs``
when an in-memory :class:`~repro.pipeline.pipeline.StageMemo` does.

These stages are the only code that trains the model: ``CADRL.fit`` runs the
``kg`` → ``embed`` → ``cggnn`` → ``train`` stage objects on a context seeded
with the caller's dataset and split.

The stage set mirrors the paper's system diagram: ``data`` → ``kg`` →
``embed`` (TransE) → ``cggnn`` → ``train`` (DARL) → ``eval`` /
``serve-check``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


from ..cggnn import CGGNN, Representations, train_cggnn
from ..darl import CADRL, PolicyConfig, SharedPolicyNetworks
from ..darl.trainer import DARLTrainer, EpochStats
from ..data import load_dataset, split_interactions
from ..data.io import load_dataset_from_directory, save_dataset
from ..data.schema import Interaction, InteractionDataset, TrainTestSplit
from ..data.splits import test_user_items, train_user_items
from ..embeddings import TransEModel, train_transe
from ..eval import evaluate_recommender
from ..kg import build_knowledge_graph
from .artifacts import ArtifactStore
from .config import RunConfig
from .errors import PipelineError


@dataclass
class PipelineContext:
    """Mutable blackboard shared by the stages of one pipeline run."""

    config: RunConfig
    store: Optional[ArtifactStore] = None
    dataset: Optional[InteractionDataset] = None
    split: Optional[TrainTestSplit] = None
    graph: Any = None
    category_graph: Any = None
    builder: Any = None
    transe: Optional[TransEModel] = None
    transe_losses: List[float] = field(default_factory=list)
    representations: Optional[Representations] = None
    cggnn_losses: List[float] = field(default_factory=list)
    policy: Optional[SharedPolicyNetworks] = None
    training_history: List[EpochStats] = field(default_factory=list)
    cadrl: Optional[CADRL] = None
    eval_metrics: Optional[Dict[str, Any]] = None
    serve_report: Optional[Dict[str, Any]] = None

    def require(self, *names: str) -> None:
        missing = [name for name in names if getattr(self, name) is None]
        if missing:
            raise RuntimeError(f"pipeline context missing {missing}; "
                               "upstream stages did not run")


class Stage:
    """Base class: a named unit of work with explicit dependencies."""

    name: str = ""
    requires: tuple = ()
    #: The context fields the stage computes (what a memo entry holds).
    outputs: tuple = ()

    def run(self, context: PipelineContext) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def recall(self, context: PipelineContext, values: tuple) -> None:
        """Restore the stage's ``outputs`` from a memo entry without recomputing."""
        for name, value in zip(self.outputs, values):
            setattr(context, name, value)

    def save(self, context: PipelineContext) -> Dict[str, Any]:
        """Persist outputs; returns manifest metadata.  No-op by default."""
        return {}

    def load(self, context: PipelineContext) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def loadable(self, store: ArtifactStore) -> bool:
        """Whether the stage's files are actually present (manifest aside)."""
        return True


class DataStage(Stage):
    """Generate (or restore) the dataset and its 70/30 per-user split."""

    name = "data"
    outputs = ("dataset", "split")

    def run(self, context: PipelineContext) -> None:
        data = context.config.data
        context.dataset = load_dataset(data.dataset, scale=data.scale,
                                       seed=data.dataset_seed)
        context.split = split_interactions(context.dataset,
                                           train_fraction=data.train_fraction,
                                           seed=data.split_seed)

    def save(self, context: PipelineContext) -> Dict[str, Any]:
        store = context.store
        save_dataset(context.dataset, store.stage_dir(self.name) / "dataset")
        store.save_json(self.name, "split.json", {
            "train": [_interaction_to_list(i) for i in context.split.train],
            "test": [_interaction_to_list(i) for i in context.split.test],
        })
        return {"users": context.dataset.num_users,
                "items": context.dataset.num_items,
                "interactions": context.dataset.num_interactions,
                "train": len(context.split.train),
                "test": len(context.split.test)}

    def load(self, context: PipelineContext) -> None:
        store = context.store
        context.dataset = load_dataset_from_directory(
            store.stage_dir(self.name) / "dataset")
        payload = store.load_json(self.name, "split.json")
        # The split reuses the dataset's (frozen) records, as the split a run
        # makes does; a row the dataset lacks gets a record of its own.
        records = {(record.user_id, record.item_id, record.mentioned_feature_ids): record
                   for record in context.dataset.interactions}

        def record_of(row: List[Any]) -> Interaction:
            return (records.get((row[0], row[1], tuple(row[2])))
                    or _interaction_from_list(row))

        context.split = TrainTestSplit(train=list(map(record_of, payload["train"])),
                                       test=list(map(record_of, payload["test"])))

    def loadable(self, store: ArtifactStore) -> bool:
        return ((store.stage_dir(self.name) / "dataset" / "meta.json").exists()
                and store.has_file(self.name, "split.json"))


class KGStage(Stage):
    """Build the knowledge graph and category graph from the training split.

    The graph is a pure function of the ``data`` stage, so only its
    statistics are persisted (for bookkeeping and the manifest) and ``load``
    rebuilds it from the restored dataset.  That rebuild is on every restore
    path (serving boot, scale-up, failover), so :class:`repro.kg.KGBuilder`
    inserts the whole edge table at once
    (:meth:`repro.kg.KnowledgeGraph.add_triplets`).
    """

    name = "kg"
    requires = ("data",)
    outputs = ("graph", "category_graph", "builder")

    def run(self, context: PipelineContext) -> None:
        context.require("dataset", "split")
        context.graph, context.category_graph, context.builder = \
            build_knowledge_graph(context.dataset, context.split.train)

    def save(self, context: PipelineContext) -> Dict[str, Any]:
        stats = {key: value for key, value in context.graph.statistics().items()}
        context.store.save_json(self.name, "statistics.json", stats)
        return stats

    def load(self, context: PipelineContext) -> None:
        self.run(context)


class EmbedStage(Stage):
    """TransE pre-training of entity/relation embeddings (Section IV-B.1)."""

    name = "embed"
    requires = ("kg",)
    outputs = ("transe", "transe_losses")

    def run(self, context: PipelineContext) -> None:
        context.require("graph")
        context.transe, context.transe_losses = train_transe(
            context.graph, context.config.model.transe)

    def save(self, context: PipelineContext) -> Dict[str, Any]:
        context.store.save_arrays(self.name, "transe.npz", {
            "entity": context.transe.entity_embeddings,
            "relation": context.transe.relation_embeddings,
        })
        context.store.save_json(self.name, "losses.json", context.transe_losses)
        final = context.transe_losses[-1] if context.transe_losses else None
        return {"epochs": len(context.transe_losses), "final_loss": final}

    def load(self, context: PipelineContext) -> None:
        context.require("graph")
        arrays = context.store.load_arrays(self.name, "transe.npz")
        if arrays["entity"].shape[0] != context.graph.num_entities:
            raise ValueError(
                f"persisted TransE table has {arrays['entity'].shape[0]} entities "
                f"but the graph has {context.graph.num_entities}; the artifact "
                "directory belongs to a different dataset")
        context.transe = TransEModel.from_arrays(arrays["entity"], arrays["relation"],
                                                 context.config.model.transe)
        context.transe_losses = list(context.store.load_json(self.name, "losses.json"))

    def loadable(self, store: ArtifactStore) -> bool:
        return store.has_file(self.name, "transe.npz")


class CGGNNStage(Stage):
    """Refine item representations with the CGGNN (or export static TransE)."""

    name = "cggnn"
    requires = ("embed",)
    outputs = ("representations", "cggnn_losses")

    def run(self, context: PipelineContext) -> None:
        context.require("graph", "transe")
        model_config = context.config.model
        cggnn = CGGNN(context.graph, context.transe, model_config.cggnn)
        if model_config.use_cggnn:
            context.representations, context.cggnn_losses = train_cggnn(
                context.graph, cggnn, model_config.cggnn_training)
        else:
            context.representations = cggnn.static_representations()
            context.cggnn_losses = []

    def save(self, context: PipelineContext) -> Dict[str, Any]:
        representations = context.representations
        context.store.save_arrays(self.name, "representations.npz", {
            "entity": representations.entity,
            "relation": representations.relation,
            "category": representations.category,
        })
        context.store.save_json(self.name, "losses.json", context.cggnn_losses)
        return {"epochs": len(context.cggnn_losses),
                "dim": representations.dim,
                "use_cggnn": context.config.model.use_cggnn}

    def load(self, context: PipelineContext) -> None:
        arrays = context.store.load_arrays(self.name, "representations.npz")
        context.representations = Representations(entity=arrays["entity"],
                                                  relation=arrays["relation"],
                                                  category=arrays["category"])
        context.cggnn_losses = list(context.store.load_json(self.name, "losses.json"))

    def loadable(self, store: ArtifactStore) -> bool:
        return store.has_file(self.name, "representations.npz")


class TrainStage(Stage):
    """DARL training of the shared dual-agent policy (Section IV-C).

    After ``run``, ``load`` *or* ``recall``, the stage assembles the
    :class:`CADRL` facade (a fresh :class:`~repro.darl.inference.PathRecommender`
    with cold caches over the components), so downstream stages and callers
    never distinguish a trained stack from a reloaded or memoised one.
    """

    name = "train"
    requires = ("cggnn",)
    outputs = ("policy", "training_history")

    def run(self, context: PipelineContext) -> None:
        context.require("graph", "category_graph", "representations", "builder")
        model_config = context.config.model
        trainer = DARLTrainer(context.graph, context.category_graph,
                              context.representations, model_config.darl)
        user_items = entity_train_items(context.split, context.builder)
        context.training_history = trainer.train(user_items)
        context.policy = trainer.policy
        self._assemble(context)

    def save(self, context: PipelineContext) -> Dict[str, Any]:
        context.store.save_arrays(self.name, "policy.npz",
                                  context.policy.state_dict())
        context.store.save_json(self.name, "history.json", [
            {"epoch": s.epoch, "mean_entity_reward": s.mean_entity_reward,
             "mean_category_reward": s.mean_category_reward,
             "hit_rate": s.hit_rate, "policy_loss": s.policy_loss}
            for s in context.training_history
        ])
        final_hit = (context.training_history[-1].hit_rate
                     if context.training_history else None)
        return {"epochs": len(context.training_history),
                "parameters": context.policy.num_parameters(),
                "final_hit_rate": final_hit}

    def load(self, context: PipelineContext) -> None:
        context.require("representations")
        model_config = context.config.model
        policy_config = PolicyConfig(
            embedding_dim=context.representations.dim,
            hidden_size=model_config.darl.hidden_size,
            mlp_hidden=model_config.darl.mlp_hidden,
            share_history=model_config.darl.share_history,
            seed=model_config.darl.seed,
        )
        policy = SharedPolicyNetworks(policy_config)
        policy.load_state_dict(context.store.load_arrays(self.name, "policy.npz"))
        context.policy = policy
        history = context.store.load_json(self.name, "history.json")
        context.training_history = [EpochStats(**entry) for entry in history]
        self._assemble(context)

    def loadable(self, store: ArtifactStore) -> bool:
        return store.has_file(self.name, "policy.npz")

    def recall(self, context: PipelineContext, values: tuple) -> None:
        super().recall(context, values)
        self._assemble(context)

    @staticmethod
    def _assemble(context: PipelineContext) -> None:
        """Hand the components to the facade ``CADRL.fit`` seeded, else a new one."""
        context.cadrl = (context.cadrl or CADRL(context.config.model)).adopt(context)


class EvalStage(Stage):
    """Held-out ranking metrics under the paper's protocol (NDCG/Recall/HR/P)."""

    name = "eval"
    requires = ("train",)
    outputs = ("eval_metrics",)

    def run(self, context: PipelineContext) -> None:
        context.require("cadrl", "split")
        eval_config = context.config.eval
        users = None
        if eval_config.max_eval_users is not None:
            users = sorted(test_user_items(context.split))[:eval_config.max_eval_users]
        result = evaluate_recommender(context.cadrl, context.split,
                                      top_k=eval_config.top_k, users=users)
        context.eval_metrics = {"metrics": result.metrics,
                                "num_users": result.num_users,
                                "top_k": eval_config.top_k}

    def save(self, context: PipelineContext) -> Dict[str, Any]:
        context.store.save_json(self.name, "metrics.json", context.eval_metrics)
        return dict(context.eval_metrics["metrics"])

    def load(self, context: PipelineContext) -> None:
        context.eval_metrics = context.store.load_json(self.name, "metrics.json")

    def loadable(self, store: ArtifactStore) -> bool:
        return store.has_file(self.name, "metrics.json")


class ServeCheckStage(Stage):
    """Boot the serving facade over the trained stack and verify it end to end.

    The check serves a sample of warm users twice — the repeat must be a cache
    hit with an identical payload — and replays every full-search answer
    against a direct ``PathRecommender`` search (the same exactness contract
    as :class:`repro.simulate.FullSearchOracle`).

    The facade is booted per the run's cluster spec by :func:`boot_service`
    (a cluster includes any boot-time failure injection); the check itself is
    identical because the cluster exposes the same surface.
    """

    name = "serve-check"
    requires = ("train",)
    outputs = ("serve_report",)
    sample_users = 5

    def run(self, context: PipelineContext) -> None:
        context.require("cadrl")
        cadrl = context.cadrl
        cluster_config = context.config.cluster
        service = boot_service(cadrl, context.transe, context.config)
        train_items = entity_train_items(context.split, context.builder)
        users = sorted(train_items)[: self.sample_users]
        top_k = context.config.serving.default_top_k
        requests = service.build_requests(users, top_k=top_k)

        mismatches: List[str] = []
        first_pass = [service.serve(request) for request in requests]
        second_pass = [service.serve(request) for request in requests]
        for request, first, second in zip(requests, first_pass, second_pass):
            if not second.cache_hit:
                mismatches.append(f"user {request.user_entity}: repeat was not a cache hit")
            if first.items != second.items:
                mismatches.append(f"user {request.user_entity}: cached payload diverged")
            expected = [path.item_entity for path in cadrl.recommender.recommend(
                request.user_entity, exclude_items=set(request.exclude_items),
                top_k=request.top_k)]
            if first.items != expected:
                mismatches.append(
                    f"user {request.user_entity}: served {first.items} != "
                    f"direct search {expected}")
        context.serve_report = {
            "checked_users": len(users),
            "top_k": top_k,
            "num_shards": cluster_config.num_shards,
            "replication_factor": cluster_config.replication_factor,
            "mismatches": mismatches,
            "ok": not mismatches,
            "telemetry": service.telemetry_snapshot(),
        }
        if mismatches:
            # Persist the failing evidence (no completion mark: the stage
            # stays incomplete, so a re-run re-checks) before aborting.
            if context.store is not None:
                context.store.save_json(self.name, "report.json",
                                        context.serve_report)
            raise PipelineError("serve-check failed: " + "; ".join(mismatches))

    def save(self, context: PipelineContext) -> Dict[str, Any]:
        context.store.save_json(self.name, "report.json", context.serve_report)
        return {"checked_users": context.serve_report["checked_users"],
                "ok": context.serve_report["ok"]}

    def load(self, context: PipelineContext) -> None:
        context.serve_report = context.store.load_json(self.name, "report.json")

    def loadable(self, store: ArtifactStore) -> bool:
        return store.has_file(self.name, "report.json")


def boot_service(cadrl: CADRL, transe: Optional[TransEModel], config: RunConfig, *,
                 serving_config=None, **kwargs):
    """The serving facade ``config``'s cluster spec asks for over a trained stack.

    A plain :class:`repro.serving.RecommendationService` for the default
    single-shard topology, a :class:`repro.cluster.ClusterService` when
    ``config.cluster.num_shards > 1``; both expose the same
    ``serve``/``serve_many`` surface.  ``serving_config`` overrides
    ``config.serving``; ``kwargs`` (clock, name, ...) go to the facade.
    """
    serving_config = serving_config or config.serving
    if config.cluster.is_clustered:
        from ..cluster import ClusterService  # deferred: keep stage imports light

        return ClusterService.from_cadrl(cadrl, transe=transe, config=config.cluster,
                                         serving_config=serving_config, **kwargs)
    from ..serving import RecommendationService

    return RecommendationService.from_cadrl(cadrl, transe=transe, config=serving_config,
                                            **kwargs)


def entity_train_items(split: TrainTestSplit, builder) -> Dict[int, List[int]]:
    """User entity → training item entities (the DARL reward targets)."""
    items_by_user = train_user_items(split)
    return {builder.user_to_entity(user): [builder.item_to_entity(item)
                                           for item in items]
            for user, items in items_by_user.items()}


def _interaction_to_list(interaction: Interaction) -> List[Any]:
    return [interaction.user_id, interaction.item_id,
            list(interaction.mentioned_feature_ids)]


def _interaction_from_list(row: List[Any]) -> Interaction:
    return Interaction(user_id=int(row[0]), item_id=int(row[1]),
                       mentioned_feature_ids=tuple(int(f) for f in row[2]))


ALL_STAGES = (DataStage, KGStage, EmbedStage, CGGNNStage, TrainStage,
              EvalStage, ServeCheckStage)
