"""The unified run configuration: one typed object for the whole stack.

Every entry point used to hand-wire its own ``CADRLConfig`` + dataset + split
+ ``ServingConfig`` combination.  :class:`RunConfig` gathers them into a single
declarative description of a run that

* round-trips through JSON (``to_json`` / ``from_json``), so runs can be
  checked into configs, shipped to workers, and reproduced later;
* exposes a stable content :meth:`~RunConfig.fingerprint`, plus one
  fingerprint *per pipeline stage* (:meth:`~RunConfig.stage_fingerprints`)
  chained through the stage DAG — the cache keys of the
  :class:`~repro.pipeline.artifacts.ArtifactStore`.

``RunConfig`` reuses the existing stage dataclasses rather than duplicating
their fields: ``model`` is a full :class:`repro.darl.CADRLConfig` (which nests
the TransE/CGGNN/DARL/inference configurations) and ``serving`` is a
:class:`repro.serving.ServingConfig`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..canonical import canonical_sha256
from ..cluster.config import ClusterConfig
from ..darl import CADRLConfig
from ..serving import ServingConfig

#: Bump when an on-disk artifact format or a stage algorithm changes in a way
#: that invalidates previously persisted artifacts.
PIPELINE_VERSION = 1

#: Stage names in dependency order (each stage depends on the previous ones it
#: names in STAGE_DEPENDENCIES).
STAGE_NAMES = ("data", "kg", "embed", "cggnn", "train", "eval", "serve-check")

STAGE_DEPENDENCIES: Dict[str, tuple] = {
    "data": (),
    "kg": ("data",),
    "embed": ("kg",),
    "cggnn": ("embed",),
    "train": ("cggnn",),
    "eval": ("train",),
    "serve-check": ("train",),
}


@dataclass
class DataConfig:
    """Which dataset to generate and how to split it.

    ``dataset_seed=None`` keeps the preset's canonical RNG stream; an explicit
    seed derives a new deterministic stream per preset (see
    :func:`repro.data.load_dataset`).
    """

    dataset: str = "beauty"
    scale: float = 1.0
    dataset_seed: Optional[int] = None
    split_seed: int = 0
    train_fraction: float = 0.7

    def validate(self) -> None:
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError("train_fraction must lie strictly between 0 and 1")
        if self.scale <= 0:
            raise ValueError("scale must be positive")


@dataclass
class EvalConfig:
    """Knobs of the ``eval`` stage (protocol of Section V-A)."""

    top_k: int = 10
    max_eval_users: Optional[int] = None

    def validate(self) -> None:
        if self.top_k <= 0:
            raise ValueError("top_k must be positive")
        if self.max_eval_users is not None and self.max_eval_users <= 0:
            raise ValueError("max_eval_users must be positive when set")


# --------------------------------------------------------------------------- #
# generic dataclass <-> plain-dict conversion
# --------------------------------------------------------------------------- #
def config_to_dict(config: Any) -> Dict[str, Any]:
    """Recursively convert a (nested) config dataclass to JSON-safe dicts."""
    return dataclasses.asdict(config)


@functools.lru_cache(maxsize=None)
def _field_types(cls: type) -> Dict[str, Any]:
    """Field name → resolved type of a config dataclass, resolved once per class
    (``typing.get_type_hints`` evaluates every string annotation anew)."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def config_from_dict(cls: type, data: Dict[str, Any]) -> Any:
    """Rebuild a config dataclass (recursively) from :func:`config_to_dict` output.

    Unknown keys raise ``ValueError`` so typos in hand-written JSON configs
    fail loudly instead of silently falling back to defaults.
    """
    field_types = _field_types(cls)
    unknown = set(data) - set(field_types)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    kwargs: Dict[str, Any] = {}
    for name, value in data.items():
        target = field_types[name]
        if dataclasses.is_dataclass(target) and isinstance(value, dict):
            kwargs[name] = config_from_dict(target, value)
        elif typing.get_origin(target) is tuple and isinstance(value, list):
            kwargs[name] = tuple(value)
        else:
            kwargs[name] = value
    return cls(**kwargs)


def _model_from_dict(payload: Dict[str, Any]) -> CADRLConfig:
    """Rebuild a :class:`CADRLConfig` so the round-trip is *verbatim*.

    ``CADRLConfig.__post_init__`` re-propagates ``embedding_dim``/``seed``
    into every nested stage config on construction, which would silently
    clobber persisted nested overrides (e.g. ``transe.seed``).  Re-assigning
    the nested sections after construction (plain attribute writes do not
    trigger ``__post_init__``) restores exactly what the JSON says.
    """
    model = config_from_dict(CADRLConfig, payload)
    field_types = _field_types(CADRLConfig)
    for name, value in payload.items():
        target = field_types[name]
        if dataclasses.is_dataclass(target) and isinstance(value, dict):
            setattr(model, name, config_from_dict(target, value))
    return model


@dataclass
class RunConfig:
    """One declarative description of a full CADRL run.

    Fields
    ------
    data:
        Dataset preset name, scale multiplier, generation seed and the 70/30
        split seed (:class:`DataConfig`).
    model:
        The complete model stack configuration — a
        :class:`repro.darl.CADRLConfig`, which nests ``transe``, ``cggnn``,
        ``cggnn_training``, ``darl`` and ``inference``.  ``model.seed`` and
        ``model.embedding_dim`` are propagated into every nested stage by
        ``CADRLConfig.__post_init__``.
    serving:
        Operational knobs of the serving facade
        (:class:`repro.serving.ServingConfig`) used by the ``serve-check``
        stage and :meth:`PipelineResult.service`.
    cluster:
        The serving topology (:class:`repro.cluster.ClusterConfig`): shard
        count, replication factor, ring seed, admission bounds and boot-time
        failure injection.  The default is a single unreplicated shard, i.e.
        the plain :class:`~repro.serving.RecommendationService`; with
        ``num_shards > 1`` the ``serve-check`` stage and
        :meth:`PipelineResult.service` boot a
        :class:`repro.cluster.ClusterService` instead.
    eval:
        Ranking cutoff and the optional evaluated-user cap
        (:class:`EvalConfig`).
    """

    data: DataConfig = field(default_factory=DataConfig)
    model: CADRLConfig = field(default_factory=CADRLConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_profile(cls, profile: str = "smoke", dataset: str = "beauty",
                     seed: int = 0) -> "RunConfig":
        """The two canonical configurations used across the repository.

        ``"smoke"`` mirrors ``ExperimentSetting.from_profile("smoke")`` (0.4×
        dataset scale, 3 DARL epochs, 30 evaluated users); ``"paper"`` the
        full-scale counterpart.
        """
        if profile not in ("smoke", "paper"):
            raise ValueError(f"unknown profile {profile!r}; choose 'smoke' or 'paper'")
        model = CADRLConfig.fast(embedding_dim=32, seed=seed)
        if profile == "smoke":
            model.darl.epochs = 3
            return cls(data=DataConfig(dataset=dataset, scale=0.4, split_seed=seed),
                       model=model,
                       eval=EvalConfig(max_eval_users=30))
        model.darl.epochs = 10
        return cls(data=DataConfig(dataset=dataset, scale=1.0, split_seed=seed),
                   model=model)

    def validate(self) -> None:
        self.data.validate()
        self.eval.validate()
        self.serving.validate()
        self.cluster.validate()

    # ------------------------------------------------------------------ #
    # JSON round-trip
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "pipeline_version": PIPELINE_VERSION,
            "data": config_to_dict(self.data),
            "model": config_to_dict(self.model),
            "serving": config_to_dict(self.serving),
            "cluster": config_to_dict(self.cluster),
            "eval": config_to_dict(self.eval),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunConfig":
        payload = dict(data)
        payload.pop("pipeline_version", None)
        unknown = set(payload) - {"data", "model", "serving", "cluster", "eval"}
        if unknown:
            raise ValueError(f"unknown RunConfig sections: {sorted(unknown)}")
        return cls(
            data=config_from_dict(DataConfig, payload.get("data", {})),
            model=_model_from_dict(payload.get("model", {})),
            serving=config_from_dict(ServingConfig, payload.get("serving", {})),
            cluster=config_from_dict(ClusterConfig, payload.get("cluster", {})),
            eval=config_from_dict(EvalConfig, payload.get("eval", {})),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunConfig":
        return cls.from_json(Path(path).read_text())

    # ------------------------------------------------------------------ #
    # fingerprints
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Content hash of the whole configuration (stable across processes)."""
        return canonical_sha256(self.to_dict())

    def stage_fingerprints(self) -> Dict[str, str]:
        """One cache key per stage, chained through the stage DAG.

        A stage's fingerprint covers exactly the configuration it reads plus
        the fingerprints of its dependencies, so editing (say) the DARL epoch
        count invalidates ``train``/``eval``/``serve-check`` but leaves the
        persisted dataset, TransE table and CGGNN representations reusable.
        """
        model = self.model
        own_inputs: Dict[str, Dict[str, Any]] = {
            "data": {"data": config_to_dict(self.data)},
            "kg": {},
            "embed": {"transe": config_to_dict(model.transe)},
            "cggnn": {"cggnn": config_to_dict(model.cggnn),
                      "cggnn_training": config_to_dict(model.cggnn_training),
                      "use_cggnn": model.use_cggnn},
            "train": {"darl": config_to_dict(model.darl)},
            "eval": {"eval": config_to_dict(self.eval),
                     "inference": config_to_dict(model.inference)},
            "serve-check": {"serving": config_to_dict(self.serving),
                            "cluster": config_to_dict(self.cluster),
                            "inference": config_to_dict(model.inference)},
        }
        fingerprints: Dict[str, str] = {}
        for name in STAGE_NAMES:
            payload = {
                "stage": name,
                "pipeline_version": PIPELINE_VERSION,
                "inputs": own_inputs[name],
                "upstream": [fingerprints[dep] for dep in STAGE_DEPENDENCIES[name]],
            }
            fingerprints[name] = canonical_sha256(payload)
        return fingerprints
