"""Unified stage-based pipeline API with artifact persistence.

This package is how the repository assembles the full CADRL stack — dataset →
KG → TransE → CGGNN → DARL → evaluation/serving — from one declarative,
JSON-round-trippable :class:`RunConfig`:

* :class:`RunConfig` — the typed configuration of a whole run (dataset
  preset/scale/seeds, the nested model configs, serving and eval knobs) with a
  stable content :meth:`~RunConfig.fingerprint` and one chained fingerprint
  per stage.
* :class:`Pipeline` — executes the stages in dependency order; stages whose
  fingerprint already exists in the :class:`ArtifactStore` are restored from
  disk instead of recomputed, or from a bounded in-memory :class:`StageMemo`.
* :class:`ArtifactStore` — the on-disk layout: every trained component is
  persisted through the existing ``state_dict`` / numpy-table machinery plus
  dataset/KG metadata, gated by an atomic manifest.
* :func:`save_pipeline` / :func:`load_pipeline` — first-class persistence of
  a trained stack; ``RecommendationService.from_artifacts`` boots a serving
  process from such a directory without running any training code.

The single CLI over this API is ``python -m repro`` (see :mod:`repro.cli`).
"""

from .artifacts import ArtifactStore, checksum_file
from .errors import ArtifactError
from .config import (
    PIPELINE_VERSION,
    STAGE_DEPENDENCIES,
    STAGE_NAMES,
    DataConfig,
    EvalConfig,
    RunConfig,
    config_from_dict,
    config_to_dict,
)
from .pipeline import (Pipeline, PipelineError, PipelineResult, StageMemo, load_pipeline,
                       save_pipeline)
from .stages import ALL_STAGES, PipelineContext, Stage

__all__ = [
    "ALL_STAGES",
    "ArtifactError",
    "ArtifactStore",
    "checksum_file",
    "DataConfig",
    "EvalConfig",
    "PIPELINE_VERSION",
    "Pipeline",
    "PipelineContext",
    "PipelineError",
    "PipelineResult",
    "RunConfig",
    "STAGE_DEPENDENCIES",
    "STAGE_NAMES",
    "Stage",
    "StageMemo",
    "config_from_dict",
    "config_to_dict",
    "load_pipeline",
    "save_pipeline",
]
