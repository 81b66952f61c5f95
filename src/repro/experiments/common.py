"""Shared plumbing for the experiment harness.

Every experiment module builds on the same three ingredients: a dataset +
split, a "fast" CADRL configuration sized for the synthetic presets, and a
uniform way to print result tables.  The ``profile`` argument scales the
experiments: ``"smoke"`` is sized for CI/benchmarks (seconds), ``"paper"``
uses the full presets (minutes).

Every CADRL stack an experiment needs — the standard model, an ablation
variant (:data:`repro.darl.VARIANT_OVERRIDES`) or a hyper-parameter point — comes
from :func:`trained_cadrl`, which runs the :mod:`repro.pipeline` stages with one
process-wide :class:`~repro.pipeline.StageMemo`.  The memo holds each stage's
outputs under that stage's own fingerprint, so a DARL-only override reuses the
dataset, KG, TransE and CGGNN of the standard stack, and running several
tables/figures in one ``python -m repro experiments`` invocation trains each
distinct stage exactly once.  Every call still gets a fresh ``CADRL`` facade
with cold recommender caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..darl import CADRL, CADRLConfig, apply_overrides
from ..data.schema import TrainTestSplit
from ..data.synthetic import SyntheticDataset
from ..pipeline import DataConfig, EvalConfig, Pipeline, PipelineResult, RunConfig, StageMemo

PROFILES = ("smoke", "paper")


@dataclass
class ExperimentSetting:
    """Scale knobs derived from the chosen profile."""

    dataset_scale: float
    darl_epochs: int
    baseline_rl_epochs: int
    max_eval_users: Optional[int]

    @classmethod
    def from_profile(cls, profile: str) -> "ExperimentSetting":
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}; choose one of {PROFILES}")
        if profile == "smoke":
            return cls(dataset_scale=0.4, darl_epochs=3, baseline_rl_epochs=2,
                       max_eval_users=30)
        return cls(dataset_scale=1.0, darl_epochs=10, baseline_rl_epochs=6,
                   max_eval_users=None)


def prepare_dataset(name: str, setting: ExperimentSetting, seed: int = 0,
                    dataset_seed: Optional[int] = None
                    ) -> Tuple[SyntheticDataset, TrainTestSplit]:
    """A preset dataset at the profile's scale and its 70/30 split.

    The pipeline's (memoised) ``data`` stage: the same objects every stack of
    this dataset trains on.  ``seed`` controls the split; ``dataset_seed``
    (optional) threads through to :func:`repro.data.load_dataset` for
    alternate deterministic dataset draws.
    """
    config = experiment_run_config(name, setting, seed=seed)
    config.data.dataset_seed = dataset_seed
    result = Pipeline(config, memo=_STAGE_MEMO).run(until=("data",))
    return result.dataset, result.split


def cadrl_config(setting: ExperimentSetting, seed: int = 0, **overrides) -> CADRLConfig:
    """The CADRL configuration used across experiments (fast preset + profile scale).

    ``overrides`` are ``section__field`` paths (:func:`repro.darl.apply_overrides`);
    an unknown one raises ``ValueError``.
    """
    config = CADRLConfig.fast(embedding_dim=32, seed=seed)
    config.darl.epochs = setting.darl_epochs
    return apply_overrides(config, overrides)


def experiment_run_config(name: str, setting: ExperimentSetting, seed: int = 0,
                          **overrides):
    """The :class:`repro.pipeline.RunConfig` equivalent of the classic recipe
    (``prepare_dataset`` + ``cadrl_config``) for one experiment stack."""
    return RunConfig(
        data=DataConfig(dataset=name, scale=setting.dataset_scale, split_seed=seed),
        model=cadrl_config(setting, seed=seed, **overrides),
        eval=EvalConfig(max_eval_users=setting.max_eval_users),
    )


#: Stage outputs shared by every experiment stack in this process.
_STAGE_MEMO = StageMemo()


def trained_stack(name: str, setting: ExperimentSetting, seed: int = 0,
                  **overrides) -> PipelineResult:
    """The pipeline run (through ``train``) of one experiment stack.

    Stages whose fingerprint an earlier stack in this process already
    produced are restored from the stage memo instead of retrained.
    """
    config = experiment_run_config(name, setting, seed=seed, **overrides)
    return Pipeline(config, memo=_STAGE_MEMO).run(until=("train",))


def trained_cadrl(name: str, setting: ExperimentSetting, seed: int = 0,
                  **overrides) -> Tuple[SyntheticDataset, TrainTestSplit, CADRL]:
    """Dataset, split and a fitted CADRL model for one experiment stack.

    Equal to ``CADRL(cadrl_config(...)).fit(*prepare_dataset(...))`` bit for
    bit, with training de-duplicated across experiments via the stage memo.
    """
    result = trained_stack(name, setting, seed=seed, **overrides)
    return result.dataset, result.split, result.cadrl


def clear_stage_memo() -> None:
    """Drop the process-wide stage memo (tests, memory pressure)."""
    _STAGE_MEMO.clear()


def eval_users(split: TrainTestSplit, setting: ExperimentSetting) -> Optional[List[int]]:
    """Subset of users to evaluate (None = all), respecting the profile cap."""
    if setting.max_eval_users is None:
        return None
    users = sorted({interaction.user_id for interaction in split.test})
    return users[: setting.max_eval_users]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render an aligned plain-text table (the harness prints, never plots)."""
    rows = [list(map(str, row)) for row in rows]
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def metric_row(name: str, metrics: Dict[str, float]) -> List[str]:
    """One table row in the Table I column order (values already in %)."""
    return [name,
            f"{metrics['ndcg']:.3f}",
            f"{metrics['recall']:.3f}",
            f"{metrics['hit_ratio']:.3f}",
            f"{metrics['precision']:.3f}"]
