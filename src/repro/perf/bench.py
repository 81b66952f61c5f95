"""Seeded micro/macro benchmarks with a JSON trail and a regression gate.

``python -m repro bench`` runs these workloads on a pipeline-built stack:

* **TransE pre-training** — the vectorised trainer against the frozen scalar
  reference (:mod:`repro.perf.reference`), reported as epochs/s;
* **DARL training** — one epoch of the stack's own DARL configuration,
  the fused numpy episode against the autograd reference
  (:class:`repro.perf.reference.ReferenceDARLTrainer`), reported as
  episodes/s; gated on the speedup, and checked for bit-identical weights;
* **CGGNN training** — the stack's own CGGNN configuration for
  ``CGGNN_BENCH_EPOCHS`` epochs, the fused numpy step against the autograd
  reference (:class:`repro.perf.reference.ReferenceCGGNNTrainer`), reported
  as steps/s; gated on the speedup, and checked for bit-identical weights;
* **Beam-search serving QPS** — ``serve_many`` bursts through a
  :class:`repro.serving.RecommendationService`, cold (all caches empty) and
  warm (milestone/action caches hot, result cache cleared so the search
  actually runs), for both the vectorised and the scalar recommender;
* **Incremental CSR patching** — refreshing the compiled adjacency after a
  small streaming delta burst, delta patch
  (:func:`repro.kg.patch_adjacency`) vs full recompile — the live-update
  hot path; gated on the speedup ratio;
* **Fault-path overhead** — the same fault-free virtual-time replay through
  a bare cluster vs one wearing circuit breakers plus an empty-plan
  :class:`repro.faults.FaultInjector`; reports the armored/bare overhead
  ratio and checks the answers stayed bit-identical (trend, not gated).

Both sides of every pair run interleaved in the same process on the same
data, and the gateable numbers are the *speedup ratios* — machine-independent
by construction, unlike raw QPS.  Results land in ``BENCH_<timestamp>.json``;
:func:`compare_with_baseline` flags any gated ratio that fell more than the
threshold below the committed baseline.  The document's ``meta`` block
fingerprints the stack it measured, BLAS library and thread count included;
``python -m repro bench`` pins BLAS to one thread
(:func:`repro.blas.set_blas_threads`) before it builds anything, since a
two-thread OpenBLAS made the serving ratios bimodal from run to run.
"""

from __future__ import annotations

import json
import math
import platform
import resource
import statistics
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..blas import blas_fingerprint
from ..cggnn import CGGNN, CGGNNTrainer
from ..darl.model import CADRLConfig
from ..darl.trainer import DARLTrainer
from ..embeddings import TransEConfig, train_transe
from ..kg.entities import EntityType
from ..pipeline import Pipeline, PipelineResult, RunConfig
from ..serving import RecommendationService, ServingConfig
from .reference import (
    ReferenceCGGNNTrainer,
    ReferenceDARLTrainer,
    ScalarPathRecommender,
    train_transe_reference,
)

#: Metrics (dotted paths into the ``metrics`` dict) guarded by the regression
#: gate.  Ratios only, since absolute epochs/s and QPS depend on the machine,
#: plus the fused DARL and CGGNN trainers' 0/1 ``identical_weights`` (baseline
#: 1.0, so any divergence from the autograd reference fails the gate).
GATED_METRICS = ("transe.speedup", "darl_train.speedup", "darl_train.identical_weights",
                 "cggnn_train.speedup", "cggnn_train.identical_weights",
                 "beam_cold.speedup", "beam_warm.speedup", "csr_patch.speedup")

#: Epochs per CGGNN training run in :func:`bench_cggnn_train` (10 optimiser
#: steps on the smoke stack, 25 on medium).
CGGNN_BENCH_EPOCHS = 5

#: The cluster and trace :func:`bench_fault_overhead` replays: 4 shards × 2
#: replicas serving 400 seeded requests.
FAULT_BENCH_SHARDS = 4
FAULT_BENCH_REPLICAS = 2
FAULT_BENCH_REQUESTS = 400


@dataclass
class BenchProfile:
    """One reproducible benchmark configuration."""

    name: str
    dataset: str = "beauty"
    scale: float = 1.0
    seed: int = 0
    embedding_dim: int = 32      # model stack dimension (smoke-config default)
    beam_width: int = 12         # smoke-config search width
    max_entity_actions: int = 25
    darl_epochs: int = 1         # stack build only needs *a* trained policy
    transe_dim: int = 32         # TransE microbench dimension
    transe_epochs: int = 2       # per timed run; epoch time = wall / epochs
    beam_users: int = 60
    beam_top_k: int = 10
    rollout_users: int = 20      # users (one episode each) per DARL training run
    patch_deltas: int = 10       # streaming-burst size for the CSR patch bench
    repeats: int = 5             # interleaved repetitions, median taken

    def validate(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if min(self.transe_epochs, self.beam_users, self.repeats,
               self.rollout_users, self.beam_top_k, self.beam_width,
               self.max_entity_actions, self.patch_deltas) <= 0:
            raise ValueError("benchmark sizes must be positive")

    def run_config(self) -> RunConfig:
        """The pipeline configuration that builds this profile's stack."""
        config = RunConfig.from_profile("smoke", dataset=self.dataset,
                                        seed=self.seed)
        config.data.scale = self.scale
        config.model = CADRLConfig.fast(embedding_dim=self.embedding_dim,
                                        seed=self.seed)
        config.model.darl.epochs = self.darl_epochs
        config.model.darl.max_entity_actions = self.max_entity_actions
        config.model.inference.beam_width = self.beam_width
        return config


PROFILES: Dict[str, BenchProfile] = {
    # smoke: the CI-sized preset — the exact smoke-pipeline stack, tiny data.
    "smoke": BenchProfile(name="smoke", scale=0.4, beam_users=20,
                          rollout_users=40, repeats=3),
    # medium: paper-sized search hyper-parameters (beam 20, |A^e| <= 50,
    # L = 6) on the full synthetic Beauty preset.
    "medium": BenchProfile(name="medium", scale=1.0, embedding_dim=64,
                           beam_width=20, max_entity_actions=50,
                           beam_users=60, rollout_users=40, repeats=5),
}


def _median_ab(first: Callable[[], None], second: Callable[[], None],
               repeats: int) -> Tuple[float, float]:
    """Median wall time of two callables, interleaved to cancel drift."""
    first()
    second()
    times_first: List[float] = []
    times_second: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        first()
        times_first.append(time.perf_counter() - start)
        start = time.perf_counter()
        second()
        times_second.append(time.perf_counter() - start)
    return statistics.median(times_first), statistics.median(times_second)


# --------------------------------------------------------------------------- #
# individual benchmarks
# --------------------------------------------------------------------------- #
def bench_transe(result: PipelineResult, profile: BenchProfile) -> Dict[str, float]:
    """Vectorised vs reference TransE training, epochs per second."""
    graph = result.graph
    graph.adjacency()  # compiled once; not part of the timed region
    config = TransEConfig(embedding_dim=profile.transe_dim,
                          epochs=profile.transe_epochs, seed=profile.seed)
    vectorised, reference = _median_ab(
        lambda: train_transe(graph, config),
        lambda: train_transe_reference(graph, config),
        profile.repeats)
    return {
        "vectorised_epochs_per_s": profile.transe_epochs / vectorised,
        "reference_epochs_per_s": profile.transe_epochs / reference,
        "vectorised_epoch_ms": vectorised / profile.transe_epochs * 1000.0,
        "reference_epoch_ms": reference / profile.transe_epochs * 1000.0,
        "speedup": reference / vectorised,
    }


def bench_darl_train(result: PipelineResult, profile: BenchProfile) -> Dict[str, float]:
    """Fused vs autograd-reference DARL training, episodes per second.

    Both sides train one epoch of the stack's DARL configuration over the
    same users from the same seed, so they must end with bit-identical
    weights; ``identical_weights`` records whether they did.
    """
    from ..pipeline.stages import entity_train_items

    positives = entity_train_items(result.split, result.context.builder)
    users = {user: items for user, items in positives.items() if items}
    users = dict(list(users.items())[: profile.rollout_users])
    config = replace(result.config.model.darl, epochs=1)
    episodes = max(len(users) * config.episodes_per_user, 1)
    weights: Dict[type, Dict[str, np.ndarray]] = {}

    def training(trainer_type: type) -> Callable[[], None]:
        def run() -> None:
            trainer = trainer_type(result.graph, result.context.category_graph,
                                   result.representations, config)
            trainer.train(users)
            weights[trainer_type] = trainer.policy.state_dict()
        return run

    fused, reference = _median_ab(training(DARLTrainer), training(ReferenceDARLTrainer),
                                  profile.repeats)
    fused_weights, reference_weights = weights[DARLTrainer], weights[ReferenceDARLTrainer]
    identical = fused_weights.keys() == reference_weights.keys() and all(
        np.array_equal(array, reference_weights[name])
        for name, array in fused_weights.items())
    return {
        "fused_episodes_per_s": episodes / fused,
        "reference_episodes_per_s": episodes / reference,
        "speedup": reference / fused,
        "identical_weights": float(identical),
        "episodes": float(episodes),
    }


def bench_cggnn_train(result: PipelineResult, profile: BenchProfile) -> Dict[str, float]:
    """Fused vs autograd-reference CGGNN training, optimiser steps per second.

    Both sides train a fresh CGGNN of the stack's own configuration on the
    stack's graph and TransE tables, from the same seed, so they must end
    with bit-identical weights and loss histories; ``identical_weights``
    records whether they did.  ``fused_minor_faults_per_step`` (ungated) is
    the process's minor page faults over every fused run, per optimiser
    step: memory the step hands back to the heap and faults in again shows
    here, beside the wall time it costs.
    """
    model_config = result.config.model.cggnn
    config = replace(result.config.model.cggnn_training, epochs=CGGNN_BENCH_EPOCHS)
    graph, transe = result.graph, result.transe
    outcome: Dict[type, Tuple[List[float], Dict[str, np.ndarray], int]] = {}
    fused_faults = {"faults": 0, "runs": 0}

    def training(trainer_type: type) -> Callable[[], None]:
        def run() -> None:
            trainer = trainer_type(CGGNN(graph, transe, model_config), graph, config)
            outcome[trainer_type] = (trainer.train(), trainer.model.state_dict(),
                                     len(trainer._pairs))
        return run

    def fused() -> None:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        training(CGGNNTrainer)()
        fused_faults["faults"] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        fused_faults["runs"] += 1

    fused_s, reference_s = _median_ab(fused, training(ReferenceCGGNNTrainer),
                                      profile.repeats)
    fused_losses, fused_weights, pairs = outcome[CGGNNTrainer]
    reference_losses, reference_weights, _ = outcome[ReferenceCGGNNTrainer]
    steps = config.epochs * -(-pairs // config.batch_size)
    identical = (fused_losses == reference_losses
                 and fused_weights.keys() == reference_weights.keys()
                 and all(np.array_equal(array, reference_weights[name])
                         for name, array in fused_weights.items()))
    return {
        "fused_steps_per_s": steps / fused_s,
        "reference_steps_per_s": steps / reference_s,
        "speedup": reference_s / fused_s,
        "identical_weights": float(identical),
        "fused_minor_faults_per_step": fused_faults["faults"] / (fused_faults["runs"] * steps),
        "steps": float(steps),
    }


def _service_pair(result: PipelineResult,
                  profile: BenchProfile) -> Tuple[RecommendationService,
                                                  RecommendationService]:
    """Two serving facades over the same artifacts: vectorised and scalar."""
    recommender = result.cadrl.recommender
    serving_config = ServingConfig(cache_capacity=max(4 * profile.beam_users, 64))
    vectorised_service = RecommendationService(
        recommender, transe=result.transe, config=serving_config,
        name="bench (vectorised)")
    scalar_service = RecommendationService(
        ScalarPathRecommender.like(recommender), transe=result.transe,
        config=serving_config, name="bench (scalar reference)")
    return vectorised_service, scalar_service


def _reset_serving_state(service: RecommendationService,
                         keep_model_caches: bool) -> None:
    """Empty the result cache; optionally also the model-side caches."""
    service.cache.clear()
    if not keep_model_caches:
        recommender = service.recommender
        recommender.clear_milestone_cache()
        environment = recommender.entity_environment
        environment._action_cache.clear()
        environment._array_cache.clear()
        environment._matrix_cache.clear()


def bench_beam_search(result: PipelineResult,
                      profile: BenchProfile) -> Dict[str, Dict[str, float]]:
    """Cold & warm beam-search QPS through the serving facade, both engines."""
    graph = result.graph
    users = graph.entities.ids_of_type(EntityType.USER)[: profile.beam_users]
    vectorised_service, scalar_service = _service_pair(result, profile)

    def burst(service: RecommendationService, keep_model_caches: bool
              ) -> Callable[[], None]:
        def run() -> None:
            _reset_serving_state(service, keep_model_caches=keep_model_caches)
            service.serve_many(service.build_requests(users,
                                                      top_k=profile.beam_top_k))
        return run

    cold_vec, cold_ref = _median_ab(burst(vectorised_service, False),
                                    burst(scalar_service, False),
                                    profile.repeats)
    # Warm: model-side caches stay hot, only the result cache is dropped so
    # every request really runs the beam search again.
    warm_vec, warm_ref = _median_ab(burst(vectorised_service, True),
                                    burst(scalar_service, True),
                                    profile.repeats)
    count = len(users)
    return {
        "beam_cold": {"vectorised_qps": count / cold_vec,
                      "reference_qps": count / cold_ref,
                      "speedup": cold_ref / cold_vec},
        "beam_warm": {"vectorised_qps": count / warm_vec,
                      "reference_qps": count / warm_ref,
                      "speedup": warm_ref / warm_vec},
    }


def bench_csr_patch(result: PipelineResult,
                    profile: BenchProfile) -> Dict[str, float]:
    """Delta-patched vs fully recompiled CSR adjacency after a small burst.

    The live-update hot path: a seeded streaming burst mutates a copy of the
    trained graph, then both refresh strategies rebuild the compiled view of
    the *same* mutated graph from the same pre-burst snapshot.  On small
    bursts the patch touches only the dirty rows and bulk-copies everything
    else, so the speedup grows with graph size; gated because the ratio is
    machine-independent.
    """
    from ..kg.adjacency import compile_adjacency, patch_adjacency
    from ..live import UpdateLog, synthesize_deltas

    graph = result.graph.copy()
    old = graph.adjacency()
    log = UpdateLog(synthesize_deltas(graph, profile.patch_deltas,
                                      seed=profile.seed))
    applied = log.apply(graph)
    dirty = applied.touched_entities | applied.new_entities

    patch_s, full_s = _median_ab(
        lambda: patch_adjacency(old, graph, dirty),
        lambda: compile_adjacency(graph),
        profile.repeats)
    return {
        "patch_ms": patch_s * 1000.0,
        "full_compile_ms": full_s * 1000.0,
        "deltas": float(applied.count),
        "dirty_entities": float(len(dirty)),
        "num_entities": float(graph.num_entities),
        "speedup": full_s / patch_s,
    }


def bench_fault_overhead(result: PipelineResult,
                         profile: BenchProfile) -> Dict[str, float]:
    """Cost of the armored fault path on a fault-free replay.

    The same seeded virtual-time workload replays on two sides: through a bare
    cluster (no breaker, no injector — the legacy dispatch path) and through
    one wearing the full defensive kit (per-shard circuit breakers plus a
    fault injector carrying an *empty* plan, so every hook fires but no
    fault ever does).  The overhead ratio is the price every chaos-free
    request pays for the breaker consult, the injector shims, and the
    provenance bookkeeping.  Each side is timed over ``profile.repeats``
    interleaved replays after one warm-up, like every other section, and all
    of those replays must produce one signature — an armored cluster that
    never sees a fault must not change a single answer.  Trend metric, not
    gated (in-process wall time).
    """
    from ..cluster import ClusterConfig
    from ..faults import FaultPlan
    from ..simulate import (StackSpec, UserPopulation, WorkloadConfig,
                            build_stack, generate_workload)

    graph = result.graph
    population = UserPopulation.from_graph(graph)
    workload = generate_workload(
        population,
        WorkloadConfig(num_requests=FAULT_BENCH_REQUESTS, seed=profile.seed),
        graph)
    spec = StackSpec(
        cluster_config=ClusterConfig(num_shards=FAULT_BENCH_SHARDS,
                                     replication_factor=FAULT_BENCH_REPLICAS),
        cache_capacity=max(4 * profile.beam_users, 64))

    replays = []

    def replay(armored: bool) -> None:
        stack = build_stack(result, replace(spec, faulted=armored),
                            workload=workload,
                            plan=FaultPlan(events=()) if armored else None)
        replays.append(stack.replay())

    bare_s, armored_s = _median_ab(lambda: replay(False),
                                   lambda: replay(True), profile.repeats)
    count = len(workload)
    return {
        "bare_qps": count / bare_s,
        "armored_qps": count / armored_s,
        "overhead_ratio": armored_s / bare_s,
        "identical_signatures": float(
            len({run.signature() for run in replays}) == 1),
    }


# --------------------------------------------------------------------------- #
# orchestration
# --------------------------------------------------------------------------- #
def build_stack(profile: BenchProfile,
                artifacts: Optional[Union[str, Path]] = None) -> PipelineResult:
    """The trained stack the macro benchmarks run against.

    Built through the standard pipeline (``data → … → train``) so the bench
    exercises exactly what ``python -m repro run`` produces; pass
    ``artifacts`` to reuse a persisted pipeline directory instead.
    """
    if artifacts is not None:
        from ..pipeline import load_pipeline

        return load_pipeline(artifacts, until=("train",))
    return Pipeline(profile.run_config()).run(until=("train",))


def run_bench(profile: Union[str, BenchProfile],
              artifacts: Optional[Union[str, Path]] = None,
              now: Optional[datetime] = None) -> Dict:
    """Run every benchmark of ``profile`` and return the result document."""
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise ValueError(f"unknown bench profile {profile!r}; "
                             f"choose from {sorted(PROFILES)}") from None
    profile.validate()
    now = now or datetime.now(timezone.utc)

    build_start = time.perf_counter()
    result = build_stack(profile, artifacts)
    build_elapsed = time.perf_counter() - build_start

    metrics: Dict[str, Dict[str, float]] = {}
    metrics["transe"] = bench_transe(result, profile)
    metrics["darl_train"] = bench_darl_train(result, profile)
    metrics["cggnn_train"] = bench_cggnn_train(result, profile)
    metrics.update(bench_beam_search(result, profile))
    metrics["csr_patch"] = bench_csr_patch(result, profile)
    metrics["fault_overhead"] = bench_fault_overhead(result, profile)

    # The stack's own configuration, not the profile's: under ``artifacts``
    # the stack comes from the directory's ``config.json``.
    config = result.config
    return {
        "meta": {
            "timestamp": now.strftime("%Y-%m-%dT%H:%M:%SZ"),
            "profile": profile.name,
            "seed": config.model.seed,
            "dataset": config.data.dataset,
            "scale": config.data.scale,
            "config_fingerprint": config.fingerprint(),
            "stack_build_s": round(build_elapsed, 3),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            **blas_fingerprint(),
        },
        "metrics": metrics,
        "gated": list(GATED_METRICS),
    }


def write_bench_json(document: Dict, out_dir: Union[str, Path]) -> Path:
    """Persist one bench run as ``BENCH_<timestamp>.json`` under ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = document["meta"]["timestamp"].replace(":", "").replace("-", "")
    path = out_dir / f"BENCH_{stamp}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def _lookup(metrics: Dict, dotted: str) -> Optional[float]:
    """The number at ``dotted``: ``None`` if the path is absent, NaN if no number."""
    node = metrics
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else math.nan


@dataclass
class Regression:
    """One gated metric that fell below its allowed floor.

    ``current`` is NaN when the run lacks the metric or it is not a number.
    """

    metric: str
    current: float
    baseline: float
    allowed: float

    def describe(self) -> str:
        current = ("missing or not a number" if math.isnan(self.current)
                   else f"{self.current:.2f}")
        return (f"{self.metric}: {current} < allowed {self.allowed:.2f} "
                f"(baseline {self.baseline:.2f})")


def compare_with_baseline(document: Dict, baseline: Dict,
                          threshold: float = 0.30) -> List[Regression]:
    """Gated-ratio comparison: current must stay within ``threshold`` of baseline.

    Only dimensionless values are gated — the speedup ratios, which survive
    machine changes unlike absolute QPS, and the 0/1 weight-identity checks.
    A metric the baseline lacks is skipped, so a new gated section does not
    fail an old baseline.  A metric the baseline has is a regression when the
    current run lacks it or it is not a number (NaN included).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie strictly between 0 and 1")
    regressions: List[Regression] = []
    for metric in GATED_METRICS:
        reference = _lookup(baseline.get("metrics", {}), metric)
        if reference is None:
            continue
        current = _lookup(document.get("metrics", {}), metric)
        if current is None:
            current = math.nan
        allowed = reference * (1.0 - threshold)
        if not current >= allowed:
            regressions.append(Regression(metric=metric, current=current,
                                          baseline=reference, allowed=allowed))
    return regressions


def load_baseline(path: Union[str, Path]) -> Dict:
    """Read a committed baseline (or any previous ``BENCH_*.json``)."""
    return json.loads(Path(path).read_text())


def default_baseline_path(profile_name: str,
                          root: Optional[Union[str, Path]] = None) -> Path:
    """Where the committed baseline for a profile lives.

    With no explicit ``root`` the working directory is tried first, then the
    repository checkout this module lives in — so ``python -m repro bench``
    finds the committed baseline regardless of the invocation directory.
    """
    name = f"bench_baseline_{profile_name}.json"
    if root is not None:
        return Path(root) / name
    candidates = (Path("benchmarks") / name,
                  Path(__file__).resolve().parents[3] / "benchmarks" / name)
    for candidate in candidates:
        if candidate.exists():
            return candidate
    return candidates[0]


def render_report(document: Dict) -> str:
    """Human-readable summary of one bench run."""
    metrics = document["metrics"]
    meta = document["meta"]
    darl = metrics["darl_train"]
    cggnn = metrics["cggnn_train"]
    patch = metrics["csr_patch"]
    armor = metrics["fault_overhead"]
    lines = [
        f"bench profile={meta['profile']} dataset={meta['dataset']} "
        f"scale={meta['scale']} seed={meta['seed']} "
        f"(stack build {meta['stack_build_s']:.1f}s, "
        f"BLAS threads {meta.get('blas_threads')})",
        f"  transe     {metrics['transe']['vectorised_epochs_per_s']:8.1f} epochs/s "
        f"(reference {metrics['transe']['reference_epochs_per_s']:.1f}, "
        f"speedup {metrics['transe']['speedup']:.2f}x)",
        f"  darl train {darl['fused_episodes_per_s']:8.1f} episodes/s "
        f"(reference {darl['reference_episodes_per_s']:.1f}, "
        f"speedup {darl['speedup']:.2f}x, "
        f"{'identical weights' if darl['identical_weights'] else 'WEIGHTS DIVERGED'})",
        f"  cggnn train {cggnn['fused_steps_per_s']:7.1f} steps/s "
        f"(reference {cggnn['reference_steps_per_s']:.1f}, "
        f"speedup {cggnn['speedup']:.2f}x, "
        f"{cggnn['fused_minor_faults_per_step']:.0f} minor faults/step, "
        f"{'identical weights' if cggnn['identical_weights'] else 'WEIGHTS DIVERGED'})",
        f"  beam cold  {metrics['beam_cold']['vectorised_qps']:8.1f} QPS "
        f"(reference {metrics['beam_cold']['reference_qps']:.1f}, "
        f"speedup {metrics['beam_cold']['speedup']:.2f}x)",
        f"  beam warm  {metrics['beam_warm']['vectorised_qps']:8.1f} QPS "
        f"(reference {metrics['beam_warm']['reference_qps']:.1f}, "
        f"speedup {metrics['beam_warm']['speedup']:.2f}x)",
        f"  csr patch  {patch['patch_ms']:8.2f} ms for "
        f"{patch['deltas']:.0f} deltas "
        f"(full recompile {patch['full_compile_ms']:.2f} ms, "
        f"speedup {patch['speedup']:.2f}x)",
        f"  fault path {armor['armored_qps']:8.1f} QPS armored "
        f"(bare {armor['bare_qps']:.1f}, "
        f"overhead {armor['overhead_ratio']:.2f}x, "
        f"{'identical answers' if armor['identical_signatures'] else 'ANSWERS DIVERGED'})",
    ]
    return "\n".join(lines)
