"""Seeded micro/macro benchmarks with a JSON trail and a regression gate.

``python -m repro bench`` runs three workloads on a pipeline-built stack:

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
* **Cluster throughput** — the same warm burst through a 1-shard service vs
  an N-shard :class:`repro.cluster.ClusterService`, reporting the cluster
  layer's routing overhead (trend metric, not gated);
* **Incremental CSR patching** — refreshing the compiled adjacency after a
  small streaming delta burst, delta patch
  (:func:`repro.kg.patch_adjacency`) vs full recompile — the live-update
  hot path; gated on the speedup ratio.
* **Fault-path overhead** — the same fault-free virtual-time replay through
  a bare cluster vs one wearing circuit breakers plus an empty-plan
  :class:`repro.faults.FaultInjector`; reports the armored/bare overhead
  ratio and checks the answers stayed bit-identical (trend, not gated).
* **Adversarial workload** — the same seeded trace replayed as generated vs
  reshaped by the ``cache-buster`` scenario (:mod:`repro.scenarios`);
  reports the cache-hit collapse and the slowdown the adversary inflicts
  (trend, not gated).

Both sides of every pair run interleaved in the same process on the same
data, and the gateable numbers are the *speedup ratios* — machine-independent
by construction, unlike raw QPS.  Results land in ``BENCH_<timestamp>.json``;
:func:`compare_with_baseline` flags any gated ratio that fell more than the
threshold below the committed baseline.  The document's ``meta`` block
fingerprints the stack it measured, BLAS library and thread count included;
``python -m repro bench`` pins BLAS to one thread (:func:`set_blas_threads`)
before it builds anything, since a two-thread OpenBLAS made the serving
ratios bimodal from run to run.
"""

from __future__ import annotations

import ctypes
import functools
import json
import platform
import statistics
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

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
    cluster_shards: int = 4      # N-shard side of the cluster-throughput pair
    cluster_replicas: int = 2
    patch_deltas: int = 10       # streaming-burst size for the CSR patch bench
    scenario_requests: int = 300   # trace length for the adversarial bench
    autoscale_requests: int = 400  # bursty-trace length for the autoscale bench
    autoscale_queue: int = 8       # per-shard admission bound (small → sheds)
    autoscale_min: int = 2         # static-small / autoscale floor
    autoscale_max: int = 6         # static-large / autoscale ceiling
    repeats: int = 5             # interleaved repetitions, median taken

    def validate(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if min(self.transe_epochs, self.beam_users, self.repeats,
               self.rollout_users, self.beam_top_k, self.beam_width,
               self.max_entity_actions, self.cluster_shards,
               self.patch_deltas, self.scenario_requests,
               self.autoscale_requests, self.autoscale_queue) <= 0:
            raise ValueError("benchmark sizes must be positive")
        if not 1 <= self.cluster_replicas <= self.cluster_shards:
            raise ValueError("cluster_replicas must lie in [1, cluster_shards]")
        if not 1 <= self.autoscale_min <= self.autoscale_max:
            raise ValueError("autoscale_min must lie in [1, autoscale_max]")

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
    records whether they did.
    """
    model_config = result.config.model.cggnn
    config = replace(result.config.model.cggnn_training, epochs=CGGNN_BENCH_EPOCHS)
    graph, transe = result.graph, result.transe
    outcome: Dict[type, Tuple[List[float], Dict[str, np.ndarray], int]] = {}

    def training(trainer_type: type) -> Callable[[], None]:
        def run() -> None:
            trainer = trainer_type(CGGNN(graph, transe, model_config), graph, config)
            outcome[trainer_type] = (trainer.train(), trainer.model.state_dict(),
                                     len(trainer._pairs))
        return run

    fused, reference = _median_ab(training(CGGNNTrainer), training(ReferenceCGGNNTrainer),
                                  profile.repeats)
    fused_losses, fused_weights, pairs = outcome[CGGNNTrainer]
    reference_losses, reference_weights, _ = outcome[ReferenceCGGNNTrainer]
    steps = config.epochs * -(-pairs // config.batch_size)
    identical = (fused_losses == reference_losses
                 and fused_weights.keys() == reference_weights.keys()
                 and all(np.array_equal(array, reference_weights[name])
                         for name, array in fused_weights.items()))
    return {
        "fused_steps_per_s": steps / fused,
        "reference_steps_per_s": steps / reference,
        "speedup": reference / fused,
        "identical_weights": float(identical),
        "steps": float(steps),
    }


def _service_pair(result: PipelineResult,
                  profile: BenchProfile) -> Tuple[RecommendationService,
                                                  RecommendationService]:
    """Two serving facades over the same artifacts: vectorised and scalar."""
    cadrl = result.cadrl
    recommender = cadrl.recommender
    scalar = ScalarPathRecommender(
        cadrl.graph, cadrl.category_graph, cadrl.representations,
        recommender.policy, guidance=recommender.guidance,
        max_path_length=recommender.max_path_length,
        max_entity_actions=recommender.entity_environment.max_actions,
        max_category_actions=recommender.category_environment.max_actions,
        use_dual_agent=recommender.use_dual_agent,
        config=recommender.config)
    serving_config = ServingConfig(cache_capacity=max(4 * profile.beam_users, 64))
    vectorised_service = RecommendationService.from_cadrl(
        cadrl, transe=result.transe, config=serving_config,
        name="bench (vectorised)")
    scalar_service = RecommendationService(
        cadrl.graph, cadrl.category_graph, cadrl.representations,
        recommender.policy, recommender=scalar, transe=result.transe,
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


def bench_cluster(result: PipelineResult,
                  profile: BenchProfile) -> Dict[str, float]:
    """1-shard vs N-shard serving QPS through the cluster facade.

    Both sides answer the identical warm burst (model caches hot, result
    caches cleared before every run, so each request really searches).  The
    cluster runs its shards in-process, so the interesting numbers are the
    routing overhead and the cache partitioning, not a parallel speedup —
    ``relative_throughput`` near 1.0 means the cluster layer is ~free and
    real scaling is left to the per-shard processes.  Trend metric, not gated
    (absolute QPS and the overhead ratio are machine-sensitive).
    """
    from ..cluster import ClusterConfig, ClusterService

    users = result.graph.entities.ids_of_type(EntityType.USER)[: profile.beam_users]
    serving_config = ServingConfig(cache_capacity=max(4 * profile.beam_users, 64))
    single = RecommendationService.from_cadrl(
        result.cadrl, transe=result.transe, config=serving_config,
        name="bench (1 shard)")
    cluster = ClusterService.from_cadrl(
        result.cadrl, transe=result.transe,
        config=ClusterConfig(num_shards=profile.cluster_shards,
                             replication_factor=profile.cluster_replicas),
        serving_config=serving_config, name="bench (cluster)")

    requests = single.build_requests(users, top_k=profile.beam_top_k)

    def single_burst() -> None:
        _reset_serving_state(single, keep_model_caches=True)
        single.serve_many(requests)

    def cluster_burst() -> None:
        for worker in cluster.workers:
            worker.service.cache.clear()
        cluster.serve_many(requests)

    single_s, cluster_s = _median_ab(single_burst, cluster_burst, profile.repeats)
    count = len(users)
    return {
        "single_shard_qps": count / single_s,
        "cluster_qps": count / cluster_s,
        "shards": float(profile.cluster_shards),
        "replicas": float(profile.cluster_replicas),
        "relative_throughput": single_s / cluster_s,
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


def bench_autoscale(result: PipelineResult,
                    profile: BenchProfile) -> Dict[str, float]:
    """Bursty virtual-time trace: autoscaled vs static-small vs static-large.

    The same seeded bursty workload replays three ways under a tight
    per-shard admission bound: a static cluster at the autoscale floor
    (sheds under the bursts), a static cluster at the ceiling (never sheds
    but pays for idle capacity throughout), and an autoscaled cluster that
    starts at the floor and earns/releases shards from the trace's own
    shed/queue signals.  Capacity is reported as **shard-ticks** (cluster
    size integrated over the autoscaler's decision ticks).  The autoscaled
    run should shed less than static-small *and* spend fewer shard-ticks
    than static-large; ``deterministic`` re-runs the autoscaled replay and
    compares result signatures.  Virtual-time replay → trend/invariant
    metrics, not wall-clock gated.
    """
    from ..cluster import AutoscaleConfig, Autoscaler, ClusterConfig, ClusterService
    from ..simulate import (
        ReplayDriver,
        TraceClock,
        UserPopulation,
        WorkloadConfig,
        generate_workload,
    )

    graph = result.graph
    population = UserPopulation.from_graph(graph)
    workload = generate_workload(
        population,
        WorkloadConfig(num_requests=profile.autoscale_requests,
                       seed=profile.seed, arrival="bursty"),
        graph)
    serving_config = ServingConfig(cache_capacity=max(4 * profile.beam_users, 64))
    small, large = profile.autoscale_min, profile.autoscale_max
    # 40 ticks per trace: fine enough that the quiet gaps between bursts
    # register as calm ticks, so the replay exercises scale-down as well
    # as scale-up.
    tick = max(workload.duration_s / 40.0, 1e-3)

    def boot(shards: int, clock: "TraceClock", name: str) -> "ClusterService":
        return ClusterService.from_cadrl(
            result.cadrl, transe=result.transe,
            config=ClusterConfig(num_shards=shards,
                                 replication_factor=min(2, shards),
                                 max_queue_per_shard=profile.autoscale_queue),
            serving_config=serving_config, clock=clock, name=name)

    def replay_static(shards: int):
        clock = TraceClock()
        cluster = boot(shards, clock, f"bench (static {shards}-shard)")
        return ReplayDriver(cluster, clock=clock).replay(workload)

    def replay_autoscaled():
        clock = TraceClock()
        cluster = boot(small, clock, "bench (autoscaled)")
        autoscaler = Autoscaler(
            cluster,
            AutoscaleConfig(min_shards=small, max_shards=large,
                            tick_interval_s=tick, seed=profile.seed),
            clock=clock)
        return autoscaler, ReplayDriver(autoscaler, clock=clock).replay(workload)

    def sheds(replay) -> int:
        return sum(record.shed for record in replay.records)

    small_replay = replay_static(small)
    large_replay = replay_static(large)
    autoscaler, auto_replay = replay_autoscaled()
    _, repeat_replay = replay_autoscaled()

    ticks = max(autoscaler.ticks, 1)
    return {
        "requests": float(len(workload)),
        "small_shards": float(small),
        "large_shards": float(large),
        "max_queue_per_shard": float(profile.autoscale_queue),
        "small_shed": float(sheds(small_replay)),
        "large_shed": float(sheds(large_replay)),
        "autoscaled_shed": float(sheds(auto_replay)),
        "scale_ups": float(sum(e.action == "up" for e in autoscaler.events)),
        "scale_downs": float(sum(e.action == "down" for e in autoscaler.events)),
        "migrated_entries": float(sum(e.migrated_entries
                                      for e in autoscaler.events)),
        "autoscaled_shard_ticks": float(autoscaler.shard_ticks),
        "small_shard_ticks": float(small * ticks),
        "large_shard_ticks": float(large * ticks),
        "capacity_saved_vs_large": 1.0 - autoscaler.shard_ticks / (large * ticks),
        "deterministic": float(auto_replay.signature()
                               == repeat_replay.signature()),
    }


def bench_fault_overhead(result: PipelineResult,
                         profile: BenchProfile) -> Dict[str, float]:
    """Cost of the armored fault path on a fault-free replay.

    The same seeded virtual-time workload replays twice: through a bare
    cluster (no breaker, no injector — the legacy dispatch path) and through
    one wearing the full defensive kit (per-shard circuit breakers plus a
    fault injector carrying an *empty* plan, so every hook fires but no
    fault ever does).  The overhead ratio is the price every chaos-free
    request pays for the breaker consult, the injector shims, and the
    provenance bookkeeping.  Both replays must produce bit-identical
    signatures — an armored cluster that never sees a fault must not change
    a single answer.  Trend metric, not gated (in-process wall time).
    """
    from ..cluster import CircuitBreaker, ClusterConfig, ClusterService
    from ..faults import FaultInjector, FaultPlan
    from ..simulate import ReplayDriver, TraceClock, UserPopulation, \
        WorkloadConfig, generate_workload

    graph = result.graph
    population = UserPopulation.from_graph(graph)
    workload = generate_workload(
        population,
        WorkloadConfig(num_requests=profile.autoscale_requests,
                       seed=profile.seed),
        graph)
    serving_config = ServingConfig(cache_capacity=max(4 * profile.beam_users, 64))
    cluster_config = ClusterConfig(num_shards=profile.cluster_shards,
                                   replication_factor=profile.cluster_replicas)

    def replay(armored: bool):
        clock = TraceClock()
        breaker = CircuitBreaker(clock=clock) if armored else None
        cluster = ClusterService.from_cadrl(
            result.cadrl, transe=result.transe, config=cluster_config,
            serving_config=serving_config, clock=clock, breaker=breaker,
            name=f"bench ({'armored' if armored else 'bare'})")
        if armored:
            FaultInjector(FaultPlan(events=()), clock).install(cluster)
        return ReplayDriver(cluster, clock=clock).replay(workload)

    repeats = max(profile.repeats - 2, 1)
    bare_s, armored_s = _median_ab(lambda: replay(False),
                                   lambda: replay(True), repeats)
    count = len(workload)
    return {
        "bare_qps": count / bare_s,
        "armored_qps": count / armored_s,
        "overhead_ratio": armored_s / bare_s,
        "identical_signatures": float(replay(False).signature()
                                      == replay(True).signature()),
    }


def bench_adversarial(result: PipelineResult,
                      profile: BenchProfile) -> Dict[str, float]:
    """Cost of a cache-busting adversary vs the same trace unmolested.

    One seeded workload replays twice through identically-built virtual-time
    clusters: as generated (the Zipf skew keeps the result cache useful) and
    reshaped by the ``cache-buster`` scenario (rotating ``exclude_items`` /
    ``top_k``, so nearly every request is a distinct cache key and the
    full-search tier eats the load).  Reports the hit-rate collapse — a
    trace property, deterministic — and the wall-clock slowdown ratio the
    adversary inflicts (trend metric, not gated: in-process wall time).
    ``deterministic`` re-runs the adversarial replay and compares result
    signatures.
    """
    from ..cluster import ClusterConfig, ClusterService
    from ..scenarios import ScenarioContext, get_scenario
    from ..simulate import (ReplayDriver, TraceClock, UserPopulation,
                            WorkloadConfig, generate_workload)

    graph = result.graph
    population = UserPopulation.from_graph(graph)
    baseline = generate_workload(
        population,
        WorkloadConfig(num_requests=profile.scenario_requests,
                       seed=profile.seed),
        graph)
    adversarial = get_scenario("cache-buster").apply(
        baseline, ScenarioContext(graph=graph, population=population))
    serving_config = ServingConfig(cache_capacity=max(4 * profile.beam_users, 64))
    cluster_config = ClusterConfig(num_shards=profile.cluster_shards,
                                   replication_factor=profile.cluster_replicas)

    def replay(workload):
        clock = TraceClock()
        cluster = ClusterService.from_cadrl(
            result.cadrl, transe=result.transe, config=cluster_config,
            serving_config=serving_config, clock=clock,
            name="bench (adversarial)")
        return ReplayDriver(cluster, clock=clock).replay(workload)

    repeats = max(profile.repeats - 2, 1)
    baseline_s, adversarial_s = _median_ab(lambda: replay(baseline),
                                           lambda: replay(adversarial),
                                           repeats)
    baseline_replay = replay(baseline)
    adversarial_replay = replay(adversarial)
    count = len(baseline)
    return {
        "requests": float(count),
        "baseline_hit_rate": baseline_replay.cache_hit_rate(),
        "adversarial_hit_rate": adversarial_replay.cache_hit_rate(),
        "hit_rate_drop": (baseline_replay.cache_hit_rate()
                          - adversarial_replay.cache_hit_rate()),
        "baseline_qps": count / baseline_s,
        "adversarial_qps": count / adversarial_s,
        "slowdown_ratio": adversarial_s / baseline_s,
        "deterministic": float(adversarial_replay.signature()
                               == replay(adversarial).signature()),
    }


# --------------------------------------------------------------------------- #
# BLAS threading
# --------------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[ctypes.CDLL]:
    """numpy's bundled scipy-openblas, or ``None`` when numpy links another BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            library = ctypes.CDLL(str(path))
            set_threads = library.scipy_openblas_set_num_threads64_
            get_threads = library.scipy_openblas_get_num_threads64_
            get_config = library.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        return library
    return None


def set_blas_threads(threads: int) -> bool:
    """Pin numpy's OpenBLAS to ``threads`` threads; ``False`` if it cannot be reached."""
    library = _openblas()
    if library is None:
        return False
    library.scipy_openblas_set_num_threads64_(threads)
    return True


def blas_fingerprint() -> Dict[str, object]:
    """The BLAS library numpy runs on and its current thread count.

    Both are ``None`` when numpy does not bundle scipy-openblas (another
    BLAS, or an older wheel): the run is then not pinned either.
    """
    library = _openblas()
    if library is None:
        return {"blas": None, "blas_threads": None}
    return {"blas": library.scipy_openblas_get_config64_().decode().strip(),
            "blas_threads": int(library.scipy_openblas_get_num_threads64_())}


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
    metrics["cluster"] = bench_cluster(result, profile)
    metrics["csr_patch"] = bench_csr_patch(result, profile)
    metrics["autoscale"] = bench_autoscale(result, profile)
    metrics["fault_overhead"] = bench_fault_overhead(result, profile)
    metrics["adversarial"] = bench_adversarial(result, profile)

    return {
        "meta": {
            "timestamp": now.strftime("%Y-%m-%dT%H:%M:%SZ"),
            "profile": profile.name,
            "seed": profile.seed,
            "dataset": profile.dataset,
            "scale": profile.scale,
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
    node = metrics
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


@dataclass
class Regression:
    """One gated metric that fell below its allowed floor."""

    metric: str
    current: float
    baseline: float
    allowed: float

    def describe(self) -> str:
        return (f"{self.metric}: {self.current:.2f} < allowed {self.allowed:.2f} "
                f"(baseline {self.baseline:.2f})")


def compare_with_baseline(document: Dict, baseline: Dict,
                          threshold: float = 0.30) -> List[Regression]:
    """Gated-ratio comparison: current must stay within ``threshold`` of baseline.

    Only dimensionless values are gated — the speedup ratios, which survive
    machine changes unlike absolute QPS, and the 0/1 DARL weight-identity
    check.  A metric missing on either side is skipped
    (new benchmarks must not fail old baselines and vice versa).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie strictly between 0 and 1")
    regressions: List[Regression] = []
    for metric in GATED_METRICS:
        current = _lookup(document.get("metrics", {}), metric)
        reference = _lookup(baseline.get("metrics", {}), metric)
        if current is None or reference is None:
            continue
        allowed = reference * (1.0 - threshold)
        if current < allowed:
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
        f"{'identical weights' if cggnn['identical_weights'] else 'WEIGHTS DIVERGED'})",
        f"  beam cold  {metrics['beam_cold']['vectorised_qps']:8.1f} QPS "
        f"(reference {metrics['beam_cold']['reference_qps']:.1f}, "
        f"speedup {metrics['beam_cold']['speedup']:.2f}x)",
        f"  beam warm  {metrics['beam_warm']['vectorised_qps']:8.1f} QPS "
        f"(reference {metrics['beam_warm']['reference_qps']:.1f}, "
        f"speedup {metrics['beam_warm']['speedup']:.2f}x)",
    ]
    if "cluster" in metrics:
        cluster = metrics["cluster"]
        lines.append(
            f"  cluster    {cluster['cluster_qps']:8.1f} QPS over "
            f"{cluster['shards']:.0f} shards ×{cluster['replicas']:.0f} "
            f"(1 shard {cluster['single_shard_qps']:.1f}, "
            f"relative {cluster['relative_throughput']:.2f}x)")
    if "csr_patch" in metrics:
        patch = metrics["csr_patch"]
        lines.append(
            f"  csr patch  {patch['patch_ms']:8.2f} ms for "
            f"{patch['deltas']:.0f} deltas "
            f"(full recompile {patch['full_compile_ms']:.2f} ms, "
            f"speedup {patch['speedup']:.2f}x)")
    if "autoscale" in metrics:
        scaling = metrics["autoscale"]
        lines.append(
            f"  autoscale  shed {scaling['autoscaled_shed']:.0f} vs "
            f"static-small {scaling['small_shed']:.0f}; "
            f"{scaling['autoscaled_shard_ticks']:.0f} shard-ticks vs "
            f"static-large {scaling['large_shard_ticks']:.0f} "
            f"({scaling['scale_ups']:.0f} ups, {scaling['scale_downs']:.0f} "
            f"downs, {'deterministic' if scaling['deterministic'] else 'NON-DETERMINISTIC'})")
    if "fault_overhead" in metrics:
        armor = metrics["fault_overhead"]
        lines.append(
            f"  fault path {armor['armored_qps']:8.1f} QPS armored "
            f"(bare {armor['bare_qps']:.1f}, "
            f"overhead {armor['overhead_ratio']:.2f}x, "
            f"{'identical answers' if armor['identical_signatures'] else 'ANSWERS DIVERGED'})")
    if "adversarial" in metrics:
        adversary = metrics["adversarial"]
        lines.append(
            f"  adversary  hit rate {100 * adversary['adversarial_hit_rate']:.1f}% "
            f"under cache-buster (baseline "
            f"{100 * adversary['baseline_hit_rate']:.1f}%, "
            f"slowdown {adversary['slowdown_ratio']:.2f}x, "
            f"{'deterministic' if adversary['deterministic'] else 'NON-DETERMINISTIC'})")
    return "\n".join(lines)
