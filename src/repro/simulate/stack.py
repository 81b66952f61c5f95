"""Replay stacks: one spec, one builder, one oracle audit.

A replay stack is a serving facade plus whichever planes wrap it — a fault
injector with per-shard circuit breakers, an autoscaler, a live session with
scheduled ingest bursts and generation swaps.  This module is the single
place those planes are wired:

* :class:`StackSpec` — everything the builder needs, frozen, with
  :meth:`StackSpec.validate` rejecting the combinations no stack supports;
* :func:`build_stack` — boots the service (single vs cluster is
  :func:`repro.pipeline.stages.boot_service`'s call) and wraps it in the
  planes the spec asks for, returning a replayable :class:`Stack`;
* :func:`audit` — the oracle battery that matches the planes a stack's
  front carries: full-search and fallback validity per generation, stale
  consistency, plus the scaling oracle behind an autoscaler and the
  fault-tolerance oracle when a faulted twin's records are given.

``repro simulate``, ``repro explore``, the scenario explorer and the fault
benchmark all build through here, so a new plane is wired once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..cluster import AutoscaleConfig, Autoscaler, CircuitBreaker, ClusterConfig
from ..faults import FaultInjector, FaultPlan
from ..live import (GenerationBundle, IngestEvent, LiveSession, RefreshConfig,
                    SwapEvent)
from ..pipeline.artifacts import ArtifactStore
from .oracles import (FallbackValidityOracle, FaultToleranceOracle,
                      FullSearchOracle, OracleReport, ScalingOracle,
                      StaleConsistencyOracle)
from .replay import ReplayConfig, ReplayDriver, ReplayResult, RequestRecord, TraceClock
from .workload import UserPopulation, Workload, WorkloadConfig, generate_workload


@dataclass(frozen=True)
class StackSpec:
    """Every knob of one replay stack, resolved once."""

    #: ``None`` boots the run's own facade (single service, or the cluster
    #: its config asks for); otherwise a cluster of exactly this shape.
    cluster_config: Optional[ClusterConfig] = None
    #: Seeds the default trace, the live ingest bursts, refreshes and the
    #: autoscaler.
    workload_seed: int = 0
    #: Virtual time (a :class:`TraceClock`) makes the replay a pure function
    #: of the seeds; ``False`` measures real latencies instead.
    virtual: bool = True
    #: Per-shard circuit breakers on; a fault replay sets it on both twins.
    faulted: bool = False
    #: Shards a fault plan takes down at t=0.  Without a plan they are DOWN
    #: at boot instead (``cluster_config.failed_shards``).
    failed_shards: Tuple[int, ...] = ()
    #: ``(min_shards, max_shards)`` of the autoscaler, or ``None``.
    autoscale: Optional[Tuple[int, int]] = None
    #: Autoscale decision interval in trace seconds (``None``: duration / 40).
    scale_tick: Optional[float] = None
    #: Result-cache capacity per service (``None``: the run's own).
    cache_capacity: Optional[int] = None
    #: Graph deltas per ingest burst; a positive count turns live mode on.
    live_ingest: int = 0
    #: Ingest bursts and generation swaps, as fractions of the trace span.
    ingest_at: Tuple[float, ...] = (0.35,)
    swap_at: Tuple[float, ...] = (0.6,)
    #: Warm-start TransE epochs per swap (CGGNN gets half, at least one).
    refresh_epochs: int = 2

    @property
    def live(self) -> bool:
        return self.live_ingest > 0

    def validate(self) -> None:
        """Raise ``ValueError`` naming the first unsupported setting."""
        for rejected, message in self._rejections():
            if rejected:
                raise ValueError(message)

    def _rejections(self):
        faulted, live = self.faulted, self.live
        autoscale = self.autoscale is not None
        wall_clock = not self.virtual
        failed = self.failed_shards
        min_shards, max_shards = self.autoscale or (1, 1)
        # The single-service facade has one shard, one copy, no queue bound.
        cluster = self.cluster_config or ClusterConfig()
        yield (wall_clock and faulted,
               "fault replays are virtual-time only (the injector and "
               "breakers run on the trace clock); drop --wall-clock")
        yield (wall_clock and live,
               "--live-ingest replays run in virtual time; drop --wall-clock")
        yield (wall_clock and autoscale,
               "--autoscale decisions are evaluated at virtual-time ticks; "
               "drop --wall-clock")
        yield (autoscale and faulted,
               "--faults/--chaos-seed cannot be combined with --autoscale yet")
        yield (autoscale and live,
               "--autoscale cannot be combined with --live-ingest (one "
               "resharding actor per replay)")
        yield (autoscale and failed,
               "--autoscale cannot be combined with --fail-shard yet")
        yield (autoscale and min_shards < 1,
               f"--min-shards {min_shards} must be at least 1")
        yield (autoscale and min_shards > max_shards,
               f"--min-shards {min_shards} exceeds --max-shards {max_shards}")
        shards = cluster.num_shards
        yield (shards <= 0, f"--shards {shards} must be positive")
        yield (autoscale and not min_shards <= shards <= max_shards,
               f"--shards {shards} outside the autoscale range "
               f"[{min_shards}, {max_shards}]")
        yield (len(set(failed)) != len(failed),
               f"--fail-shard {sorted(failed)} names a shard twice")
        bad = [shard for shard in failed if not 0 <= shard < shards]
        yield (bool(bad),
               f"--fail-shard {bad} outside the {shards}-shard topology; "
               f"pass --shards N with N > {max(failed, default=0)}")
        yield (bool(failed) and not faulted and set(failed) >= set(range(shards)),
               "--fail-shard would take every shard down; leave at least "
               "one healthy (or raise --shards)")
        yield (cluster.replication_factor < 1,
               f"--replicas {cluster.replication_factor} must be positive")
        yield (cluster.max_queue_per_shard <= 0,
               f"--max-queue {cluster.max_queue_per_shard} must be positive")
        yield (self.cache_capacity is not None and self.cache_capacity <= 0,
               f"--cache-capacity {self.cache_capacity} must be positive")
        yield (self.scale_tick is not None and self.scale_tick <= 0,
               f"--scale-tick {self.scale_tick} must be positive")
        yield (self.live_ingest < 0,
               f"--live-ingest {self.live_ingest} must not be negative")
        yield (self.refresh_epochs < 0,
               f"--refresh-epochs {self.refresh_epochs} must not be negative")
        for flag, fractions in (("--ingest-at", self.ingest_at),
                                ("--swap-at", self.swap_at)):
            outside = [value for value in fractions if not 0.0 <= value <= 1.0]
            yield (bool(outside),
                   f"{flag} {outside[0] if outside else ''} is not a fraction "
                   f"of the trace in [0, 1]")


@dataclass
class Stack:
    """One booted replay stack: a service plus whichever planes wrap it."""

    clock: Optional[TraceClock]
    service: object
    workload: Workload
    injector: Optional[FaultInjector] = None
    autoscaler: Optional[Autoscaler] = None
    session: Optional[LiveSession] = None

    @property
    def front(self):
        """The outermost plane: what requests enter and what ``audit`` reads."""
        return self.session or self.autoscaler or self.service

    def replay(self, config: Optional[ReplayConfig] = None) -> ReplayResult:
        return ReplayDriver(self.front, clock=self.clock).replay(self.workload,
                                                                 config)


WorkloadSource = Union[None, Workload, Callable[[object], Workload]]


def build_stack(result, spec: StackSpec, *, workload: WorkloadSource = None,
                plan: Optional[FaultPlan] = None,
                workdir: Optional[Path] = None) -> Stack:
    """Boot one stack over a trained :class:`repro.pipeline.PipelineResult`.

    ``workload`` is the trace to replay, or a callable that makes one from
    the booted service (a scenario may target the cluster's hash ring);
    ``None`` generates the default seeded trace.  ``plan`` (resolved against
    the trace span) installs a fault injector.  ``workdir`` gives a live
    session a persisted store and write-ahead log for a plan to corrupt and
    tear.  Raises ``ValueError`` for a spec :meth:`StackSpec.validate`
    rejects.
    """
    spec.validate()
    clock = TraceClock() if spec.virtual else None
    kwargs = {} if clock is None else {"clock": clock}
    if spec.cache_capacity is not None:
        kwargs["serving_config"] = dataclasses.replace(
            result.config.serving, cache_capacity=spec.cache_capacity)
    if spec.cluster_config is None:
        service = result.service(**kwargs)
    else:
        if spec.faulted:
            kwargs["breaker"] = CircuitBreaker(clock)
        service = result.cluster_service(cluster_config=spec.cluster_config,
                                         **kwargs)
    if workload is None:
        workload = generate_workload(UserPopulation.from_graph(service.graph),
                                     WorkloadConfig(seed=spec.workload_seed),
                                     service.graph)
    elif not isinstance(workload, Workload):
        workload = workload(service)
    stack = Stack(clock, service, workload)
    if plan is not None:
        stack.injector = FaultInjector(plan, clock)
        stack.injector.install(service)
    if spec.autoscale is not None:
        tick = (spec.scale_tick if spec.scale_tick is not None
                else max(workload.duration_s / 40.0, 1e-3))
        stack.autoscaler = Autoscaler(
            service,
            AutoscaleConfig(min_shards=spec.autoscale[0],
                            max_shards=spec.autoscale[1],
                            tick_interval_s=tick, seed=spec.workload_seed),
            clock=clock)
    if spec.live:
        duration = workload.duration_s
        schedule = [IngestEvent(at_s=fraction * duration,
                                count=spec.live_ingest,
                                seed=spec.workload_seed + offset)
                    for offset, fraction in enumerate(spec.ingest_at)]
        schedule += [SwapEvent(at_s=fraction * duration)
                     for fraction in spec.swap_at]
        persisted = {}
        if workdir is not None:
            root = Path(workdir) / ("baseline" if plan is None else "faulted")
            root.mkdir(parents=True, exist_ok=True)
            persisted = {"store": ArtifactStore(root / "store"),
                         "log_path": root / "updates.jsonl"}
        stack.session = LiveSession(
            service, GenerationBundle.from_pipeline(result), clock=clock,
            refresh_config=RefreshConfig(
                transe_epochs=spec.refresh_epochs,
                cggnn_epochs=max(1, spec.refresh_epochs // 2),
                seed=spec.workload_seed),
            schedule=schedule, injector=stack.injector, **persisted)
    return stack


def audit(front, records: Sequence[RequestRecord], *,
          full_search_sample: Optional[int] = None, seed: int = 0,
          twin: Optional[Sequence[RequestRecord]] = None,
          ledger=None) -> List[OracleReport]:
    """The oracle battery for the planes ``front`` carries.

    Every front gets the full-search and fallback-validity oracles, each
    scoped to the generation that computed an answer (a live session's
    ledger, ``{0: front}`` otherwise; one full-search sample of
    ``full_search_sample`` across all records), and the stale-consistency
    oracle.  An :class:`~repro.cluster.Autoscaler` adds the scaling oracle.
    ``twin`` — the same trace replayed through this stack's faulted twin —
    adds the fault-tolerance oracle, which audits the twin's records
    against ``records`` and the fault ``ledger``.
    """
    views = (front.generation_views() if isinstance(front, LiveSession)
             else {0: front})
    reports = [
        FullSearchOracle(views).check(records, sample_size=full_search_sample,
                                      seed=seed),
        FallbackValidityOracle(views).check(records),
        StaleConsistencyOracle(front).check(records),
    ]
    if isinstance(front, Autoscaler):
        reports.append(ScalingOracle(front).check(records))
    if twin is not None:
        reports.append(FaultToleranceOracle(records, ledger).check(twin))
    return reports


#: The two names ``perfbench/workloads.py`` imports; both are :func:`audit`.
run_oracles = run_live_oracles = audit
