"""Elastic autoscaling: deterministic shard add/remove while traffic flows.

The :class:`Autoscaler` wraps a :class:`~repro.cluster.ClusterService` with
the same ``serve``/``serve_many`` facade (so :class:`repro.simulate.ReplayDriver`
and the whole oracle battery drive it unchanged) and re-evaluates the cluster
size at fixed **virtual-time ticks**: before each burst it checks whether the
shared clock has crossed the next tick boundary and, if so, folds the window's
signals — shed rate, peak admission-queue utilization, request volume — into a
grow/hold/shrink decision:

* **scale up** when the window shed requests (backpressure already degraded
  answers) or some shard's peak queue depth crossed ``up_utilization`` —
  provided the cluster is below ``max_shards``;
* **scale down** after ``down_patience`` consecutive calm ticks (zero sheds,
  every peak below ``down_utilization``) — provided it is above ``min_shards``;
* a ``cooldown_ticks`` refractory period follows every action so one burst
  cannot thrash the ring.

Every ingredient is deterministic: ticks live on the injected trace clock,
signals are integer counters drained per window, and the only choice with any
freedom — which shard to retire when several are equally idle — is drawn from
a generator seeded by ``AutoscaleConfig.seed``.  Same trace + same seed ⇒ the
identical scale-event sequence, which is what lets the
:class:`repro.simulate.ScalingOracle` demand bit-identical replays.

Scaling reuses the ring's bounded-remap guarantee (only displaced keys move)
and :meth:`ClusterService.add_shard`'s cache warm-migration, so a scale event
changes *where* answers come from — provenance — never *what* they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..serving.service import RecommendationRequest, RecommendationResponse
from .service import ClusterService, ScaleReport


@dataclass
class AutoscaleConfig:
    """Policy knobs for one :class:`Autoscaler`.

    Utilizations are fractions of ``max_queue_per_shard`` reached by a
    shard's *peak* burst queue depth within one tick window — peaks, not
    averages, are what predict shedding, because admission rejects on the
    burst maximum.
    """

    min_shards: int = 1
    max_shards: int = 8
    tick_interval_s: float = 1.0
    #: Scale up when the window's shed fraction exceeds this (0.0 = any shed).
    up_shed_rate: float = 0.0
    #: ... or when some shard's peak queue utilization reaches this.
    up_utilization: float = 0.9
    #: A tick is "calm" when nothing shed and every peak stays at or below this.
    down_utilization: float = 0.5
    #: Consecutive calm ticks required before shrinking.
    down_patience: int = 2
    #: Ticks to hold after any action before acting again.
    cooldown_ticks: int = 1
    #: Seeds the victim tie-break draw — the only free choice in the policy.
    seed: int = 0

    def validate(self) -> None:
        if self.min_shards < 1:
            raise ValueError("min_shards must be at least 1")
        if self.max_shards < self.min_shards:
            raise ValueError("max_shards must be >= min_shards")
        if self.tick_interval_s <= 0:
            raise ValueError("tick_interval_s must be positive")
        if self.up_shed_rate < 0:
            raise ValueError("up_shed_rate must be non-negative")
        if not 0.0 < self.up_utilization <= 1.0:
            raise ValueError("up_utilization must lie in (0, 1]")
        if not 0.0 <= self.down_utilization < self.up_utilization:
            raise ValueError("down_utilization must lie in [0, up_utilization)")
        if self.down_patience < 1:
            raise ValueError("down_patience must be at least 1")
        if self.cooldown_ticks < 0:
            raise ValueError("cooldown_ticks must be non-negative")


@dataclass(frozen=True)
class ScaleEvent:
    """One committed scaling action, stamped with its tick and signals."""

    tick: int                 # 1-based index of the evaluating tick
    at_s: float               # trace time of the tick boundary
    action: str               # "up" | "down"
    shard_id: int             # the shard added or removed
    from_shards: int
    to_shards: int
    reason: str
    migrated_entries: int     # cache entries warm-migrated by this event
    signals: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {"tick": self.tick, "at_s": self.at_s, "action": self.action,
                "shard_id": self.shard_id, "from_shards": self.from_shards,
                "to_shards": self.to_shards, "reason": self.reason,
                "migrated_entries": self.migrated_entries,
                "signals": dict(self.signals)}


class Autoscaler:
    """Serve-through facade that resizes the wrapped cluster at clock ticks.

    A new shard is a :meth:`ClusterService.clone_reference_service`, which
    is correct because all shards serve the same frozen tables.
    """

    def __init__(self, cluster: ClusterService,
                 config: Optional[AutoscaleConfig] = None, *,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.cluster = cluster
        self.config = config or AutoscaleConfig()
        self.config.validate()
        if not (self.config.min_shards <= cluster.num_shards
                <= self.config.max_shards):
            raise ValueError(
                f"cluster has {cluster.num_shards} shards, outside the "
                f"autoscale range [{self.config.min_shards}, "
                f"{self.config.max_shards}]")
        self._clock = clock or cluster._clock
        self._rng = np.random.default_rng(self.config.seed)
        self.initial_shards = cluster.num_shards
        self.events: List[ScaleEvent] = []
        self.ticks = 0
        #: Integral of cluster size over evaluated ticks — the capacity paid
        #: for; a static cluster's equivalent is ``num_shards * ticks``.
        self.shard_ticks = 0
        self._next_tick_at: Optional[float] = None
        self._calm_ticks = 0
        self._cooldown = 0
        self._last_routing = cluster.routing.as_dict()
        cluster.admission.drain_peaks()   # open the first window cleanly

    # ------------------------------------------------------------------ #
    # serving facade (ReplayDriver / oracle surface)
    # ------------------------------------------------------------------ #
    def serve_many(self, requests: Sequence[RecommendationRequest]
                   ) -> List[RecommendationResponse]:
        self._poll()
        return self.cluster.serve_many(requests)

    def serve(self, request: RecommendationRequest) -> RecommendationResponse:
        self._poll()
        return self.cluster.serve(request)

    def build_requests(self, user_entities, top_k=None, exclude_items=None,
                       latency_budget_ms=None) -> List[RecommendationRequest]:
        return self.cluster.build_requests(
            user_entities, top_k=top_k, exclude_items=exclude_items,
            latency_budget_ms=latency_budget_ms)

    @property
    def graph(self):
        return self.cluster.graph

    @property
    def recommender(self):
        return self.cluster.recommender

    @property
    def tiers(self):
        return self.cluster.tiers

    @property
    def workers(self):
        return self.cluster.workers

    @property
    def num_shards(self) -> int:
        return self.cluster.num_shards

    # ------------------------------------------------------------------ #
    # tick machinery
    # ------------------------------------------------------------------ #
    def _poll(self) -> None:
        """Evaluate every tick boundary the clock has passed since last poll.

        The first poll anchors the tick grid at the first burst's trace time,
        so tick boundaries are a pure function of the trace — a prerequisite
        for bit-identical same-seed replays.
        """
        now = self._clock()
        if self._next_tick_at is None:
            self._next_tick_at = now + self.config.tick_interval_s
            return
        while now >= self._next_tick_at:
            self._evaluate(self._next_tick_at)
            self._next_tick_at += self.config.tick_interval_s

    def _window_signals(self) -> Dict[str, Any]:
        """Drain and summarise the signals accumulated since the last tick."""
        routing = self.cluster.routing.as_dict()
        requests = routing["requests"] - self._last_routing["requests"]
        shed = routing["shed"] - self._last_routing["shed"]
        self._last_routing = routing
        peaks = self.cluster.admission.drain_peaks()
        capacity = self.cluster.admission.max_queue_per_shard
        peak_utilization = max(peaks.values(), default=0) / capacity
        merged = self.cluster.telemetry.merged()
        return {
            "requests": requests,
            "shed": shed,
            # NaN convention: a window with no requests has no shed *rate*.
            "shed_rate": shed / requests if requests else float("nan"),
            "peak_utilization": peak_utilization,
            "peaks": peaks,
            "p99_ms": merged["latency_ms"]["p99"],
        }

    def _evaluate(self, at_s: float) -> None:
        """One scaling decision at a tick boundary."""
        self.ticks += 1
        self.shard_ticks += self.cluster.num_shards
        signals = self._window_signals()
        if self._cooldown > 0:
            self._cooldown -= 1
            return
        config = self.config
        shards = self.cluster.num_shards
        shed = signals["shed"]
        requests = signals["requests"]
        peak_utilization = signals["peak_utilization"]
        pressured = ((requests > 0 and signals["shed_rate"] > config.up_shed_rate)
                     or peak_utilization >= config.up_utilization)
        calm = shed == 0 and peak_utilization <= config.down_utilization
        if pressured and shards < config.max_shards:
            self._calm_ticks = 0
            report = self.cluster.add_shard()
            reason = (f"shed {shed}/{requests} requests" if shed
                      else f"peak utilization {peak_utilization:.2f}")
            self._commit(at_s, report, reason, signals, from_shards=shards)
        elif calm:
            self._calm_ticks += 1
            if self._calm_ticks >= config.down_patience and shards > config.min_shards:
                victim = self._pick_victim(signals["peaks"])
                report = self.cluster.remove_shard(victim)
                self._commit(at_s, report,
                             f"calm for {self._calm_ticks} ticks",
                             signals, from_shards=shards)
                self._calm_ticks = 0
        else:
            self._calm_ticks = 0

    def _pick_victim(self, peaks: Dict[int, int]) -> int:
        """The least-loaded shard this window; ties broken by the seeded rng."""
        loads = {worker.shard_id: peaks.get(worker.shard_id, 0)
                 for worker in self.cluster.workers}
        quietest = min(loads.values())
        candidates = sorted(shard for shard, load in loads.items()
                            if load == quietest)
        return int(candidates[self._rng.integers(len(candidates))])

    def _commit(self, at_s: float, report: ScaleReport, reason: str,
                signals: Dict[str, Any], *, from_shards: int) -> None:
        self.events.append(ScaleEvent(
            tick=self.ticks, at_s=at_s,
            action="up" if report.action == "add" else "down",
            shard_id=report.shard_id, from_shards=from_shards,
            to_shards=report.num_shards, reason=reason,
            migrated_entries=report.migrated_entries, signals=signals))
        self._cooldown = self.config.cooldown_ticks

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def autoscale_snapshot(self) -> Dict[str, Any]:
        """The autoscaler's own state, JSON-shaped."""
        return {
            "min_shards": self.config.min_shards,
            "max_shards": self.config.max_shards,
            "tick_interval_s": self.config.tick_interval_s,
            "initial_shards": self.initial_shards,
            "current_shards": self.cluster.num_shards,
            "ticks": self.ticks,
            "shard_ticks": self.shard_ticks,
            "scale_ups": sum(event.action == "up" for event in self.events),
            "scale_downs": sum(event.action == "down" for event in self.events),
            "migrated_entries": sum(event.migrated_entries
                                    for event in self.events),
            "events": [event.as_dict() for event in self.events],
        }

    def telemetry_snapshot(self) -> Dict[str, Any]:
        """The wrapped cluster's snapshot plus an ``autoscale`` section."""
        snapshot = self.cluster.telemetry_snapshot()
        snapshot["autoscale"] = self.autoscale_snapshot()
        return snapshot
