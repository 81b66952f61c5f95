"""Workload combinators: composable, seeded transforms over request traces.

A :class:`Scenario` is a named, ordered pipeline of trace transforms applied
to a generated :class:`~repro.simulate.workload.Workload`.  Each transform is
a frozen dataclass with a ``kind`` discriminator — JSON round-trippable and
content-``signature()``-able exactly like :class:`repro.faults.FaultPlan` —
and every random decision inside a transform is drawn from a generator seeded
by the transform's own ``seed`` field, so the same scenario applied to the
same trace produces the identical transformed trace bit for bit.

All time fields are **fractions of the trace span** (first to last arrival),
so a committed scenario spec stays meaningful whatever the trace length — the
same convention as ``FaultPlan``'s ``"timebase": "fraction"``.  A trace whose
span is zero (empty or single-request traces, or all arrivals coincident)
has no timeline to reshape, so time-based transforms leave it unchanged.

The combinator battery:

* :class:`PhaseSchedule` — splice arrival processes over time: the trace is
  cut into phases at span fractions and every inter-arrival gap is re-drawn
  from the phase's process (uniform or Poisson) at the phase's rate
  multiplier.  A request arriving exactly on a phase boundary belongs to the
  *later* phase (half-open ``[start, next)`` windows).
* :class:`DiurnalModulation` — deterministic sinusoidal rate modulation:
  gaps shrink at the cycle's peak and stretch in its trough, the classic
  day/night traffic shape.
* :class:`FlashCrowd` — an item-popularity shock: inside a window the
  arrival rate multiplies and a fraction of requests is retargeted onto the
  trace's few most popular users with bare (exclusion-free) requests, so one
  cache key family suddenly dominates.
* :class:`CohortCorrelation` — correlated user cohorts: users are split into
  seeded cohorts and each session window draws all its traffic from a single
  cohort — region- or tenant-skewed traffic instead of i.i.d. users.
* :class:`CacheBuster` — an adversary that defeats the result cache: a
  fraction of requests gets a rotating single-item exclusion (and optionally
  a rotated ``top_k``), so almost every request is a distinct cache key and
  the full-search tier eats the load.
* :class:`HotShardTargeting` — a shard-targeted hot-key attack: requests are
  retargeted onto users whose consistent-hash primary is one chosen shard,
  computed against the cluster's actual :class:`repro.cluster.ConsistentHashRing`
  geometry.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..canonical import canonical_sha256
from ..simulate.workload import SimulatedRequest, Workload, WorkloadConfig

SCENARIO_VERSION = 1

#: Arrival processes a :class:`Phase` may splice in.  ``bursty`` is excluded
#: on purpose: its two-state chain is a whole-trace property, not a per-gap
#: draw — compose :class:`PhaseSchedule` with a bursty base workload instead.
PHASE_PROCESSES = ("uniform", "poisson")


class ScenarioError(ValueError):
    """A scenario spec is invalid or cannot be applied to this trace."""


@dataclass(frozen=True)
class ScenarioContext:
    """What a transform may consult about the world it reshapes.

    Everything is optional: transforms that need a missing piece raise
    :class:`ScenarioError` naming it.  ``ring`` (the serving cluster's
    actual hash ring) overrides :class:`HotShardTargeting`'s own ring
    parameters, so CLI/Explorer runs always target the topology that will
    really serve the trace.
    """

    graph: Optional[object] = None          # KnowledgeGraph (duck-typed)
    population: Optional[object] = None     # simulate.UserPopulation
    ring: Optional[object] = None           # cluster.ConsistentHashRing

    def item_pool(self) -> Tuple[int, ...]:
        """Sorted item entity ids (needs ``graph``)."""
        if self.graph is None:
            raise ScenarioError("this transform needs a graph in the "
                                "ScenarioContext (item ids)")
        from ..kg.entities import EntityType

        return tuple(sorted(self.graph.entities.ids_of_type(EntityType.ITEM)))

    def user_pool(self, requests: Sequence[SimulatedRequest]) -> Tuple[int, ...]:
        """Candidate users: the population when given, else the trace's own."""
        if self.population is not None:
            return tuple(sorted(set(self.population.warm_users)
                                | set(self.population.cold_users)))
        return tuple(sorted({request.user_entity for request in requests}))

    def excludes_for(self, user: int,
                     had_excludes: bool) -> Tuple[int, ...]:
        """Exclusions for a retargeted request.

        A retargeted request keeps the *shape* "excludes my purchases" only
        when the graph is around to answer what the new user purchased;
        otherwise the exclusions are dropped (an exclusion set tailored to
        the original user would be meaningless noise on the new one).
        """
        if had_excludes and self.graph is not None:
            return tuple(sorted(self.graph.purchased_items(user)))
        return ()


# --------------------------------------------------------------------------- #
# shared trace helpers
# --------------------------------------------------------------------------- #
def _span(requests: Sequence[SimulatedRequest]) -> float:
    """First-to-last arrival span; 0.0 when there is no timeline to reshape."""
    if len(requests) < 2:
        return 0.0
    span = requests[-1].arrival_s - requests[0].arrival_s
    return span if math.isfinite(span) and span > 0.0 else 0.0


def _check_fraction(name: str, value: float,
                    closed_top: bool = True) -> None:
    top_ok = value <= 1.0 if closed_top else value < 1.0
    if not (math.isfinite(value) and 0.0 <= value and top_ok):
        bound = "[0, 1]" if closed_top else "[0, 1)"
        raise ScenarioError(f"{name} must lie in {bound}, got {value!r}")


# --------------------------------------------------------------------------- #
# transforms
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Phase:
    """One slice of a :class:`PhaseSchedule`.

    ``start`` is the slice's opening boundary as a fraction of the trace
    span; the slice runs to the next phase's start (the last one to the end
    of the trace).  ``rate_multiplier`` scales the workload's configured
    ``mean_qps`` inside the slice.
    """

    start: float
    arrival: str = "poisson"
    rate_multiplier: float = 1.0

    def __post_init__(self) -> None:
        _check_fraction("phase start", self.start)
        if self.arrival not in PHASE_PROCESSES:
            raise ScenarioError(f"phase arrival must be one of "
                                f"{PHASE_PROCESSES}, got {self.arrival!r}")
        if not (math.isfinite(self.rate_multiplier)
                and self.rate_multiplier > 0.0):
            raise ScenarioError("phase rate_multiplier must be finite and "
                                "positive")


@dataclass(frozen=True)
class PhaseSchedule:
    """Re-time the trace by splicing arrival processes over span fractions.

    Request order and shapes are untouched; only arrival times change.  The
    phase owning a request is chosen by the request's *original* arrival
    (half-open windows — a request exactly on a boundary opens the later
    phase), then every inter-arrival gap is re-drawn from the owning phase's
    process with mean gap ``1 / (mean_qps * rate_multiplier)``.
    """

    phases: Tuple[Phase, ...]
    seed: int = 0
    kind: str = "phase_schedule"

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(
            phase if isinstance(phase, Phase) else Phase(**phase)
            for phase in self.phases))
        if not self.phases:
            raise ScenarioError("a phase schedule needs at least one phase")
        starts = [phase.start for phase in self.phases]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ScenarioError("phase starts must be strictly increasing")
        if starts[0] != 0.0:
            raise ScenarioError("the first phase must start at 0.0")

    def apply(self, requests: Tuple[SimulatedRequest, ...],
              config: WorkloadConfig,
              context: ScenarioContext) -> Tuple[SimulatedRequest, ...]:
        span = _span(requests)
        if span == 0.0:
            return requests
        origin = requests[0].arrival_s
        boundaries = np.array([origin + phase.start * span
                               for phase in self.phases])
        rng = np.random.default_rng(self.seed)
        base_gap = 1.0 / config.mean_qps
        retimed: List[SimulatedRequest] = []
        now = origin
        for index, request in enumerate(requests):
            # side="right" puts a boundary-exact arrival into the later phase.
            slot = int(np.searchsorted(boundaries, request.arrival_s,
                                       side="right")) - 1
            phase = self.phases[max(slot, 0)]
            if index > 0:
                gap = base_gap / phase.rate_multiplier
                if phase.arrival == "poisson":
                    gap = float(rng.exponential(gap))
                now += gap
            retimed.append(replace(request, arrival_s=float(now)))
        return tuple(retimed)


@dataclass(frozen=True)
class DiurnalModulation:
    """Deterministic sinusoidal rate modulation (day/night cycles).

    The instantaneous rate factor at original arrival time ``t`` is
    ``1 + amplitude * sin(2π((t - t0)/(period·span) + phase))`` and every
    inter-arrival gap is divided by the factor at its request's original
    arrival — peaks compress traffic, troughs stretch it.  ``amplitude`` must
    stay below 1 so the factor stays positive and time keeps moving forward.
    """

    period: float = 0.5        # cycle length as a fraction of the span
    amplitude: float = 0.8
    phase: float = 0.0         # cycle offset in turns
    kind: str = "diurnal"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.period) and self.period > 0.0):
            raise ScenarioError("diurnal period must be finite and positive")
        _check_fraction("diurnal amplitude", self.amplitude, closed_top=False)
        if not math.isfinite(self.phase):
            raise ScenarioError("diurnal phase must be finite")

    def apply(self, requests: Tuple[SimulatedRequest, ...],
              config: WorkloadConfig,
              context: ScenarioContext) -> Tuple[SimulatedRequest, ...]:
        span = _span(requests)
        if span == 0.0:
            return requests
        origin = requests[0].arrival_s
        period_s = self.period * span

        def factor(at_s: float) -> float:
            turns = (at_s - origin) / period_s + self.phase
            return 1.0 + self.amplitude * math.sin(2.0 * math.pi * turns)

        retimed = [requests[0]]
        now = origin
        for previous, request in zip(requests, requests[1:]):
            gap = (request.arrival_s - previous.arrival_s) / factor(request.arrival_s)
            now += gap
            retimed.append(replace(request, arrival_s=float(now)))
        return tuple(retimed)


@dataclass(frozen=True)
class FlashCrowd:
    """An item-popularity shock: a sudden crowd piles onto few hot keys.

    Inside ``[start, start + duration)`` (span fractions) arrivals compress
    by ``rate_multiplier`` and each request is, with probability
    ``target_fraction``, retargeted onto one of the trace's ``hot_users``
    most-requested users with an exclusion-free request — the cache-key
    concentration a viral item produces.  Requests after the window keep
    their absolute arrivals, so the spike is followed by the original lull.
    """

    start: float = 0.4
    duration: float = 0.2
    rate_multiplier: float = 8.0
    hot_users: int = 3
    target_fraction: float = 0.8
    seed: int = 0
    kind: str = "flash_crowd"

    def __post_init__(self) -> None:
        _check_fraction("flash-crowd start", self.start)
        _check_fraction("flash-crowd duration", self.duration)
        if not (math.isfinite(self.rate_multiplier)
                and self.rate_multiplier >= 1.0):
            raise ScenarioError("flash-crowd rate_multiplier must be >= 1")
        if self.hot_users <= 0:
            raise ScenarioError("flash-crowd hot_users must be positive")
        _check_fraction("flash-crowd target_fraction", self.target_fraction)

    def apply(self, requests: Tuple[SimulatedRequest, ...],
              config: WorkloadConfig,
              context: ScenarioContext) -> Tuple[SimulatedRequest, ...]:
        span = _span(requests)
        if span == 0.0 or not requests:
            return requests
        origin = requests[0].arrival_s
        window_start = origin + self.start * span
        window_end = window_start + self.duration * span
        counts: Dict[int, int] = {}
        for request in requests:
            counts[request.user_entity] = counts.get(request.user_entity, 0) + 1
        # Deterministic popularity order: by descending count, then user id.
        ranked = sorted(counts, key=lambda user: (-counts[user], user))
        hot = ranked[: self.hot_users]
        rng = np.random.default_rng(self.seed)
        transformed: List[SimulatedRequest] = []
        for request in requests:
            if not window_start <= request.arrival_s < window_end:
                transformed.append(request)
                continue
            arrival = (window_start
                       + (request.arrival_s - window_start) / self.rate_multiplier)
            updates = {"arrival_s": float(arrival)}
            if rng.random() < self.target_fraction:
                user = hot[int(rng.integers(len(hot)))]
                updates.update(user_entity=user, exclude_items=())
            transformed.append(replace(request, **updates))
        return tuple(transformed)


@dataclass(frozen=True)
class CohortCorrelation:
    """Correlated user cohorts: each session window speaks for one cohort.

    Users are split into ``num_cohorts`` seeded cohorts; the trace is cut
    into sessions of ``session`` span fractions, each session draws a cohort
    (seeded), and every request in the session is retargeted onto a seeded
    member of that cohort — region-skewed or tenant-batched traffic instead
    of independently mixed users.
    """

    num_cohorts: int = 4
    session: float = 0.1       # session window length as a span fraction
    seed: int = 0
    kind: str = "cohorts"

    def __post_init__(self) -> None:
        if self.num_cohorts <= 0:
            raise ScenarioError("num_cohorts must be positive")
        if not (math.isfinite(self.session) and 0.0 < self.session <= 1.0):
            raise ScenarioError("cohort session must lie in (0, 1]")

    def apply(self, requests: Tuple[SimulatedRequest, ...],
              config: WorkloadConfig,
              context: ScenarioContext) -> Tuple[SimulatedRequest, ...]:
        if not requests:
            return requests
        users = context.user_pool(requests)
        rng = np.random.default_rng(self.seed)
        shuffled = [users[i] for i in rng.permutation(len(users))]
        cohorts = [shuffled[i::self.num_cohorts]
                   for i in range(min(self.num_cohorts, len(shuffled)))]
        span = _span(requests)
        origin = requests[0].arrival_s
        session_s = self.session * span
        if session_s > 0.0:
            num_sessions = int(math.floor(span / session_s)) + 1
        else:
            num_sessions = 1   # zero-span trace: one session covers everything
        chosen = rng.integers(len(cohorts), size=num_sessions)
        transformed: List[SimulatedRequest] = []
        for request in requests:
            if session_s > 0.0:
                slot = min(int((request.arrival_s - origin) / session_s),
                           num_sessions - 1)
            else:
                slot = 0
            cohort = cohorts[int(chosen[slot])]
            user = cohort[int(rng.integers(len(cohort)))]
            transformed.append(replace(
                request, user_entity=user,
                exclude_items=context.excludes_for(
                    user, bool(request.exclude_items))))
        return tuple(transformed)


@dataclass(frozen=True)
class CacheBuster:
    """An adversary rotating cache keys so the result cache never helps.

    With probability ``fraction`` a request gains a single-item exclusion
    drawn from a seeded rotation of ``rotation`` real item ids (and, when
    ``rotate_top_k`` is on, a ``top_k`` cycled through the workload's
    configured choices).  Every rotated request is a fresh cache key for the
    same user, so hit rates collapse and the full-search tier carries the
    trace — the worst case for capacity planning.  Needs ``context.graph``
    for the item pool.
    """

    fraction: float = 0.9
    rotation: int = 64
    rotate_top_k: bool = True
    seed: int = 0
    kind: str = "cache_buster"

    def __post_init__(self) -> None:
        _check_fraction("cache-buster fraction", self.fraction)
        if self.rotation <= 0:
            raise ScenarioError("cache-buster rotation must be positive")

    def apply(self, requests: Tuple[SimulatedRequest, ...],
              config: WorkloadConfig,
              context: ScenarioContext) -> Tuple[SimulatedRequest, ...]:
        if not requests:
            return requests
        pool = context.item_pool()
        if not pool:
            raise ScenarioError("cache_buster found no item entities in the "
                                "graph")
        rng = np.random.default_rng(self.seed)
        size = min(self.rotation, len(pool))
        wheel = [pool[i] for i in rng.choice(len(pool), size=size,
                                             replace=False)]
        top_k_wheel = tuple(sorted(set(config.top_k_choices)))
        transformed: List[SimulatedRequest] = []
        turned = 0
        for request in requests:
            if rng.random() >= self.fraction:
                transformed.append(request)
                continue
            item = wheel[turned % len(wheel)]
            updates = {"exclude_items": tuple(sorted(
                set(request.exclude_items) | {item}))}
            if self.rotate_top_k:
                updates["top_k"] = int(top_k_wheel[turned % len(top_k_wheel)])
            turned += 1
            transformed.append(replace(request, **updates))
        return tuple(transformed)


@dataclass(frozen=True)
class HotShardTargeting:
    """A shard-targeted hot-key attack against the consistent-hash ring.

    With probability ``fraction`` a request is retargeted onto a user whose
    ring *primary* is ``target_shard``.  The ring is the serving cluster's
    own when the context carries one (the CLI and the Explorer always pass
    it); otherwise it is rebuilt from the spec's ``num_shards`` /
    ``virtual_nodes`` / ``ring_seed`` — the same triple
    :class:`repro.cluster.ClusterService` boots from, so a committed spec
    targets the real topology.
    """

    target_shard: int = 0
    fraction: float = 0.85
    num_shards: int = 4
    virtual_nodes: int = 64
    ring_seed: int = 0
    seed: int = 0
    kind: str = "hot_shard"

    def __post_init__(self) -> None:
        _check_fraction("hot-shard fraction", self.fraction)
        if self.num_shards <= 0:
            raise ScenarioError("hot-shard num_shards must be positive")
        if self.virtual_nodes <= 0:
            raise ScenarioError("hot-shard virtual_nodes must be positive")
        if self.target_shard < 0:
            raise ScenarioError("hot-shard target_shard must be non-negative")

    def _ring(self, context: ScenarioContext):
        if context.ring is not None:
            return context.ring
        from ..cluster import ConsistentHashRing

        return ConsistentHashRing(range(self.num_shards),
                                  virtual_nodes=self.virtual_nodes,
                                  seed=self.ring_seed)

    def apply(self, requests: Tuple[SimulatedRequest, ...],
              config: WorkloadConfig,
              context: ScenarioContext) -> Tuple[SimulatedRequest, ...]:
        if not requests:
            return requests
        ring = self._ring(context)
        if self.target_shard not in ring.shards:
            raise ScenarioError(f"target shard {self.target_shard} is not on "
                                f"the ring (shards: {list(ring.shards)})")
        owned = ring.keys_for_shard(context.user_pool(requests),
                                    self.target_shard)
        if not owned:
            raise ScenarioError(f"no candidate user hashes to shard "
                                f"{self.target_shard}; widen the population "
                                f"or pick another target")
        rng = np.random.default_rng(self.seed)
        transformed: List[SimulatedRequest] = []
        for request in requests:
            if rng.random() >= self.fraction:
                transformed.append(request)
                continue
            user = owned[int(rng.integers(len(owned)))]
            transformed.append(replace(
                request, user_entity=user,
                exclude_items=context.excludes_for(
                    user, bool(request.exclude_items))))
        return tuple(transformed)


Transform = Union[PhaseSchedule, DiurnalModulation, FlashCrowd,
                  CohortCorrelation, CacheBuster, HotShardTargeting]

_TRANSFORM_TYPES: Dict[str, type] = {
    "phase_schedule": PhaseSchedule,
    "diurnal": DiurnalModulation,
    "flash_crowd": FlashCrowd,
    "cohorts": CohortCorrelation,
    "cache_buster": CacheBuster,
    "hot_shard": HotShardTargeting,
}


def transform_from_dict(payload: Dict) -> Transform:
    """Rebuild one transform from its JSON dict (``kind`` selects the type)."""
    data = dict(payload)
    kind = data.pop("kind", None)
    cls = _TRANSFORM_TYPES.get(kind)
    if cls is None:
        raise ScenarioError(f"unknown transform kind {kind!r} "
                            f"(choose from {sorted(_TRANSFORM_TYPES)})")
    if cls is PhaseSchedule and "phases" in data:
        data["phases"] = tuple(Phase(**phase) if isinstance(phase, dict)
                               else phase for phase in data["phases"])
    try:
        return cls(**data)
    except TypeError as error:
        raise ScenarioError(f"bad {kind} spec {payload!r}: {error}") from error


# --------------------------------------------------------------------------- #
# the scenario: an ordered transform pipeline with an identity
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Scenario:
    """A named, ordered, serialisable pipeline of workload transforms.

    ``apply`` runs the transforms in order over a trace, then normalises the
    result: requests are stably re-sorted by arrival time and re-indexed
    ``0..n-1``, so any transform output is a well-formed replayable trace.
    An empty transform tuple is the identity scenario — useful as the
    baseline cell of an Explorer sweep.
    """

    name: str
    transforms: Tuple[Transform, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("a scenario needs a non-empty name")
        object.__setattr__(self, "transforms", tuple(self.transforms))

    def apply(self, workload: Workload,
              context: Optional[ScenarioContext] = None) -> Workload:
        context = context or ScenarioContext()
        requests = workload.requests
        for transform in self.transforms:
            requests = transform.apply(requests, workload.config, context)
        ordered = sorted(requests, key=lambda request: request.arrival_s)
        reindexed = tuple(replace(request, index=index)
                          for index, request in enumerate(ordered))
        return Workload(config=workload.config, requests=reindexed)

    # ------------------------------------------------------------------ #
    # serialisation & identity (the FaultPlan conventions)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        return {"version": SCENARIO_VERSION, "name": self.name,
                "description": self.description,
                "transforms": [asdict(transform)
                               for transform in self.transforms]}

    @classmethod
    def from_dict(cls, payload: Dict) -> "Scenario":
        version = payload.get("version", SCENARIO_VERSION)
        if version != SCENARIO_VERSION:
            raise ScenarioError(f"unsupported scenario version {version!r}")
        name = payload.get("name")
        if not name:
            raise ScenarioError("scenario payload has no name")
        return cls(name=name, description=payload.get("description", ""),
                   transforms=tuple(transform_from_dict(entry)
                                    for entry in payload.get("transforms", ())))

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Scenario":
        return cls.from_json(Path(path).read_text())

    def signature(self) -> str:
        """SHA-256 over the canonical serialisation — spec identity in one line."""
        return canonical_sha256(self.to_dict())
