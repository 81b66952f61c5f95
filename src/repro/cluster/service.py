"""The cluster facade: sharded, replicated serving with deterministic failover.

``ClusterService`` runs N shard workers — each an independent
:class:`repro.serving.RecommendationService` with its own result cache,
micro-batcher and telemetry over the *shared* frozen artifacts — behind a
consistent-hash router:

1. a request's user keys into the ring; its replica chain is the primary
   shard followed by ``replication_factor - 1`` distinct backups;
2. unavailable shards (per the :class:`~repro.cluster.health.HealthModel`)
   are skipped, so a failed primary deterministically fails over to its first
   healthy replica — and because every shard searches the same frozen
   policy/representations, the failover answer is *identical* to the one the
   primary would have served;
3. the :class:`~repro.cluster.admission.AdmissionController` bounds how many
   requests one burst may queue on a shard; overflow spills to replicas, and
   when the whole chain is saturated the request is **shed** into the shard's
   fallback tier chain (stale cache → embedding top-k) by rewriting its
   latency budget to zero — backpressure degrades answers, it never stalls;
4. if no replica is available at all, any healthy shard stands in (every
   shard holds the full model), and only a fully-down cluster raises.

The facade exposes the exact ``serve``/``serve_many`` surface of a single
:class:`~repro.serving.RecommendationService`, plus the reference attributes
(``recommender``/``graph``/``tiers``) the :mod:`repro.simulate` oracles
expect — so :class:`~repro.simulate.ReplayDriver` and the whole oracle
battery run against a cluster unchanged.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..darl.inference import PathRecommender
from ..serving.service import (
    RecommendationRequest,
    RecommendationResponse,
    RecommendationService,
    ServingConfig,
)
from .admission import AdmissionController
from .breaker import CircuitBreaker
from .config import ClusterConfig
from .health import HealthModel
from .ring import ConsistentHashRing
from .telemetry import ClusterTelemetry


class ClusterUnavailableError(RuntimeError):
    """Raised when no healthy shard is left to answer a request."""


@dataclass
class RoutingStats:
    """Cumulative routing outcomes since construction."""

    requests: int = 0
    primary: int = 0      # served by the key's primary shard
    failover: int = 0     # primary unavailable → served by a replica/stand-in
    overflow: int = 0     # primary full → served by a replica with capacity
    shed: int = 0         # whole chain saturated → fallback tier chain
    retries: int = 0      # serve attempts repeated on another shard
    faulted: int = 0      # answers that carry fault provenance

    def count(self, disposition: str) -> None:
        """Count one routed request under how it reached its shard."""
        self.requests += 1
        if disposition == "primary":
            self.primary += 1
        elif disposition == "failover":
            self.failover += 1
        elif disposition == "overflow":
            self.overflow += 1
        elif disposition == "shed":
            self.shed += 1
        else:
            raise ValueError(f"unknown disposition {disposition!r}")

    def as_dict(self) -> Dict[str, int]:
        return {"requests": self.requests, "primary": self.primary,
                "failover": self.failover, "overflow": self.overflow,
                "shed": self.shed, "retries": self.retries,
                "faulted": self.faulted}


@dataclass
class ShardWorker:
    """One shard: an id plus its independent serving facade."""

    shard_id: int
    service: RecommendationService


@dataclass(frozen=True)
class ScaleReport:
    """Outcome of one :meth:`ClusterService.add_shard` / ``remove_shard``.

    ``migrated_entries`` counts result-cache entries that were warm-migrated
    to their new owner instead of being cold-started or dropped.
    """

    action: str            # "add" | "remove"
    shard_id: int
    num_shards: int        # cluster size after the change
    migrated_entries: int


class _Dispatch(NamedTuple):
    """Where one request goes and as what."""

    shard_id: int
    disposition: str
    request: RecommendationRequest   # possibly budget-rewritten (shed)
    #: Fault provenance decided at dispatch time (e.g. "circuit_open").
    fault: Optional[str] = None
    #: Serve outside the shard groups with the injector bypassed — the
    #: router's own degraded answer when no shard is dispatchable.
    bypass: bool = False


class ClusterService:
    """N shard workers behind a consistent-hash router with failover.

    Build one from prebuilt per-shard services, or via :meth:`from_cadrl` /
    :meth:`from_artifacts`, which clone an independent
    :class:`~repro.darl.inference.PathRecommender` per shard over the shared
    frozen tables (own milestone/action caches per shard, zero weight copies).
    """

    def __init__(self, services: Sequence[RecommendationService], *,
                 config: Optional[ClusterConfig] = None,
                 clock: Callable[[], float] = time.perf_counter,
                 health: Optional[HealthModel] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 name: str = "ClusterService") -> None:
        workers = list(services)
        if not workers:
            raise ValueError("a cluster needs at least one shard service")
        if config is None:
            config = ClusterConfig(num_shards=len(workers),
                                   replication_factor=min(2, len(workers)))
        config.validate()
        if config.num_shards != len(workers):
            raise ValueError(f"config says {config.num_shards} shards but "
                             f"{len(workers)} services were provided")
        self.config = config
        self.name = name
        self._clock = clock
        self.workers = [ShardWorker(shard_id=shard, service=service)
                        for shard, service in enumerate(workers)]
        self._workers_by_id = {worker.shard_id: worker for worker in self.workers}
        self._next_shard_id = len(self.workers)
        self.ring = ConsistentHashRing(range(len(workers)),
                                       virtual_nodes=config.virtual_nodes,
                                       seed=config.seed)
        self.health = health or HealthModel(range(len(workers)), clock=clock)
        for shard in config.failed_shards:
            self.health.fail(shard)
        self.admission = AdmissionController(config.max_queue_per_shard)
        self.routing = RoutingStats()
        self.telemetry = ClusterTelemetry(self.workers)
        #: Optional per-shard circuit breakers, consulted ahead of the health
        #: model during dispatch.  ``None`` keeps the legacy routing exactly.
        self.breaker = breaker
        #: Optional fault injector (``repro.faults``), attached via
        #: ``FaultInjector.install``; duck-typed so the cluster never imports
        #: the faults package.
        self.injector = None
        #: The "fault shadow": cache keys whose answers a fault path touched
        #: (reroute, retry, shed), mapped to the provenance later answers for
        #: the same key inherit.  A fault can perturb cache *placement* — a
        #: retried request warms a replica's cache instead of its primary's —
        #: and the drift outlives the fault itself; conservatively stamping
        #: every answer downstream of a perturbed key keeps the
        #: fault-tolerance oracle's contract exact.  Empty (and unread)
        #: without a breaker or injector.
        self._fault_shadow: Dict[Tuple[int, int, Tuple[int, ...]], str] = {}

    # ------------------------------------------------------------------ #
    # construction over shared artifacts
    # ------------------------------------------------------------------ #
    @classmethod
    def from_cadrl(cls, model, *, transe=None,
                   config: Optional[ClusterConfig] = None,
                   serving_config: Optional[ServingConfig] = None,
                   clock: Callable[[], float] = time.perf_counter,
                   breaker: Optional[CircuitBreaker] = None,
                   name: str = "CADRL (cluster)") -> "ClusterService":
        """A cluster of shard services over one fitted :class:`repro.darl.CADRL`.

        Each shard gets its *own* :class:`PathRecommender` (so milestone and
        action caches are per-shard, like real workers) cloned from the
        model's recommender — same policy object, same frozen tables, same
        search hyper-parameters — which is what makes failover answers
        bit-identical across shards.
        """
        if model.recommender is None:
            raise RuntimeError("CADRL.fit must be called before serving")
        config = config or ClusterConfig()
        config.validate()
        services = [RecommendationService(
                        PathRecommender.like(model.recommender), transe=transe,
                        config=serving_config, clock=clock,
                        name=f"{name}/shard-{shard}")
                    for shard in range(config.num_shards)]
        return cls(services, config=config, clock=clock, breaker=breaker,
                   name=name)

    @classmethod
    def from_artifacts(cls, path, *, config: Optional[ClusterConfig] = None,
                       serving_config: Optional[ServingConfig] = None,
                       clock: Callable[[], float] = time.perf_counter,
                       breaker: Optional[CircuitBreaker] = None,
                       name: str = "CADRL (cluster from artifacts)"
                       ) -> "ClusterService":
        """Boot a whole cluster from a persisted pipeline directory.

        The cluster spec defaults to the persisted ``RunConfig.cluster``
        section, the serving knobs to its ``serving`` section.
        """
        from ..pipeline import load_pipeline  # deferred: keep imports light

        result = load_pipeline(path, until=("train",))
        return cls.from_cadrl(
            result.cadrl, transe=result.transe,
            config=config or result.config.cluster,
            serving_config=serving_config or result.config.serving,
            clock=clock, breaker=breaker, name=name)

    # ------------------------------------------------------------------ #
    # reference surface (oracles, reports, duck-typed callers)
    # ------------------------------------------------------------------ #
    @property
    def _reference(self) -> RecommendationService:
        return self.workers[0].service

    @property
    def graph(self):
        return self._reference.graph

    @property
    def recommender(self):
        """A reference recommender over the shared artifacts.

        Every shard searches the same frozen tables, so shard 0's recommender
        reproduces any shard's full-search answer — which is exactly what the
        :class:`repro.simulate.FullSearchOracle` recomputes against.
        """
        return self._reference.recommender

    @property
    def tiers(self):
        return self._reference.tiers

    @property
    def num_shards(self) -> int:
        return len(self.workers)

    def worker(self, shard_id: int) -> ShardWorker:
        """The live worker for a shard id (ids are sparse once elastic)."""
        worker = self._workers_by_id.get(shard_id)
        if worker is None:
            raise ValueError(f"unknown shard {shard_id} (cluster has "
                             f"{sorted(self._workers_by_id)})")
        return worker

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def replica_chain(self, user_entity: int) -> Tuple[int, ...]:
        """The deterministic shard preference order for a user's requests."""
        return self.ring.replicas(user_entity, self.config.replication_factor)

    def _breaker_allows(self, shard_id: int) -> bool:
        return self.breaker is None or self.breaker.allows(shard_id)

    def _claim(self, shard_id: int) -> int:
        """Mark the shard as actually dispatched-to (arms a half-open probe)."""
        if self.breaker is not None:
            self.breaker.arm_probe(shard_id)
        return shard_id

    def _dispatch(self, request: RecommendationRequest) -> _Dispatch:
        """Assign one request to a shard under breaker + health + admission.

        One walk down the replica chain: each healthy shard the breaker
        allows is offered the request until one admits it.  The circuit
        breaker is consulted *ahead of* admission: a shard whose breaker is
        open is skipped exactly like an unhealthy one, so a
        repeatedly-failing shard loses traffic long before any scripted
        health event marks it down.  Any shard chosen *past* a healthy shard
        its breaker vetoed is a breaker-caused reroute, and its answer
        carries ``circuit_open`` provenance: the replica's cache state may
        legitimately produce a different (degraded) answer than the clean
        replay's primary would have.  With a breaker the walk polls the rest
        of the chain after the admitting shard too: polling an open breaker
        whose cooldown has elapsed records its half-open transition, and
        that record must not wait for a later request.
        """
        chain = self.replica_chain(request.user_entity)
        health, breaker, admission = self.health, self.breaker, self.admission
        chosen: Optional[_Dispatch] = None
        spare: Optional[int] = None       # first allowed shard that was full
        first_blocked = len(chain)        # first healthy shard a breaker vetoed
        primary_allowed = False
        for position, shard in enumerate(chain):
            if not health.is_available(shard):
                continue
            if breaker is not None and not breaker.allows(shard):
                first_blocked = min(first_blocked, position)
                continue
            if chosen is not None:
                continue
            if position == 0:
                primary_allowed = True
            if admission.try_admit(shard):
                disposition = ("primary" if position == 0 else
                               "overflow" if primary_allowed else "failover")
                chosen = _Dispatch(shard, disposition, request,
                                   fault=("circuit_open"
                                          if position > first_blocked
                                          else None))
                if breaker is None:
                    return chosen
            elif spare is None:
                spare = shard
        if chosen is not None:
            self._claim(chosen.shard_id)
            return chosen
        fault = "circuit_open" if first_blocked < len(chain) else None
        if spare is None:
            # Whole replica chain is unavailable.  Any healthy shard can
            # stand in (each holds the full model); scan in id order so the
            # choice is deterministic.
            healthy = health.available_shards()
            for shard in healthy:
                if not self._breaker_allows(shard):
                    continue
                if admission.try_admit(shard):
                    return _Dispatch(self._claim(shard), "failover", request,
                                     fault=fault)
                if spare is None:
                    spare = shard
            if spare is None:
                if not healthy:
                    raise ClusterUnavailableError(
                        f"no healthy shard left in {self.name} "
                        f"(health: {health.snapshot()})")
                # Every healthy shard's breaker is open: answer locally from
                # the cheap fallback tiers with explicit provenance instead
                # of hammering shards the breakers just isolated.
                shed = dataclasses.replace(request, latency_budget_ms=0.0)
                anchor = next((shard for shard in chain if shard in healthy),
                              healthy[0])
                return _Dispatch(anchor, "shed", shed,
                                 fault="circuit_open", bypass=True)
        # Every available shard is at its queue bound: shed into the first
        # one's fallback tier chain by zeroing the latency budget — the shard
        # then answers from its stale cache or the embedding tier, both far
        # below full-search cost, instead of deepening the queue.
        shed = dataclasses.replace(request, latency_budget_ms=0.0)
        return _Dispatch(self._claim(spare), "shed", shed, fault=fault)

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def serve_many(self, requests: Sequence[RecommendationRequest]
                   ) -> List[RecommendationResponse]:
        """Route one burst: group by shard, serve each group batched.

        Dispatch walks the burst in order (admission is order-dependent and
        therefore replayable); each shard's group keeps its relative order
        and is answered by that shard's own ``serve_many`` (dedup + batched
        frontier search), and the responses are stitched back into the
        original request order.
        """
        self.admission.begin_burst()
        routing = self.routing
        dispatches: List[_Dispatch] = []
        groups: Dict[int, List[int]] = {}
        bypassed: List[int] = []
        for index, request in enumerate(requests):
            dispatch = self._dispatch(request)
            routing.count(dispatch.disposition)
            dispatches.append(dispatch)
            if dispatch.bypass:
                bypassed.append(index)
            else:
                groups.setdefault(dispatch.shard_id, []).append(index)

        provenance = self.breaker is not None or self.injector is not None
        responses: List[Optional[RecommendationResponse]] = [None] * len(dispatches)
        for shard_id in sorted(groups):
            indices = groups[shard_id]
            batch = [dispatches[index].request for index in indices]
            try:
                served = self._serve_on_shard(shard_id, batch)
            except Exception as error:  # repro: ignore[EXC001] a faulted shard must fail over per request, never crash the burst; the failure feeds the breaker and is re-served below
                self._record_shard_failure(shard_id, error)
                served = [self._serve_with_retry(dispatches[index],
                                                 requests[index], error)
                          for index in indices]
            else:
                self._record_shard_success(shard_id)
            for index, response in zip(indices, served):
                dispatch = dispatches[index]
                if dispatch.disposition == "shed":
                    # Restore the caller's request (the zero-budget rewrite is
                    # an internal routing device) and mark the degradation, so
                    # replay records and oracles see an honest "this answer
                    # was shed by backpressure" instead of a tier-policy
                    # violation on an unconstrained request.
                    response.request = requests[index]
                    response.shed = True
                if provenance:
                    self._apply_fault_provenance(dispatch, requests[index],
                                                 response)
                if response.fault is not None:
                    routing.faulted += 1
                responses[index] = response

        for index in bypassed:   # only open breakers bypass the shards
            dispatch = dispatches[index]
            response = self._shed_serve(
                requests[index], dispatch.shard_id, dispatch.fault)
            self._apply_fault_provenance(dispatch, requests[index], response)
            routing.faulted += 1
            responses[index] = response
        return responses  # type: ignore[return-value]

    @staticmethod
    def _shadow_key(request: RecommendationRequest
                    ) -> Tuple[int, int, Tuple[int, ...]]:
        """The result-cache identity of a request (the fault-shadow key)."""
        return (request.user_entity, request.top_k,
                tuple(sorted(request.exclude_items)))

    def _apply_fault_provenance(self, dispatch: _Dispatch,
                                request: RecommendationRequest,
                                response: RecommendationResponse) -> None:
        """Stamp and propagate fault provenance for one answered request.

        Provenance precedence: whatever the serve path already stamped (shed
        and retry answers), then the dispatch decision (breaker reroutes),
        then the fault shadow of the request's cache key.  Any stamped answer
        taints the key, so answers downstream of fault-perturbed cache state
        stay accounted for.  Only a cluster with a breaker or an injector
        keeps provenance.
        """
        key = self._shadow_key(request)
        if response.fault is None:
            response.fault = dispatch.fault or self._fault_shadow.get(key)
        if response.fault is not None:
            self._fault_shadow[key] = response.fault

    # ------------------------------------------------------------------ #
    # fault path: injector shims, breaker accounting, retries, local sheds
    # ------------------------------------------------------------------ #
    def _serve_on_shard(self, shard_id: int,
                        batch: Sequence[RecommendationRequest]
                        ) -> List[RecommendationResponse]:
        """One serve attempt on one shard, through the fault-injection shim."""
        if self.injector is not None:
            self.injector.before_shard_serve(shard_id)
        served = self.worker(shard_id).service.serve_many(batch)
        if self.injector is not None:
            penalty = self.injector.latency_penalty_ms(shard_id)
            if penalty > 0.0:
                for response in served:
                    response.latency_ms += penalty
        return served

    def _record_shard_failure(self, shard_id: int, error: Exception) -> None:
        if self.breaker is not None:
            self.breaker.record_failure(shard_id, detail=type(error).__name__)

    def _record_shard_success(self, shard_id: int) -> None:
        if self.breaker is not None:
            self.breaker.record_success(shard_id)

    def _serve_with_retry(self, dispatch: _Dispatch,
                          original: RecommendationRequest,
                          error: Exception) -> RecommendationResponse:
        """Re-serve one request after its shard failed mid-burst.

        Walks the replica chain (then any healthy stand-in) in deterministic
        order, bounded by ``config.max_retries``, charging an exponential
        backoff to the *reported* latency only (virtual time never stalls on
        a retry).  When the budget runs out the request degrades into the
        shed path with ``fault="retry_exhausted"`` — it is always answered.
        """
        request = dispatch.request
        chain = self.replica_chain(request.user_entity)
        candidates = [shard for shard in chain
                      if shard != dispatch.shard_id
                      and self.health.is_available(shard)
                      and self._breaker_allows(shard)]
        for shard in self.health.available_shards():
            if (shard != dispatch.shard_id and shard not in candidates
                    and self._breaker_allows(shard)):
                candidates.append(shard)
        backoff_ms = self.config.retry_backoff_ms
        attempts = 0
        waited_ms = 0.0
        for shard_id in candidates:
            if attempts >= self.config.max_retries:
                break
            attempts += 1
            waited_ms += backoff_ms
            backoff_ms *= 2.0
            self.routing.retries += 1
            if self.injector is not None:
                self.injector.record_defense(
                    "retry", f"shard:{shard_id}",
                    detail=f"user {request.user_entity}, attempt {attempts}")
            try:
                response = self._serve_on_shard(self._claim(shard_id),
                                                [request])[0]
            except Exception as retry_error:  # repro: ignore[EXC001] a failed retry feeds the breaker and moves on to the next candidate; exhaustion degrades to the shed path below
                self._record_shard_failure(shard_id, retry_error)
                continue
            self._record_shard_success(shard_id)
            if dispatch.disposition == "shed":
                response.request = original
                response.shed = True
            if response.fault is None:
                # A successful retry still serves off-primary state: the
                # answer is only as fresh as the replica's cache, so it
                # carries (ledger-explained) provenance rather than claiming
                # bit-identity with the clean replay.
                response.fault = "retried"
            response.latency_ms += waited_ms
            return response
        if self.injector is not None:
            self.injector.record_defense(
                "retry_exhausted", f"user:{original.user_entity}",
                detail=f"{attempts} retries after {type(error).__name__}")
        return self._shed_serve(original, dispatch.shard_id,
                                "retry_exhausted", extra_latency_ms=waited_ms)

    def _shed_serve(self, request: RecommendationRequest, shard_id: int,
                    fault: Optional[str], *,
                    extra_latency_ms: float = 0.0) -> RecommendationResponse:
        """The router's local degraded answer, with explicit fault provenance.

        Serves the zero-budget rewrite on the anchor shard's cheap fallback
        tiers with the injector *bypassed* — this models the router answering
        from replicated cache/embedding state, which is what guarantees 100%
        of requests are answered even when every shard is faulted.
        """
        shed_request = dataclasses.replace(request, latency_budget_ms=0.0)
        response = self.worker(shard_id).service.serve_many([shed_request])[0]
        response.request = request
        response.shed = True
        response.fault = fault
        response.latency_ms += extra_latency_ms
        if self.injector is not None and fault == "circuit_open":
            self.injector.record_defense(
                "circuit_open_shed", f"shard:{shard_id}",
                detail=f"user {request.user_entity}")
        return response

    def serve(self, request: RecommendationRequest) -> RecommendationResponse:
        """Answer one request (a singleton burst through the same router)."""
        return self.serve_many([request])[0]

    # ------------------------------------------------------------------ #
    # request helpers (same surface as RecommendationService)
    # ------------------------------------------------------------------ #
    def build_requests(self, user_entities, top_k=None, exclude_items=None,
                       latency_budget_ms=None) -> List[RecommendationRequest]:
        return self._reference.build_requests(
            user_entities, top_k=top_k, exclude_items=exclude_items,
            latency_budget_ms=latency_budget_ms)

    def warm_up(self, user_entities, top_k=None) -> List[RecommendationResponse]:
        """Pre-populate each shard's caches for its slice of the audience."""
        return self.serve_many(self.build_requests(user_entities, top_k=top_k))

    def invalidate_user(self, user_entity: int) -> int:
        """Drop the user's cached state on *every* shard.

        Failover and overflow mean a user's results may live on any replica,
        so invalidation fans out; returns the number of dropped cache entries
        across the cluster.
        """
        return sum(worker.service.invalidate_user(user_entity)
                   for worker in self.workers)

    def invalidate_entities(self, entities) -> int:
        """Scoped cluster-wide invalidation after a streaming delta.

        Fans :meth:`RecommendationService.invalidate_entities` out to every
        shard (replicas may cache any user); returns the total number of
        dropped result-cache entries.
        """
        touched = set(entities)
        return sum(worker.service.invalidate_entities(touched)
                   for worker in self.workers)

    # ------------------------------------------------------------------ #
    # live generation swap
    # ------------------------------------------------------------------ #
    def replace_shard_service(self, shard_id: int,
                              service: RecommendationService, *,
                              carry_cache: bool = True,
                              carry_telemetry: bool = True
                              ) -> RecommendationService:
        """Swap one shard's serving facade in place (live generation flip).

        Called between bursts by the :class:`repro.live.EpochSwapCoordinator`;
        the shard slot, ring position, health state and admission queue all
        stay put — only the facade behind them changes.  By default the new
        service inherits the outgoing one's result cache and telemetry
        objects: cached answers of untouched users survive the flip (still
        reporting the generation that computed them, via
        ``CachedResult.generation``) and the shard's rolling telemetry window
        and search counts span the swap.  The carried cache's stored search
        outcomes are dropped: they were computed by the outgoing tables and
        must never answer for the incoming ones.  Returns the replaced
        service.
        """
        worker = self.worker(shard_id)
        outgoing = worker.service
        if carry_cache:
            outgoing.cache.searches.clear()
            service.cache = outgoing.cache
        if carry_telemetry:
            service.telemetry = outgoing.telemetry
            service.search_stats = outgoing.search_stats
        worker.service = service
        return outgoing

    def shard_generations(self) -> Dict[int, int]:
        """Artifact generation currently served by each shard."""
        return {worker.shard_id: getattr(worker.service, "generation", 0)
                for worker in self.workers}

    # ------------------------------------------------------------------ #
    # elastic membership (autoscaling)
    # ------------------------------------------------------------------ #
    def clone_reference_service(self, *, name: Optional[str] = None
                                ) -> RecommendationService:
        """A fresh shard service over the reference worker's frozen tables.

        A :meth:`PathRecommender.like` clone of the reference recommender
        (private milestone/action caches) with the same fallback model, its
        own result cache and telemetry — exactly what a newly provisioned
        worker process would boot with.  Carries the reference shard's
        current artifact generation.
        """
        reference = self._reference
        return RecommendationService(
            PathRecommender.like(reference.recommender),
            transe=reference.transe, config=reference.config,
            clock=self._clock,
            name=name or f"{self.name}/shard-{self._next_shard_id}",
            generation=reference.generation)

    def add_shard(self) -> ScaleReport:
        """Grow the cluster by one shard, live, between bursts.

        The new shard is a :meth:`clone_reference_service`.  The ring's
        bounded-remap guarantee means only the keys the new shard now owns
        move — an expected ``1/(n+1)`` of the population, all of them *to*
        the new shard — and the displaced result cache entries follow their
        keys (expiry deadlines intact), so the new shard starts warm for
        exactly the users it just took over instead of recomputing answers
        the cluster already holds.
        """
        shard_id = self._next_shard_id
        worker = ShardWorker(shard_id=shard_id,
                             service=self.clone_reference_service())
        self._next_shard_id += 1
        self.workers.append(worker)
        self._workers_by_id[shard_id] = worker
        self.health.add_shard(shard_id)
        self.ring.add_shard(shard_id)
        migrated = 0
        target = worker.service.cache
        for donor in self.workers:
            if donor.shard_id == shard_id:
                continue
            displaced = donor.service.cache.extract_entries(
                lambda key: self.ring.primary(key[0]) == shard_id)
            migrated += target.absorb(displaced)
        return ScaleReport(action="add", shard_id=shard_id,
                           num_shards=self.num_shards,
                           migrated_entries=migrated)

    def remove_shard(self, shard_id: int) -> ScaleReport:
        """Decommission one shard, handing its hot cache entries to the
        shards that inherit its key ranges.

        Only the removed shard's keys remap (ring guarantee); each of its
        surviving cache entries is pushed to its key's *new* primary unless
        that shard already holds a copy (overflow/failover may have written
        one, and the local copy is at least as fresh).
        """
        worker = self.worker(shard_id)
        if len(self.workers) == 1:
            raise ValueError("cannot remove the last shard of the cluster")
        displaced = worker.service.cache.export_entries()
        self.ring.remove_shard(shard_id)
        self.workers.remove(worker)
        del self._workers_by_id[shard_id]
        self.health.remove_shard(shard_id)
        self.admission.forget_shard(shard_id)
        if self.breaker is not None:
            self.breaker.forget_shard(shard_id)
        migrated = 0
        for entry in displaced:
            owner = self.worker(self.ring.primary(entry.key[0]))
            migrated += owner.service.cache.absorb([entry])
        return ScaleReport(action="remove", shard_id=shard_id,
                           num_shards=self.num_shards,
                           migrated_entries=migrated)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def telemetry_snapshot(self) -> Dict:
        """Merged cluster telemetry plus routing, admission and health state."""
        snapshot = self.telemetry.snapshot()
        snapshot["routing"] = self.routing.as_dict()
        snapshot["admission"] = self.admission.stats.as_dict()
        snapshot["health"] = self.health.snapshot()
        snapshot["topology"] = {
            "num_shards": self.num_shards,
            "replication_factor": self.config.replication_factor,
            "virtual_nodes": self.config.virtual_nodes,
            "max_queue_per_shard": self.config.max_queue_per_shard,
        }
        snapshot["generations"] = {str(shard): generation for shard, generation
                                   in self.shard_generations().items()}
        if self.breaker is not None:
            snapshot["breaker"] = self.breaker.snapshot()
        return snapshot

    # ------------------------------------------------------------------ #
    # timing-harness surface (duck-types the Table III recommender protocol)
    # ------------------------------------------------------------------ #
    def recommend_items(self, user_entity: int, top_k: int = 10) -> List[int]:
        """Ranked item entities through the full cluster path."""
        return self.serve(RecommendationRequest(user_entity=user_entity,
                                                top_k=top_k)).items

    def find_paths(self, user_entity: int, num_paths: int):
        """Raw path discovery on the user's primary (or failover) shard."""
        chain = self.replica_chain(user_entity)
        available = [shard for shard in chain if self.health.is_available(shard)]
        if not available:
            stand_ins = self.health.available_shards()
            if not stand_ins:
                raise ClusterUnavailableError(
                    f"no healthy shard left in {self.name} "
                    f"(health: {self.health.snapshot()})")
            available = [stand_ins[0]]
        return self.worker(available[0]).service.recommender.find_paths(
            user_entity, num_paths)
