"""The online recommendation-serving facade.

``RecommendationService`` turns a trained :class:`~repro.darl.inference.
PathRecommender` — which holds the knowledge graph, category graph, CGGNN
representations, shared policy and search settings — into a service with one
request/response API:

* results are cached (LRU + TTL) on the full request identity;
* a burst is planned, then executed: keys are deduplicated and every
  unbudgeted full-search miss joins one batched frontier search;
* each user is beam-searched once per generation: the cache's search store
  keeps the user's full search outcome, and every later ``top_k``/exclusion
  shape of that user is derived from it (``search_stats`` counts both);
* cold users and over-budget requests degrade through the tier chain of
  :mod:`repro.serving.fallback` instead of failing or stalling;
* every request feeds the rolling telemetry (:mod:`repro.serving.telemetry`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..darl.inference import PathRecommender
from ..embeddings.transe import TransEModel
from ..rl.trajectory import RecommendationPath
from .cache import CacheKey, ResultCache
from .fallback import (
    RepresentationFallbackRanker,
    ServingTier,
    TieredRanker,
    TransEFallbackRanker,
)
from .telemetry import ServingTelemetry


@dataclass
class ServingConfig:
    """Operational knobs of the service (model knobs live in the recommender)."""

    cache_capacity: int = 1024
    cache_ttl_seconds: float = 300.0
    telemetry_window: int = 512
    assumed_full_search_ms: float = 50.0
    latency_ewma_alpha: float = 0.2
    default_top_k: int = 10

    def validate(self) -> None:
        if self.cache_capacity <= 0:
            raise ValueError("cache_capacity must be positive")
        if self.cache_ttl_seconds <= 0:
            raise ValueError("cache_ttl_seconds must be positive")
        if self.telemetry_window <= 1:
            raise ValueError("telemetry_window must be at least 2")
        if self.assumed_full_search_ms <= 0:
            raise ValueError("assumed_full_search_ms must be positive")
        if not 0.0 < self.latency_ewma_alpha <= 1.0:
            raise ValueError("latency_ewma_alpha must lie in (0, 1]")
        if self.default_top_k <= 0:
            raise ValueError("default_top_k must be positive")


@dataclass
class SearchStats:
    """Full-tier work of one service: searches run vs answers derived.

    ``searches`` counts beam searches actually run (one per distinct user
    missing from the search store); ``derived`` counts full answers that
    needed no search of their own (served from a stored or same-batch
    outcome).  Observability only: no signature reads them.
    """

    searches: int = 0
    derived: int = 0


@dataclass(frozen=True)
class RecommendationRequest:
    """One user's recommendation query.

    ``latency_budget_ms`` is the caller's deadline hint: requests whose budget
    is below the service's current full-search cost estimate are answered from
    a cheaper tier.  ``allow_stale`` opts in/out of expired cached results for
    such over-budget requests.
    """

    user_entity: int
    top_k: int = 10
    exclude_items: FrozenSet[int] = frozenset()
    latency_budget_ms: Optional[float] = None
    allow_stale: bool = True

    def __post_init__(self) -> None:
        if self.top_k <= 0:
            raise ValueError("top_k must be positive")
        if self.latency_budget_ms is not None and self.latency_budget_ms < 0:
            raise ValueError("latency_budget_ms must be non-negative")
        if not isinstance(self.exclude_items, frozenset):
            object.__setattr__(self, "exclude_items", frozenset(self.exclude_items))

    def cache_key(self) -> CacheKey:
        return (self.user_entity, self.top_k, self.exclude_items)


@dataclass(frozen=True)
class CachedResult:
    """What the result cache stores per key: the answer plus its provenance.

    ``source_tier`` records which tier *computed* the items (``FULL`` for beam
    search, ``EMBEDDING`` for cold-user fallback answers), so cache and stale
    hits can report where their payload originally came from — without this a
    cached cold-user embedding answer is indistinguishable from a cached full
    search, which blocks per-request correctness oracles (:mod:`repro.simulate`).
    """

    items: Tuple[int, ...]
    paths: Tuple[RecommendationPath, ...]
    source_tier: ServingTier
    #: Artifact generation whose tables computed this payload.  Survives
    #: cache/stale hits, so an answer computed before a live generation swap
    #: keeps reporting the generation it is actually consistent with.
    generation: int = 0


@dataclass
class RecommendationResponse:
    """Served result: ranked item entities plus provenance.

    ``tier`` is how *this* request was answered; ``source_tier`` is the tier
    that originally computed the payload (they differ on cache/stale hits,
    e.g. ``tier=CACHE, source_tier=FULL`` for a cached beam-search result).
    ``shed`` marks answers degraded by cluster backpressure
    (:class:`repro.cluster.ClusterService` saturation) rather than by the
    request's own latency budget — oracles judge such answers under
    degraded-tier rules even when the original request was unconstrained.
    """

    request: RecommendationRequest
    items: List[int]
    paths: List[RecommendationPath]
    tier: ServingTier
    source_tier: ServingTier
    cache_hit: bool
    latency_ms: float
    shed: bool = False
    #: Artifact generation that computed the payload (cache hits report the
    #: generation of the *cached* answer, not the serving service's own).
    generation: int = 0
    #: Fault provenance: ``None`` on the fault-free path, otherwise why the
    #: answer may deviate from the fault-free replay — ``"circuit_open"``
    #: (breakers rerouted or shed the request), ``"retried"`` (served via the
    #: retry path, or from cache state a retry perturbed),
    #: ``"retry_exhausted"`` (the retry budget ran out),
    #: ``"quarantined"`` (a corrupt generation was refused at swap time) or
    #: ``"swap_interrupted"`` (served while a crashed swap awaits recovery).
    fault: Optional[str] = None

    @property
    def explainable(self) -> bool:
        """Whether explanation paths are attached (full-search tiers only)."""
        return bool(self.paths)


class RecommendationService:
    """Facade over a trained :class:`PathRecommender` for online traffic.

    Wraps one recommender, which owns the tables and search settings: build
    it directly, clone one with :meth:`PathRecommender.like`, or use
    :meth:`from_cadrl` to serve a fitted :class:`repro.darl.CADRL` model's
    recommender.
    """

    def __init__(self, recommender: PathRecommender, *,
                 transe: Optional[TransEModel] = None,
                 config: Optional[ServingConfig] = None,
                 clock: Callable[[], float] = time.perf_counter,
                 name: str = "RecommendationService",
                 generation: int = 0) -> None:
        self.config = config or ServingConfig()
        self.config.validate()
        self.name = name
        self.generation = generation
        self._clock = clock
        self.recommender = recommender
        self.graph = recommender.graph
        self.cache = ResultCache(capacity=self.config.cache_capacity,
                                 ttl_seconds=self.config.cache_ttl_seconds,
                                 clock=clock)
        self.telemetry = ServingTelemetry(window=self.config.telemetry_window, clock=clock)
        self.search_stats = SearchStats()
        # Kept so a cluster can clone this shard's fallback stack when it
        # scales up (a new shard must rank with the same model to stay
        # bit-identical with its peers).
        self.transe = transe
        ranker = (TransEFallbackRanker(transe, self.graph) if transe is not None
                  else RepresentationFallbackRanker(recommender.representations,
                                                    self.graph))
        self.tiers = TieredRanker(self.graph, ranker,
                                  assumed_full_search_ms=self.config.assumed_full_search_ms,
                                  ewma_alpha=self.config.latency_ewma_alpha)

    @classmethod
    def from_cadrl(cls, model, *, transe: Optional[TransEModel] = None,
                   config: Optional[ServingConfig] = None,
                   clock: Callable[[], float] = time.perf_counter,
                   name: str = "CADRL (served)",
                   generation: int = 0) -> "RecommendationService":
        """Wrap a fitted :class:`repro.darl.CADRL` facade, reusing its recommender.

        ``clock`` is injectable like in the main constructor (e.g. a
        :class:`repro.simulate.TraceClock` for virtual-time load replays).
        """
        if model.recommender is None:
            raise RuntimeError("CADRL.fit must be called before serving")
        return cls(model.recommender, transe=transe, config=config, clock=clock,
                   name=name, generation=generation)

    @classmethod
    def from_artifacts(cls, path, *, config: Optional[ServingConfig] = None,
                       clock: Callable[[], float] = time.perf_counter,
                       name: str = "CADRL (served from artifacts)"
                       ) -> "RecommendationService":
        """Boot a service from a persisted pipeline directory.

        ``path`` is an artifact directory written by ``python -m repro run``
        (or :func:`repro.pipeline.save_pipeline`).  The model stack is
        restored purely from disk — no training code runs — so a fresh
        serving process can come up from artifacts alone.  ``config``
        overrides the persisted :class:`ServingConfig`; the TransE table is
        restored too, so the cold-user fallback tier ranks with the same
        geometry as the original process.
        """
        from ..pipeline import load_pipeline  # deferred: serving stays import-light

        result = load_pipeline(path, until=("train",))
        serving_config = config or result.config.serving
        return cls.from_cadrl(result.cadrl, transe=result.transe,
                              config=serving_config, clock=clock, name=name)

    # ------------------------------------------------------------------ #
    # request construction helpers
    # ------------------------------------------------------------------ #
    def build_requests(self, user_entities: Sequence[int], top_k: Optional[int] = None,
                       exclude_items: Optional[Dict[int, Iterable[int]]] = None,
                       latency_budget_ms: Optional[float] = None
                       ) -> List[RecommendationRequest]:
        """Uniform requests for a list of users (evaluation / warm-up helper)."""
        exclude_items = exclude_items or {}
        k = top_k or self.config.default_top_k
        return [RecommendationRequest(
                    user_entity=user, top_k=k,
                    exclude_items=frozenset(exclude_items.get(user, ())),
                    latency_budget_ms=latency_budget_ms)
                for user in user_entities]

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def serve(self, request: RecommendationRequest) -> RecommendationResponse:
        """Answer one request: a burst of one through :meth:`serve_many`."""
        return self.serve_many([request])[0]

    def serve_many(self, requests: Sequence[RecommendationRequest]
                   ) -> List[RecommendationResponse]:
        """Answer a burst of requests: plan, then execute.

        The plan deduplicates request keys, skips fresh cache hits and picks
        the tier of every unbudgeted request; all unbudgeted full-tier misses
        are then answered by **one** batched frontier search (milestone
        rollout and beam expansion advance in lock-step across the burst).
        Execution walks the burst in order through cache → tier → ranking,
        so duplicate keys collapse into cache hits after the first answer
        (full-search and cold-user results are cached; over-budget
        stale/embedding answers for warm users are not, so their keys stay
        free for a full result).  Budgeted requests choose their tier at
        execution time against the *current* cost estimate, so a mid-burst
        downgrade still avoids the full search; those that keep the full
        tier search inline.  Each full answer is charged its share of the
        search to both its latency and the tier cost estimator.
        """
        planned: List[RecommendationRequest] = []
        seen_keys = set()
        for request in requests:
            key = request.cache_key()
            if key in seen_keys or self.cache.has(key):
                continue
            seen_keys.add(key)
            if (request.latency_budget_ms is None
                    and self.tiers.choose(request, stale_available=self.cache.has_stale(key))
                    is ServingTier.FULL):
                planned.append(request)
        searched, share_ms = self._search(planned)
        return [self._execute(request, searched, share_ms) for request in requests]

    def _search(self, requests: Sequence[RecommendationRequest]
                ) -> Tuple[Dict[CacheKey, List[RecommendationPath]], float]:
        """One batched full search: ``{key: paths}`` and the per-request cost.

        Users whose outcome the cache's search store holds are not searched
        again; their answers are derived from it.
        """
        if not requests:
            return {}, 0.0
        store = self.cache.searches
        searched = sum(user not in store
                       for user in {request.user_entity for request in requests})
        start = self._clock()
        found = self.recommender.recommend_requests(
            [(request.user_entity, request.exclude_items, request.top_k)
             for request in requests], searches=store)
        share_ms = (self._clock() - start) * 1000.0 / len(requests)
        self.search_stats.searches += searched
        self.search_stats.derived += len(requests) - searched
        return ({request.cache_key(): paths for request, paths in zip(requests, found)},
                share_ms)

    def _execute(self, request: RecommendationRequest,
                 searched: Dict[CacheKey, List[RecommendationPath]],
                 share_ms: float) -> RecommendationResponse:
        """Answer one request through cache → tier selection → ranking."""
        start = self._clock()
        search_ms = 0.0
        key = request.cache_key()
        paths: Sequence[RecommendationPath] = ()
        generation = self.generation
        cached = self.cache.get(key)
        if cached is not None:
            items, paths, source_tier = cached.items, cached.paths, cached.source_tier
            generation = cached.generation
            tier, cache_hit = ServingTier.CACHE, True
        else:
            cache_hit = False
            tier = self.tiers.choose(request, stale_available=self.cache.has_stale(key))
            if tier is ServingTier.FULL:
                if key in searched:
                    search_ms = share_ms
                    paths = searched[key]
                else:   # budgeted, or evicted since the plan: search inline
                    paths = self._search([request])[0][key]
                items = [path.item_entity for path in paths]
                source_tier = ServingTier.FULL
                # Cached values are immutable tuples: responses hand out fresh
                # lists, so a caller mutating them cannot corrupt the cache.
                self.cache.put(key, CachedResult(tuple(items), tuple(paths),
                                                 ServingTier.FULL,
                                                 generation=self.generation))
                self.tiers.observe_full_search(
                    search_ms + (self._clock() - start) * 1000.0)
            elif tier is ServingTier.STALE:
                stale = self.cache.get_stale(key)
                items, paths, source_tier = stale.items, stale.paths, stale.source_tier
                generation = stale.generation
            else:
                items = self.tiers.fallback_items(request)
                source_tier = ServingTier.EMBEDDING
                if self.tiers.is_cold(request.user_entity):
                    # For cold users the full tier is never an option, so the
                    # embedding answer is the best one — cache it.  Over-budget
                    # warm users are *not* cached: their key must stay free for
                    # the full-quality result a generous request will compute.
                    self.cache.put(key, CachedResult(tuple(items), (),
                                                     ServingTier.EMBEDDING,
                                                     generation=self.generation))
        latency_ms = search_ms + (self._clock() - start) * 1000.0
        self.telemetry.record(latency_ms, tier, cache_hit=cache_hit)
        return RecommendationResponse(request=request, items=list(items),
                                      paths=list(paths), tier=tier,
                                      source_tier=source_tier,
                                      cache_hit=cache_hit, latency_ms=latency_ms,
                                      generation=generation)

    def warm_up(self, user_entities: Sequence[int], top_k: Optional[int] = None
                ) -> List[RecommendationResponse]:
        """Pre-populate the milestone and result caches for expected traffic."""
        return self.serve_many(self.build_requests(user_entities, top_k=top_k))

    # ------------------------------------------------------------------ #
    # maintenance & observability
    # ------------------------------------------------------------------ #
    def invalidate_user(self, user_entity: int) -> int:
        """Drop a user's cached results and milestone trajectory.

        Call after the user's KG neighbourhood changed (new interaction);
        returns the number of dropped result-cache entries.
        """
        self.recommender.milestone_cache.pop(user_entity, None)
        return self.cache.invalidate_user(user_entity)

    def invalidate_entities(self, entities: Iterable[int]) -> int:
        """Scoped invalidation after a streaming delta touched ``entities``.

        Drops the milestone trajectories of touched users and every result
        whose user or items intersect the set, leaving the rest of the cache
        (and its eviction order) alone; returns the number of dropped
        result-cache entries.
        """
        touched = set(entities)
        for entity in touched:
            self.recommender.milestone_cache.pop(entity, None)
        return self.cache.invalidate_entities(touched)

    def telemetry_snapshot(self) -> Dict:
        """Telemetry merged with cache statistics and the tier cost estimate."""
        snapshot = self.telemetry.snapshot()
        snapshot["cache"] = {
            "size": len(self.cache),
            "hits": self.cache.stats.hits,
            "misses": self.cache.stats.misses,
            "stale_hits": self.cache.stats.stale_hits,
            "evictions": self.cache.stats.evictions,
            "invalidations": self.cache.stats.invalidations,
            "hit_rate": self.cache.stats.hit_rate,
            "searches": self.search_stats.searches,
            "derived": self.search_stats.derived,
        }
        snapshot["estimated_full_search_ms"] = self.tiers.estimated_full_search_ms
        snapshot["generation"] = self.generation
        return snapshot

    # ------------------------------------------------------------------ #
    # timing-harness surface (duck-types the Table III recommender protocol)
    # ------------------------------------------------------------------ #
    def recommend_items(self, user_entity: int, top_k: int = 10) -> List[int]:
        """Ranked item entities through the full serving path."""
        return self.serve(RecommendationRequest(user_entity=user_entity,
                                                top_k=top_k)).items

    def find_paths(self, user_entity: int, num_paths: int) -> List[RecommendationPath]:
        """Raw path discovery, passed through to the underlying recommender."""
        return self.recommender.find_paths(user_entity, num_paths)
