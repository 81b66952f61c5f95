"""The cluster router against a reference copy of its two-pass walk.

``ConsistentHashRing.replicas`` memoises each key's replica chain until the
ring's membership changes, and ``ClusterService._dispatch`` walks that chain
once, offering each healthy, breaker-allowed shard the request until one
admits it.  Both must route exactly as the unmemoised router did.  This
module keeps a copy of that router (a ring that hashes and walks on every
lookup, and a dispatch that collects every available shard before trying
admission) and drives it beside the real one through the same random streams
of bursts with repeated users, shard additions and removals, health
transitions, scheduled health events on a trace clock, scripted serve
failures that trip breakers, and cooldowns that let half-open probes through.
Every request must get the same shard, disposition, fault and bypass, and
both clusters must end with the same routing, admission, breaker and defense
records.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    BreakerConfig,
    CircuitBreaker,
    ClusterConfig,
    ClusterService,
    ClusterUnavailableError,
    ConsistentHashRing,
    HealthEvent,
    ShardStatus,
)
from repro.cluster.service import _Dispatch
from repro.serving import RecommendationRequest, RecommendationResponse, ServingTier


class TraceClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class StubCache:
    """The result-cache surface membership changes touch (always empty)."""

    def __len__(self) -> int:
        return 0

    def extract_entries(self, predicate) -> list:
        return []

    def export_entries(self) -> list:
        return []

    def absorb(self, entries) -> int:
        return 0


class StubService:
    """A shard that answers at once: only the routing varies between runs."""

    def __init__(self) -> None:
        self.cache = StubCache()

    def serve_many(self, requests) -> List[RecommendationResponse]:
        return [RecommendationResponse(
                    request=request, items=[], paths=[], tier=ServingTier.CACHE,
                    source_tier=ServingTier.CACHE, cache_hit=True,
                    latency_ms=1.0)
                for request in requests]


class ScriptedFaults:
    """A duck-typed fault injector: a shard's next ``n`` serves raise."""

    def __init__(self, clock: TraceClock) -> None:
        self._clock = clock
        self.failures: Dict[int, int] = {}
        self.defenses: List[tuple] = []

    def before_shard_serve(self, shard_id: int) -> None:
        if self.failures.get(shard_id, 0) > 0:
            self.failures[shard_id] -= 1
            raise RuntimeError(f"scripted failure on shard {shard_id}")

    def latency_penalty_ms(self, shard_id: int) -> float:
        return 0.0  # repro: ignore[NAN001] scripted faults never add latency

    def record_defense(self, kind: str, target: str, detail: str = "") -> None:
        self.defenses.append((self._clock(), kind, target, detail))


class StubCluster(ClusterService):
    """The router under test over stub shards (scale-ups boot stubs too)."""

    def clone_reference_service(self, *, name=None) -> StubService:
        return StubService()


class ReferenceRing(ConsistentHashRing):
    """The ring lookup before memoisation: hash, bisect and walk every time."""

    def replicas(self, key: int, count: int) -> List[int]:
        if count <= 0:
            raise ValueError("replica count must be positive")
        count = min(count, len(self._shards))
        start = bisect.bisect_left(self._entries, (self.key_point(key), -1))
        chosen: List[int] = []
        seen: set = set()
        total = len(self._entries)
        for offset in range(total):
            shard = self._entries[(start + offset) % total][1]
            if shard not in seen:
                seen.add(shard)
                chosen.append(shard)
                if len(chosen) == count:
                    break
        return chosen


class ReferenceCluster(StubCluster):
    """The router before the one-pass walk: collect, then try admission."""

    def _dispatch(self, request: RecommendationRequest) -> _Dispatch:
        chain = self.replica_chain(request.user_entity)
        primary = chain[0]
        available: List[int] = []
        positions: Dict[int, int] = {}
        first_blocked = len(chain)
        for position, shard in enumerate(chain):
            if not self.health.is_available(shard):
                continue
            if not self._breaker_allows(shard):
                first_blocked = min(first_blocked, position)
                continue
            positions[shard] = position
            available.append(shard)
        breaker_blocked = first_blocked < len(chain)
        for shard in available:
            if self.admission.try_admit(shard):
                if shard == primary:
                    disposition = "primary"
                elif (self.health.is_available(primary)
                      and self._breaker_allows(primary)):
                    disposition = "overflow"
                else:
                    disposition = "failover"
                fault = ("circuit_open" if positions[shard] > first_blocked
                         else None)
                return _Dispatch(self._claim(shard), disposition, request,
                                 fault=fault)
        if not available:
            healthy = self.health.available_shards()
            for shard in healthy:
                if not self._breaker_allows(shard):
                    continue
                if self.admission.try_admit(shard):
                    return _Dispatch(
                        self._claim(shard), "failover", request,
                        fault="circuit_open" if breaker_blocked else None)
                available.append(shard)
            if not available:
                if not healthy:
                    raise ClusterUnavailableError(
                        f"no healthy shard left in {self.name} "
                        f"(health: {self.health.snapshot()})")
                shed = dataclasses.replace(request, latency_budget_ms=0.0)
                anchor = next((shard for shard in chain if shard in healthy),
                              healthy[0])
                return _Dispatch(anchor, "shed", shed,
                                 fault="circuit_open", bypass=True)
        shed = dataclasses.replace(request, latency_budget_ms=0.0)
        return _Dispatch(self._claim(available[0]), "shed", shed,
                         fault="circuit_open" if breaker_blocked else None)


def _build(cls, config: ClusterConfig, clock: TraceClock, breaker: bool,
           faults: bool) -> ClusterService:
    cluster = cls([StubService() for _ in range(config.num_shards)],
                  config=dataclasses.replace(config), clock=clock,
                  breaker=(CircuitBreaker(clock, config=BreakerConfig(
                      failure_threshold=1, cooldown_s=0.3))
                           if breaker else None))
    if cls is ReferenceCluster:
        cluster.ring = ReferenceRing(range(config.num_shards),
                                     virtual_nodes=config.virtual_nodes,
                                     seed=config.seed)
    if faults:
        cluster.injector = ScriptedFaults(clock)
    dispatches: List[tuple] = []
    dispatch = cluster._dispatch

    def recorded(request: RecommendationRequest) -> _Dispatch:
        routed = dispatch(request)
        dispatches.append((routed.shard_id, routed.disposition, routed.fault,
                           routed.bypass, routed.request))
        return routed

    cluster._dispatch = recorded
    cluster.dispatches = dispatches
    return cluster


def _shard(cluster: ClusterService, index: int) -> int:
    shards = sorted(worker.shard_id for worker in cluster.workers)
    return shards[index % len(shards)]


def _apply(cluster: ClusterService, clock: TraceClock, op: tuple):
    """Run one op; return what the caller can observe of it."""
    kind = op[0]
    if kind == "burst":
        requests = [RecommendationRequest(user_entity=1000 + user, top_k=top_k)
                    for user, top_k in op[1]]
        try:
            responses = cluster.serve_many(requests)
        except ClusterUnavailableError as error:
            return ("unavailable", str(error))
        return [(response.request, response.fault, response.shed,
                 response.latency_ms) for response in responses]
    if kind == "add":
        if cluster.num_shards < 6:
            return cluster.add_shard()
        return None
    if kind == "remove":
        if cluster.num_shards > 1:
            return cluster.remove_shard(_shard(cluster, op[1]))
        return None
    if kind == "crash":
        if cluster.injector is not None:
            cluster.injector.failures[_shard(cluster, op[1])] = op[2]
        return None
    if kind == "trip":
        if cluster.breaker is not None:
            cluster.breaker.record_failure(_shard(cluster, op[1]), "scripted")
        return None
    if kind == "schedule":
        _, index, delay, status = op
        cluster.health.schedule(HealthEvent(
            at_s=clock.now + delay, shard_id=_shard(cluster, index),
            status=status))
        return None
    getattr(cluster.health, kind)(_shard(cluster, op[1]))   # fail/degrade/recover
    return None


_SHARD = st.integers(0, 7)
_BURST = st.tuples(st.just("burst"),
                   st.lists(st.tuples(st.integers(0, 11), st.sampled_from([5, 10])),
                            min_size=1, max_size=10))
_OPS = st.lists(st.one_of(
    _BURST, _BURST, _BURST,
    st.tuples(st.just("tick"), st.sampled_from([0.05, 0.2, 0.6])),
    st.tuples(st.just("add")),
    st.tuples(st.just("remove"), _SHARD),
    st.tuples(st.sampled_from(["fail", "degrade"]), _SHARD),
    st.tuples(st.just("recover"), _SHARD),
    st.tuples(st.just("trip"), _SHARD),
    st.tuples(st.just("schedule"), _SHARD, st.sampled_from([0.0, 0.1, 0.5]),
              st.sampled_from(list(ShardStatus))),
    st.tuples(st.just("crash"), _SHARD, st.integers(1, 3)),
), min_size=5, max_size=60)


class TestRoutingEquivalence:
    @given(ops=_OPS, num_shards=st.integers(1, 4),
           replication=st.integers(1, 3), max_queue=st.integers(1, 3),
           ring_seed=st.integers(0, 3), breaker=st.booleans(),
           faults=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_routes_like_the_two_pass_walk(self, ops, num_shards, replication,
                                           max_queue, ring_seed, breaker,
                                           faults):
        config = ClusterConfig(num_shards=num_shards,
                               replication_factor=min(replication, num_shards),
                               virtual_nodes=8, max_queue_per_shard=max_queue,
                               seed=ring_seed)
        clock = TraceClock()
        cluster = _build(StubCluster, config, clock, breaker, faults)
        reference = _build(ReferenceCluster, config, clock, breaker, faults)
        for op in ops:
            if op[0] == "tick":
                clock.now += op[1]
                continue
            assert _apply(cluster, clock, op) == _apply(reference, clock, op), op
            assert cluster.dispatches == reference.dispatches, op
            assert cluster.routing == reference.routing, op
            assert cluster.admission.stats == reference.admission.stats, op
        assert cluster.health.snapshot() == reference.health.snapshot()
        assert cluster._fault_shadow == reference._fault_shadow
        if breaker:
            assert cluster.breaker.transitions == reference.breaker.transitions
            assert cluster.breaker.snapshot() == reference.breaker.snapshot()
        if faults:
            assert cluster.injector.defenses == reference.injector.defenses


class TestReplicaMemo:
    def test_chains_are_memoised_until_the_membership_changes(self):
        ring = ConsistentHashRing(range(3), virtual_nodes=8, seed=1)
        reference = ReferenceRing(range(3), virtual_nodes=8, seed=1)
        keys = list(range(40))
        chains = {key: ring.replicas(key, 2) for key in keys}
        assert all(ring.replicas(key, 2) is chains[key] for key in keys)
        assert len(ring._chains) == len(keys)
        ring.primary(99)
        ring.load_balance(range(100, 200))
        assert len(ring._chains) == len(keys)   # only routed chains are held
        for change in (lambda r: r.add_shard(7), lambda r: r.remove_shard(1)):
            change(ring)
            change(reference)
            assert not ring._chains
            assert [list(ring.replicas(key, 2)) for key in keys] == \
                   [reference.replicas(key, 2) for key in keys]

    def test_a_non_positive_count_still_raises(self):
        ring = ConsistentHashRing(range(2))
        for _ in range(2):
            with pytest.raises(ValueError, match="positive"):
                ring.replicas(5, 0)
