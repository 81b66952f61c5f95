"""Tests for repro.cluster: ring properties, health, admission, failover.

The headline guarantees under test:

* consistent-hash stability — key→shard maps survive shard add/remove with
  bounded churn, replica sets are disjoint, rings are process-independent;
* deterministic failover — the same seed produces bit-identical replays, and
  a replay with a failed primary serves 100% of requests with *identical*
  recommendations (every shard searches the same frozen artifacts);
* the whole :mod:`repro.simulate` oracle battery passes against a
  :class:`ClusterService`, healthy or degraded;
* admission control sheds to the fallback tier chain instead of stalling;
* cluster telemetry merges raw shard windows into exact pooled aggregates.
"""

import json
import math
import typing

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.cluster import (
    AdmissionController,
    ClusterConfig,
    ClusterService,
    ClusterUnavailableError,
    ConsistentHashRing,
    HealthEvent,
    HealthModel,
    ShardStatus,
    merge_telemetry_states,
    random_schedule,
)
from repro.darl import CADRLConfig, InferenceConfig, PathRecommender, PolicyConfig, SharedPolicyNetworks
from repro.kg.entities import EntityType
from repro.pipeline import Pipeline, RunConfig
from repro.pipeline.config import DataConfig, EvalConfig
from repro.serving import (
    RecommendationRequest,
    RecommendationService,
    ServingConfig,
    ServingTelemetry,
    ServingTier,
)
from repro.simulate import (
    ReplayDriver,
    TraceClock,
    UserPopulation,
    WorkloadConfig,
    audit,
    generate_workload,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------- #
# consistent-hash ring
# --------------------------------------------------------------------- #
class TestConsistentHashRing:
    KEYS = list(range(2000))

    def test_assignment_is_balanced(self):
        ring = ConsistentHashRing(range(4), virtual_nodes=64, seed=0)
        balance = ring.load_balance(self.KEYS)
        assert set(balance) == {0, 1, 2, 3}
        for share in balance.values():
            assert 0.1 < share < 0.45

    def test_add_shard_remaps_bounded_fraction_and_only_to_new_shard(self):
        ring = ConsistentHashRing(range(4), virtual_nodes=64, seed=0)
        before = ring.assignment(self.KEYS)
        ring.add_shard(4)
        after = ring.assignment(self.KEYS)
        moved = [key for key in self.KEYS if before[key] != after[key]]
        # Expected churn is 1/5 of the keys; allow generous slack but well
        # below the ~4/5 a modulo scheme would remap.
        assert len(moved) / len(self.KEYS) < 0.35
        assert all(after[key] == 4 for key in moved)

    def test_remove_shard_only_remaps_its_keys(self):
        ring = ConsistentHashRing(range(4), virtual_nodes=64, seed=0)
        before = ring.assignment(self.KEYS)
        ring.remove_shard(2)
        after = ring.assignment(self.KEYS)
        for key in self.KEYS:
            if before[key] != 2:
                assert after[key] == before[key]
            else:
                assert after[key] != 2

    def test_replica_sets_are_distinct_and_primary_led(self):
        ring = ConsistentHashRing(range(5), seed=3)
        for key in range(200):
            replicas = ring.replicas(key, 3)
            assert len(replicas) == 3
            assert len(set(replicas)) == 3
            assert replicas[0] == ring.primary(key)
        # Replica count is capped at the shard population.
        assert len(ring.replicas(7, 99)) == 5

    def test_ring_identity_is_seeded_and_process_independent(self):
        first = ConsistentHashRing(range(4), seed=0).assignment(self.KEYS)
        second = ConsistentHashRing(range(4), seed=0).assignment(self.KEYS)
        reseeded = ConsistentHashRing(range(4), seed=1).assignment(self.KEYS)
        assert first == second
        assert first != reseeded

    def test_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([])
        with pytest.raises(ValueError):
            ConsistentHashRing([0, 0])
        with pytest.raises(ValueError):
            ConsistentHashRing([0], virtual_nodes=0)
        ring = ConsistentHashRing([0, 1])
        with pytest.raises(ValueError):
            ring.add_shard(1)
        with pytest.raises(ValueError):
            ring.remove_shard(9)
        with pytest.raises(ValueError):
            ring.replicas(0, 0)
        ring.remove_shard(1)
        with pytest.raises(ValueError):
            ring.remove_shard(0)


# --------------------------------------------------------------------- #
# health model
# --------------------------------------------------------------------- #
class TestHealthModel:
    def test_manual_transitions(self):
        health = HealthModel(range(3))
        assert health.available_shards() == (0, 1, 2)
        health.fail(1)
        health.degrade(2)
        assert health.status(1) is ShardStatus.DOWN
        assert health.status(2) is ShardStatus.DEGRADED
        assert not health.is_available(1) and not health.is_available(2)
        assert health.available_shards() == (0,)
        health.recover(1)
        assert health.available_shards() == (0, 1)
        assert health.snapshot() == {"0": "healthy", "1": "healthy",
                                     "2": "degraded"}

    def test_scheduled_events_follow_the_clock(self):
        clock = TraceClock()
        health = HealthModel(range(2), clock=clock)
        health.schedule(HealthEvent(at_s=1.0, shard_id=0, status=ShardStatus.DOWN))
        health.schedule(HealthEvent(at_s=2.0, shard_id=0, status=ShardStatus.HEALTHY))
        assert health.is_available(0)
        clock.advance(1.5)
        assert not health.is_available(0)
        clock.advance(1.0)
        assert health.is_available(0)

    def test_schedule_without_clock_raises(self):
        health = HealthModel(range(2))
        with pytest.raises(RuntimeError):
            health.schedule(HealthEvent(0.0, 0, ShardStatus.DOWN))

    def test_unknown_shard_raises(self):
        health = HealthModel(range(2))
        with pytest.raises(KeyError):
            health.fail(7)
        with pytest.raises(KeyError):
            health.status(7)

    def test_random_schedule_is_seeded_and_paired(self):
        first = random_schedule(range(4), seed=9, horizon_s=30.0, failures=3)
        second = random_schedule(range(4), seed=9, horizon_s=30.0, failures=3)
        assert first == second
        assert first != random_schedule(range(4), seed=10, horizon_s=30.0,
                                        failures=3)
        assert len(first) == 6                      # every outage recovers
        assert first == sorted(first)
        recoveries = [e for e in first if e.status is ShardStatus.HEALTHY]
        assert len(recoveries) == 3

    def test_random_schedule_validation(self):
        with pytest.raises(ValueError):
            random_schedule([], seed=0, horizon_s=1.0)
        with pytest.raises(ValueError):
            random_schedule([0], seed=0, horizon_s=0.0)


# --------------------------------------------------------------------- #
# admission control
# --------------------------------------------------------------------- #
class TestAdmissionController:
    def test_bounds_per_burst_and_resets(self):
        admission = AdmissionController(max_queue_per_shard=2)
        admission.begin_burst()
        assert admission.try_admit(0) and admission.try_admit(0)
        assert not admission.try_admit(0)
        assert admission.try_admit(1)               # other shards unaffected
        assert admission.load(0) == 2
        admission.begin_burst()
        assert admission.try_admit(0)
        assert admission.stats.admitted == 4
        assert admission.stats.rejected == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue_per_shard=0)


# --------------------------------------------------------------------- #
# merged telemetry
# --------------------------------------------------------------------- #
class TestMergedTelemetry:
    def test_merge_equals_pooled_computation(self):
        clock_a, clock_b = FakeClock(), FakeClock()
        a = ServingTelemetry(window=64, clock=clock_a)
        b = ServingTelemetry(window=64, clock=clock_b)
        latencies_a = [1.0, 5.0, 9.0, 13.0]
        latencies_b = [2.0, 4.0, 40.0]
        for latency in latencies_a:
            a.record(latency, ServingTier.FULL)
            clock_a.advance(0.5)
        clock_b.advance(0.25)
        for latency in latencies_b:
            b.record(latency, ServingTier.CACHE, cache_hit=True)
            clock_b.advance(0.5)
        merged = merge_telemetry_states([a.export_state(), b.export_state()])
        pooled = latencies_a + latencies_b
        expected = np.percentile(pooled, [50.0, 95.0, 99.0, 99.9])
        assert merged["latency_ms"]["p50"] == pytest.approx(expected[0])
        assert merged["latency_ms"]["p99.9"] == pytest.approx(expected[3])
        assert merged["requests"] == 7
        assert merged["tiers"] == {"full_search": 4, "cache": 3}
        assert merged["cache_hit_rate"] == pytest.approx(3 / 7)
        # QPS spans the merged timeline: 7 samples from t=0.0 to t=1.5.
        assert merged["qps"] == pytest.approx(6 / 1.5)

    def test_empty_merge_is_uniformly_nan(self):
        merged = merge_telemetry_states([])
        assert merged["requests"] == 0
        assert math.isnan(merged["qps"])
        assert math.isnan(merged["cache_hit_rate"])
        assert all(math.isnan(v) for v in merged["latency_ms"].values())

    def test_empty_windows_alongside_loaded_ones_are_transparent(self):
        clock = FakeClock()
        loaded = ServingTelemetry(window=64, clock=clock)
        idle = ServingTelemetry(window=64, clock=clock)
        for latency in (2.0, 4.0, 6.0):
            loaded.record(latency, ServingTier.FULL)
            clock.advance(1.0)
        alone = merge_telemetry_states([loaded.export_state()])
        merged = merge_telemetry_states([idle.export_state(),
                                         loaded.export_state(),
                                         idle.export_state()])
        assert merged == alone                 # idle shards contribute nothing

    def test_out_of_order_windows_are_sorted_onto_one_timeline(self):
        early, late = FakeClock(), FakeClock()
        late.advance(10.0)
        a = ServingTelemetry(window=64, clock=late)
        b = ServingTelemetry(window=64, clock=early)
        a.record(1.0, ServingTier.FULL)        # t=10
        b.record(3.0, ServingTier.FULL)        # t=0
        early.advance(5.0)
        b.record(5.0, ServingTier.FULL)        # t=5
        # Shard order must not matter: QPS spans t=0..10 either way.
        forward = merge_telemetry_states([a.export_state(), b.export_state()])
        backward = merge_telemetry_states([b.export_state(), a.export_state()])
        assert forward == backward
        assert forward["qps"] == pytest.approx(2 / 10.0)
        assert forward["requests"] == 3

    def test_single_sample_windows_pool_without_fake_rates(self):
        clock = FakeClock()
        a = ServingTelemetry(window=64, clock=clock)
        b = ServingTelemetry(window=64, clock=clock)
        a.record(8.0, ServingTier.FULL)
        b.record(2.0, ServingTier.CACHE, cache_hit=True)
        merged = merge_telemetry_states([a.export_state(), b.export_state()])
        # Two samples at the same instant: percentiles are exact, but a
        # zero-span timeline has no rate — NaN, not a bogus 0.0 or infinity.
        assert merged["latency_ms"]["p50"] == pytest.approx(5.0)
        assert math.isnan(merged["qps"])
        assert merged["cache_hit_rate"] == pytest.approx(0.5)
        only = merge_telemetry_states([a.export_state()])
        assert only["requests"] == 1
        assert math.isnan(only["qps"])
        assert only["latency_ms"]["p99"] == pytest.approx(8.0)


# --------------------------------------------------------------------- #
# the cluster service over the shared tiny stack
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def cluster_stack(tiny_kg, tiny_representations):
    """Factories for fresh clusters/services over one frozen tiny stack."""
    graph, category_graph, _ = tiny_kg
    policy = SharedPolicyNetworks(PolicyConfig(embedding_dim=16, hidden_size=8,
                                               mlp_hidden=16, seed=0))

    def make_service(clock=None, cache_capacity=64, **serving_kwargs):
        recommender = PathRecommender(graph, category_graph, tiny_representations,
                                      policy, max_path_length=4,
                                      max_entity_actions=8, max_category_actions=4,
                                      config=InferenceConfig(beam_width=6,
                                                             expansions_per_beam=2))
        serving_kwargs.setdefault("cache_ttl_seconds", 600.0)
        extra = {"clock": clock} if clock is not None else {}
        return RecommendationService(recommender,
                                     config=ServingConfig(cache_capacity=cache_capacity,
                                                          **serving_kwargs), **extra)

    def make_cluster(shards=4, replicas=2, failed=(), clock=None,
                     cache_capacity=64, max_queue=256, **serving_kwargs):
        services = [make_service(clock=clock, cache_capacity=cache_capacity,
                                 **serving_kwargs)
                    for _ in range(shards)]
        config = ClusterConfig(num_shards=shards, replication_factor=replicas,
                               max_queue_per_shard=max_queue,
                               failed_shards=tuple(failed))
        extra = {"clock": clock} if clock is not None else {}
        return ClusterService(services, config=config, **extra)

    cold_standins = tuple(graph.entities.ids_of_type(EntityType.FEATURE)[:3])
    population = UserPopulation.from_graph(graph, extra_cold_users=cold_standins)
    return make_cluster, make_service, population, graph


def _replay(cluster_or_service, workload, clock):
    return ReplayDriver(cluster_or_service, clock=clock).replay(workload)


class TestClusterService:
    def test_shadow_key_annotations_resolve(self):
        """Every name in the fault-shadow annotations is imported (pyflakes F821)."""
        hints = typing.get_type_hints(ClusterService._shadow_key)
        assert hints["return"] == typing.Tuple[int, int, typing.Tuple[int, ...]]

    @pytest.fixture(scope="class")
    def workload(self, cluster_stack):
        _, _, population, graph = cluster_stack
        return generate_workload(
            population,
            WorkloadConfig(num_requests=400, seed=11, arrival="bursty",
                           cold_fraction=0.1),
            graph)

    @pytest.fixture(scope="class")
    def baseline(self, cluster_stack, workload):
        """A healthy 4×2 cluster replay (shared by the determinism tests)."""
        make_cluster, _, _, _ = cluster_stack
        clock = TraceClock()
        cluster = make_cluster(clock=clock)
        return cluster, _replay(cluster, workload, clock)

    # -- determinism ----------------------------------------------------- #
    def test_same_seed_same_topology_is_bit_identical(self, cluster_stack,
                                                      workload, baseline):
        make_cluster, _, _, _ = cluster_stack
        _, first = baseline
        clock = TraceClock()
        second = _replay(make_cluster(clock=clock), workload, clock)
        assert first.signature() == second.signature()

    def test_oracle_battery_is_clean_against_a_cluster(self, baseline):
        cluster, replay = baseline
        reports = audit(cluster, replay.records, full_search_sample=40,
                        seed=0)
        assert all(report.ok for report in reports)
        assert sum(report.checked for report in reports) > 0

    # -- failover -------------------------------------------------------- #
    def test_failed_primary_serves_everything_identically(self, cluster_stack,
                                                          workload, baseline):
        make_cluster, _, _, _ = cluster_stack
        _, healthy = baseline
        clock = TraceClock()
        degraded_cluster = make_cluster(failed=(1,), clock=clock)
        degraded = _replay(degraded_cluster, workload, clock)
        # 100% of requests answered with one shard down…
        assert len(degraded.records) == len(workload)
        # …with recommendations identical to the healthy run: every shard
        # searches the same frozen artifacts, so failover is invisible in
        # the payload.
        assert all(a.items == b.items
                   for a, b in zip(healthy.records, degraded.records))
        assert degraded_cluster.routing.failover > 0
        reports = audit(degraded_cluster, degraded.records,
                        full_search_sample=40, seed=0)
        assert all(report.ok for report in reports)

    def test_mid_trace_scheduled_failure_is_replayable(self, cluster_stack,
                                                       workload):
        make_cluster, _, _, _ = cluster_stack
        midpoint = workload.duration_s / 2.0

        def run():
            clock = TraceClock()
            cluster = make_cluster(clock=clock)
            cluster.health.schedule(HealthEvent(at_s=midpoint, shard_id=0,
                                                status=ShardStatus.DEGRADED))
            return cluster, _replay(cluster, workload, clock)

        first_cluster, first = run()
        _, second = run()
        assert len(first.records) == len(workload)
        assert first.signature() == second.signature()
        assert first_cluster.routing.failover > 0

    def test_whole_chain_down_uses_stand_in_shard(self, cluster_stack):
        make_cluster, _, population, _ = cluster_stack
        cluster = make_cluster(shards=2, replicas=1)
        user = population.warm_users[0]
        primary = cluster.ring.primary(user)
        cluster.health.fail(primary)
        response = cluster.serve(RecommendationRequest(user_entity=user, top_k=4))
        assert response.tier is ServingTier.FULL
        assert response.items == [
            path.item_entity
            for path in cluster.recommender.recommend(user, top_k=4)]
        assert cluster.routing.failover == 1

    def test_fully_down_cluster_raises(self, cluster_stack):
        make_cluster, _, population, _ = cluster_stack
        cluster = make_cluster(shards=2, replicas=2)
        cluster.health.fail(0)
        cluster.health.fail(1)
        with pytest.raises(ClusterUnavailableError):
            cluster.serve(RecommendationRequest(
                user_entity=population.warm_users[0], top_k=4))
        with pytest.raises(ClusterUnavailableError):
            cluster.find_paths(population.warm_users[0], 3)

    # -- admission ------------------------------------------------------- #
    def test_overflow_spills_to_replica_with_full_quality(self, cluster_stack):
        make_cluster, _, population, _ = cluster_stack
        cluster = make_cluster(shards=4, replicas=2, max_queue=1)
        user = population.warm_users[1]
        requests = [RecommendationRequest(user_entity=user, top_k=k)
                    for k in (3, 4)]
        responses = cluster.serve_many(requests)
        assert [r.tier for r in responses] == [ServingTier.FULL] * 2
        assert cluster.routing.overflow == 1
        assert cluster.routing.primary == 1

    def test_saturated_chain_sheds_to_fallback_chain(self, cluster_stack):
        make_cluster, _, population, _ = cluster_stack
        cluster = make_cluster(shards=4, replicas=1, max_queue=1)
        user = population.warm_users[2]
        requests = [RecommendationRequest(user_entity=user, top_k=k)
                    for k in (3, 4, 5)]
        responses = cluster.serve_many(requests)
        assert all(response.items for response in responses)
        assert responses[0].tier is ServingTier.FULL
        assert not responses[0].shed
        # The shed requests degrade into the fallback chain instead of
        # queueing behind the full search (distinct keys here, so no cache
        # hits), carry the caller's original request (the zero-budget
        # rewrite is internal) and say so.
        for response, request in zip(responses[1:], requests[1:]):
            assert response.tier in (ServingTier.STALE, ServingTier.EMBEDDING)
            assert response.shed
            assert response.request is request
            assert response.request.latency_budget_ms is None
        assert cluster.routing.shed == 2
        assert cluster.admission.stats.rejected >= 2

    def test_saturated_replay_still_passes_the_oracle_battery(
            self, cluster_stack, workload):
        """Backpressure degrades answers but must not fail the oracles.

        A 2-shard, unreplicated cluster with a queue bound of 1 sheds most
        of every burst; the records carry the shed marker, so the tier-policy
        oracle judges them under degraded-tier rules instead of flagging
        unconstrained warm misses.
        """
        make_cluster, _, _, _ = cluster_stack
        clock = TraceClock()
        cluster = make_cluster(shards=2, replicas=1, max_queue=1, clock=clock)
        replay_result = _replay(cluster, workload, clock)
        assert cluster.routing.shed > 0
        assert any(record.shed for record in replay_result.records)
        reports = audit(cluster, replay_result.records,
                        full_search_sample=30, seed=0)
        assert all(report.ok for report in reports), [
            str(f) for report in reports for f in report.findings[:3]]

    def test_shed_marker_is_part_of_the_replay_signature(self, cluster_stack,
                                                         workload):
        make_cluster, _, _, _ = cluster_stack
        clock = TraceClock()
        saturated = _replay(make_cluster(shards=2, replicas=1, max_queue=1,
                                         clock=clock), workload, clock)
        clock2 = TraceClock()
        roomy = _replay(make_cluster(shards=2, replicas=1, clock=clock2),
                        workload, clock2)
        assert saturated.signature() != roomy.signature()

    # -- caching & serving surface --------------------------------------- #
    def test_repeat_serve_hits_the_shard_cache(self, cluster_stack):
        make_cluster, _, population, _ = cluster_stack
        cluster = make_cluster()
        request = RecommendationRequest(user_entity=population.warm_users[3],
                                        top_k=4)
        first = cluster.serve(request)
        second = cluster.serve(request)
        assert not first.cache_hit and second.cache_hit
        assert first.items == second.items

    def test_invalidate_user_fans_out(self, cluster_stack):
        make_cluster, _, population, _ = cluster_stack
        cluster = make_cluster()
        user = population.warm_users[4]
        cluster.serve(RecommendationRequest(user_entity=user, top_k=4))
        assert cluster.invalidate_user(user) >= 1
        assert not cluster.serve(RecommendationRequest(user_entity=user,
                                                       top_k=4)).cache_hit

    def test_sharded_caches_beat_one_shared_cache_under_pressure(
            self, cluster_stack, workload):
        make_cluster, make_service, _, _ = cluster_stack
        capacity = 12
        single_clock = TraceClock()
        single = make_service(clock=single_clock, cache_capacity=capacity)
        single_replay = _replay(single, workload, single_clock)
        cluster_clock = TraceClock()
        cluster = make_cluster(clock=cluster_clock, cache_capacity=capacity)
        cluster_replay = _replay(cluster, workload, cluster_clock)
        # Each shard owns a private cache of the same size, so the cluster's
        # aggregate capacity is 4× and Zipf keys stop evicting each other.
        assert cluster_replay.cache_hit_rate() > single_replay.cache_hit_rate()

    def test_telemetry_snapshot_shape(self, baseline):
        cluster, _ = baseline
        snapshot = cluster.telemetry_snapshot()
        assert snapshot["requests"] == cluster.routing.requests
        assert {"p50", "p95", "p99", "p99.9"} <= set(snapshot["latency_ms"])
        assert set(snapshot["shards"]) == {"0", "1", "2", "3"}
        assert snapshot["topology"]["num_shards"] == 4
        assert snapshot["routing"]["requests"] == snapshot["requests"]
        assert set(snapshot["health"].values()) == {"healthy"}
        per_shard = sum(shard["requests"]
                        for shard in snapshot["shards"].values())
        assert per_shard == snapshot["requests"]

    def test_config_validation(self, cluster_stack):
        make_cluster, make_service, _, _ = cluster_stack
        with pytest.raises(ValueError):
            ClusterConfig(num_shards=2, replication_factor=3).validate()
        with pytest.raises(ValueError):
            ClusterConfig(num_shards=2, failed_shards=(5,)).validate()
        with pytest.raises(ValueError):
            ClusterConfig(num_shards=0).validate()
        with pytest.raises(ValueError):
            ClusterService([], config=ClusterConfig())
        with pytest.raises(ValueError):
            ClusterService([make_service()],
                           config=ClusterConfig(num_shards=2,
                                                replication_factor=2))


# --------------------------------------------------------------------- #
# pipeline & CLI integration
# --------------------------------------------------------------------- #
def tiny_run_config(num_shards=1, replication_factor=1) -> RunConfig:
    config = RunConfig(
        data=DataConfig(dataset="beauty", scale=0.25, split_seed=0),
        model=CADRLConfig.fast(embedding_dim=16, seed=0),
        cluster=ClusterConfig(num_shards=num_shards,
                              replication_factor=replication_factor),
        eval=EvalConfig(max_eval_users=8),
    )
    config.model.transe.epochs = 5
    config.model.cggnn_training.epochs = 3
    config.model.darl.epochs = 2
    return config


class TestPipelineIntegration:
    def test_cluster_section_round_trips_and_rejects_unknown_fields(self):
        config = tiny_run_config(num_shards=3, replication_factor=2)
        restored = RunConfig.from_json(config.to_json())
        assert restored.cluster == config.cluster
        assert restored.fingerprint() == config.fingerprint()
        payload = config.to_dict()
        payload["cluster"]["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            RunConfig.from_dict(payload)

    def test_cluster_spec_only_invalidates_serve_check(self):
        base = tiny_run_config().stage_fingerprints()
        changed = tiny_run_config(num_shards=4, replication_factor=2)
        after = changed.stage_fingerprints()
        assert after["serve-check"] != base["serve-check"]
        for stage in ("data", "kg", "embed", "cggnn", "train", "eval"):
            assert after[stage] == base[stage]

    def test_serve_check_runs_against_a_cluster(self):
        config = tiny_run_config(num_shards=3, replication_factor=2)
        result = Pipeline(config).run()
        assert result.serve_report["ok"]
        assert result.serve_report["num_shards"] == 3
        assert result.serve_report["replication_factor"] == 2
        assert "routing" in result.serve_report["telemetry"]

    def test_result_service_honours_the_cluster_spec(self):
        clustered = Pipeline(tiny_run_config(num_shards=2,
                                             replication_factor=2)
                             ).run(until=("train",))
        service = clustered.service()
        assert isinstance(service, ClusterService)
        assert service.num_shards == 2
        single = Pipeline(tiny_run_config()).run(until=("train",))
        assert isinstance(single.service(), RecommendationService)
        # cluster_service() forces a cluster regardless of the spec.
        forced = single.cluster_service(
            cluster_config=ClusterConfig(num_shards=2, replication_factor=1))
        assert isinstance(forced, ClusterService)


class TestClusterCLI:
    @pytest.fixture(scope="class")
    def config_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "config.json"
        tiny_run_config().save(path)
        return path

    def _simulate(self, config_path, out, extra=()):
        return cli_main(["simulate", "--config", str(config_path),
                         "--requests", "150", "--seed", "5",
                         "--shards", "3", "--replicas", "2",
                         "--fail-shard", "1",
                         "--summary-json", str(out), *extra])

    def test_cluster_simulate_is_deterministic_and_threads_the_seed(
            self, config_path, tmp_path, capsys):
        first_out = tmp_path / "first.json"
        second_out = tmp_path / "second.json"
        assert self._simulate(config_path, first_out) == 0
        assert self._simulate(config_path, second_out) == 0
        capsys.readouterr()
        first = json.loads(first_out.read_text())
        second = json.loads(second_out.read_text())
        assert first["replay_signature"] == second["replay_signature"]
        assert first["workload_seed"] == 5            # --seed reached the workload
        assert first["oracles"]
        assert all(entry["mismatches"] == 0 for entry in first["oracles"].values())
        assert first["routing"]["failover"] > 0
        assert first["health"]["1"] == "down"
        assert first["topology"]["num_shards"] == 3

    def test_explicit_workload_seed_overrides_master_seed(self, config_path,
                                                          tmp_path, capsys):
        out = tmp_path / "override.json"
        code = cli_main(["simulate", "--config", str(config_path),
                         "--requests", "60", "--seed", "5",
                         "--workload-seed", "9",
                         "--summary-json", str(out)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(out.read_text())["workload_seed"] == 9

    def test_fail_shard_outside_topology_errors_cleanly(self, config_path,
                                                        capsys):
        # --fail-shard without --shards on a single-shard config must not
        # traceback; it exits with a clear message either way.
        with pytest.raises(SystemExit, match="--shards"):
            cli_main(["simulate", "--config", str(config_path),
                      "--requests", "10", "--fail-shard", "1"])
        with pytest.raises(SystemExit, match="healthy"):
            cli_main(["simulate", "--config", str(config_path),
                      "--requests", "10", "--fail-shard", "0"])
        capsys.readouterr()
