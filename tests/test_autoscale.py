"""Tests for repro.cluster.autoscale: elastic scaling under live load.

The headline guarantees under test:

* the elastic :meth:`ClusterService.add_shard` / :meth:`remove_shard`
  lifecycle keeps serving identical answers while the topology changes, and
  warm migration hands every displaced cache entry to its key's new owner;
* the :class:`Autoscaler` grows the shard set under bursty pressure and
  shrinks it again through calm stretches, with the same seed producing a
  bit-identical replay *and* an identical scale-event ledger;
* the whole oracle battery — including the :class:`ScalingOracle` — passes
  against an autoscaled replay, and the scaling oracle rejects corrupted
  event chains and in-flight cache corruption;
* the capacity story: the autoscaled cluster sheds less than a static
  cluster of its floor size while paying for fewer shard-ticks than a
  static cluster of its ceiling size.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.cluster import (
    AutoscaleConfig,
    Autoscaler,
    ClusterConfig,
    ClusterService,
    ScaleEvent,
    ScaleReport,
)
from repro.darl import InferenceConfig, PathRecommender, PolicyConfig, SharedPolicyNetworks
from repro.kg.entities import EntityType
from repro.serving import RecommendationService, ServingConfig, ServingTier
from repro.simulate import (
    ReplayDriver,
    ScalingOracle,
    TraceClock,
    UserPopulation,
    WorkloadConfig,
    audit,
    generate_workload,
)


@pytest.fixture(scope="module")
def elastic_stack(tiny_kg, tiny_representations):
    """Factories for fresh elastic clusters over one frozen tiny stack."""
    graph, category_graph, _ = tiny_kg
    policy = SharedPolicyNetworks(PolicyConfig(embedding_dim=16, hidden_size=8,
                                               mlp_hidden=16, seed=0))

    def make_service(clock=None):
        recommender = PathRecommender(graph, category_graph, tiny_representations,
                                      policy, max_path_length=4,
                                      max_entity_actions=8, max_category_actions=4,
                                      config=InferenceConfig(beam_width=6,
                                                             expansions_per_beam=2))
        extra = {"clock": clock} if clock is not None else {}
        return RecommendationService(recommender,
                                     config=ServingConfig(cache_capacity=64,
                                                          cache_ttl_seconds=600.0),
                                     **extra)

    def make_cluster(shards=2, clock=None, max_queue=4):
        services = [make_service(clock=clock) for _ in range(shards)]
        config = ClusterConfig(num_shards=shards, replication_factor=1,
                               max_queue_per_shard=max_queue)
        extra = {"clock": clock} if clock is not None else {}
        return ClusterService(services, config=config, **extra)

    cold_standins = tuple(graph.entities.ids_of_type(EntityType.FEATURE)[:3])
    population = UserPopulation.from_graph(graph, extra_cold_users=cold_standins)
    return make_cluster, population, graph


# --------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------- #
class TestAutoscaleConfig:
    def test_defaults_validate(self):
        AutoscaleConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"min_shards": 0},
        {"min_shards": 4, "max_shards": 3},
        {"tick_interval_s": 0.0},
        {"up_shed_rate": -0.1},
        {"up_utilization": 0.0},
        {"up_utilization": 1.5},
        {"down_utilization": 0.95},          # >= up_utilization default
        {"down_utilization": -0.1},
        {"down_patience": 0},
        {"cooldown_ticks": -1},
    ])
    def test_rejects_bad_bounds(self, kwargs):
        with pytest.raises(ValueError):
            AutoscaleConfig(**kwargs).validate()

    def test_autoscaler_rejects_cluster_outside_range(self, elastic_stack):
        make_cluster, _, _ = elastic_stack
        cluster = make_cluster(shards=2)
        with pytest.raises(ValueError):
            Autoscaler(cluster, AutoscaleConfig(min_shards=3, max_shards=5))


# --------------------------------------------------------------------- #
# elastic lifecycle on the cluster itself
# --------------------------------------------------------------------- #
class TestElasticLifecycle:
    def _warm(self, cluster, population, n=12):
        users = list(population.warm_users[:n])
        requests = cluster.build_requests(users, top_k=4)
        return users, cluster.serve_many(requests)

    def test_add_shard_grows_topology_and_keeps_ids_monotonic(self, elastic_stack):
        make_cluster, _, _ = elastic_stack
        cluster = make_cluster(shards=2)
        report = cluster.add_shard()
        assert report == ScaleReport(action="add", shard_id=2, num_shards=3,
                                     migrated_entries=0)
        assert cluster.num_shards == 3
        assert {worker.shard_id for worker in cluster.workers} == {0, 1, 2}
        cluster.remove_shard(2)
        # A retired id is never reused — the next shard gets a fresh one.
        assert cluster.add_shard().shard_id == 3

    def test_add_shard_warm_migrates_exactly_the_remapped_keys(self, elastic_stack):
        make_cluster, population, _ = elastic_stack
        cluster = make_cluster(shards=2, max_queue=64)
        self._warm(cluster, population)
        cached_before = sum(len(worker.service.cache) for worker in cluster.workers)
        report = cluster.add_shard()
        new = cluster.worker(report.shard_id)
        migrated = new.service.cache.export_entries()
        assert report.migrated_entries == len(migrated) > 0
        # Every migrated key's primary is the new shard, and nothing was lost.
        for entry in migrated:
            assert cluster.ring.primary(entry.key[0]) == report.shard_id
        assert sum(len(worker.service.cache)
                   for worker in cluster.workers) == cached_before

    def test_remove_shard_hands_entries_to_the_new_owners(self, elastic_stack):
        make_cluster, population, _ = elastic_stack
        cluster = make_cluster(shards=3, max_queue=64)
        self._warm(cluster, population)
        victim = cluster.worker(2)
        victim_keys = [entry.key for entry in victim.service.cache.export_entries()]
        cached_before = sum(len(worker.service.cache) for worker in cluster.workers)
        report = cluster.remove_shard(2)
        assert report.action == "remove" and report.num_shards == 2
        assert cluster.num_shards == 2
        for key in victim_keys:
            owner = cluster.worker(cluster.ring.primary(key[0]))
            assert owner.service.cache.has_stale(key)
        assert sum(len(worker.service.cache)
                   for worker in cluster.workers) == cached_before

    def test_scaling_never_changes_answers(self, elastic_stack):
        make_cluster, population, _ = elastic_stack
        # Uncontended queue: any answer drift must come from scaling itself,
        # never from admission shedding.
        cluster = make_cluster(shards=2, max_queue=64)
        users, before = self._warm(cluster, population)
        cluster.add_shard()
        cluster.add_shard()
        cluster.remove_shard(0)
        after = cluster.serve_many(cluster.build_requests(users, top_k=4))
        for first, second in zip(before, after):
            assert first.items == second.items

    def test_remove_rejects_unknown_and_last_shard(self, elastic_stack):
        make_cluster, _, _ = elastic_stack
        cluster = make_cluster(shards=2)
        with pytest.raises(ValueError):
            cluster.remove_shard(99)
        cluster.remove_shard(1)
        with pytest.raises(ValueError):
            cluster.remove_shard(0)


# --------------------------------------------------------------------- #
# the autoscaler under a bursty replay
# --------------------------------------------------------------------- #
MIN_SHARDS, MAX_SHARDS = 2, 5


@pytest.fixture(scope="module")
def bursty_workload(elastic_stack):
    _, population, graph = elastic_stack
    return generate_workload(
        population,
        WorkloadConfig(num_requests=300, seed=11, arrival="bursty",
                       cold_fraction=0.1),
        graph)


def _autoscaled_replay(elastic_stack, workload, seed=0):
    make_cluster, _, _ = elastic_stack
    clock = TraceClock()
    cluster = make_cluster(shards=MIN_SHARDS, clock=clock)
    autoscaler = Autoscaler(
        cluster,
        AutoscaleConfig(min_shards=MIN_SHARDS, max_shards=MAX_SHARDS,
                        tick_interval_s=workload.duration_s / 40.0, seed=seed),
        clock=clock)
    replay = ReplayDriver(autoscaler, clock=clock).replay(workload)
    return autoscaler, replay


@pytest.fixture(scope="module")
def autoscaled(elastic_stack, bursty_workload):
    return _autoscaled_replay(elastic_stack, bursty_workload)


class TestAutoscaler:
    def test_scales_both_directions_under_bursty_load(self, autoscaled):
        autoscaler, _ = autoscaled
        actions = [event.action for event in autoscaler.events]
        assert actions.count("up") >= 1
        assert actions.count("down") >= 1

    def test_event_chain_is_well_formed(self, autoscaled):
        autoscaler, _ = autoscaled
        shards = autoscaler.initial_shards
        last_tick = 0
        for event in autoscaler.events:
            assert event.from_shards == shards
            assert event.to_shards == shards + (1 if event.action == "up" else -1)
            assert MIN_SHARDS <= event.to_shards <= MAX_SHARDS
            assert event.tick > last_tick
            shards, last_tick = event.to_shards, event.tick
        assert autoscaler.num_shards == shards

    def test_same_seed_is_bit_identical_including_the_ledger(
            self, elastic_stack, bursty_workload, autoscaled):
        first_scaler, first = autoscaled
        second_scaler, second = _autoscaled_replay(elastic_stack, bursty_workload)
        assert first.signature() == second.signature()

        def ledger(autoscaler):
            # Signals may legitimately hold NaN (shed rate of an idle window),
            # so compare the decision fields rather than the raw dataclasses.
            return [(event.tick, event.action, event.shard_id,
                     event.from_shards, event.to_shards, event.migrated_entries)
                    for event in autoscaler.events]

        assert ledger(first_scaler) == ledger(second_scaler)

    def test_oracle_battery_is_clean_including_scaling_oracle(self, autoscaled):
        autoscaler, replay = autoscaled
        reports = audit(autoscaler, replay.records, full_search_sample=30,
                        seed=0)
        assert reports[-1].oracle == "scaling_oracle"
        assert all(report.ok for report in reports)
        assert sum(report.checked for report in reports) > 0

    def test_autoscaled_beats_static_floor_on_shed_and_ceiling_on_capacity(
            self, elastic_stack, bursty_workload, autoscaled):
        make_cluster, _, _ = elastic_stack
        autoscaler, replay = autoscaled
        clock = TraceClock()
        static = ReplayDriver(make_cluster(shards=MIN_SHARDS, clock=clock),
                              clock=clock).replay(bursty_workload)
        autoscaled_shed = sum(1 for record in replay.records if record.shed)
        static_shed = sum(1 for record in static.records if record.shed)
        assert autoscaled_shed < static_shed
        assert autoscaler.shard_ticks < MAX_SHARDS * autoscaler.ticks

    def test_snapshot_shapes(self, autoscaled):
        autoscaler, _ = autoscaled
        snapshot = autoscaler.autoscale_snapshot()
        assert snapshot["initial_shards"] == MIN_SHARDS
        assert snapshot["scale_ups"] + snapshot["scale_downs"] == len(snapshot["events"])
        assert snapshot["shard_ticks"] == autoscaler.shard_ticks
        telemetry = autoscaler.telemetry_snapshot()
        assert telemetry["autoscale"]["current_shards"] == autoscaler.num_shards
        assert telemetry["topology"]["num_shards"] == autoscaler.num_shards

    def test_warm_migration_moved_entries(self, autoscaled):
        autoscaler, _ = autoscaled
        assert sum(event.migrated_entries for event in autoscaler.events) > 0


# --------------------------------------------------------------------- #
# the scaling oracle rejects corruption
# --------------------------------------------------------------------- #
def _fake_autoscaler(events, initial=2, current=None):
    config = AutoscaleConfig(min_shards=2, max_shards=5)
    chain = initial
    for event in events:
        chain = event.to_shards
    return SimpleNamespace(config=config, initial_shards=initial, events=events,
                           num_shards=current if current is not None else chain)


def _event(tick, action, from_shards, to_shards, at_s=None):
    return ScaleEvent(tick=tick, at_s=at_s if at_s is not None else float(tick),
                      action=action, shard_id=99, from_shards=from_shards,
                      to_shards=to_shards, reason="test", migrated_entries=0)


class TestScalingOracleNegative:
    def _findings(self, events, **kwargs):
        report = ScalingOracle(_fake_autoscaler(events, **kwargs)).check([])
        return [finding.message for finding in report.findings]

    def test_clean_chain_passes(self):
        events = [_event(1, "up", 2, 3), _event(4, "down", 3, 2)]
        assert self._findings(events) == []

    def test_broken_chain_start_is_flagged(self):
        assert self._findings([_event(1, "up", 3, 4)])      # chain stands at 2

    def test_non_unit_step_is_flagged(self):
        assert self._findings([_event(1, "up", 2, 4)])

    def test_bounds_violation_is_flagged(self):
        events = [_event(1, "down", 2, 1)]                  # below min_shards
        assert self._findings(events)

    def test_non_increasing_ticks_are_flagged(self):
        events = [_event(3, "up", 2, 3), _event(3, "up", 3, 4)]
        assert self._findings(events)

    def test_backwards_trace_time_is_flagged(self):
        events = [_event(1, "up", 2, 3, at_s=5.0), _event(2, "up", 3, 4, at_s=1.0)]
        assert self._findings(events)

    def test_final_shard_count_mismatch_is_flagged(self):
        assert self._findings([_event(1, "up", 2, 3)], current=5)

    def test_structural_findings_carry_no_request_identity(self):
        report = ScalingOracle(_fake_autoscaler([_event(1, "up", 2, 4)])).check([])
        assert report.findings and all(finding.index == -1 for finding in report.findings)

    def test_corrupted_cache_hit_is_flagged(self, autoscaled):
        autoscaler, replay = autoscaled
        records = list(replay.records)
        computed = set()
        corrupt_at = None
        for position, record in enumerate(records):
            if (record.tier is ServingTier.CACHE
                    and record.cache_key() in computed
                    and len(set(record.items)) >= 2):
                corrupt_at = position
                break
            if record.tier is ServingTier.FULL:
                computed.add(record.cache_key())
        assert corrupt_at is not None, "replay produced no in-trace cache hit"
        tampered = dataclasses.replace(records[corrupt_at],
                                       items=tuple(records[corrupt_at].items[::-1]))
        records[corrupt_at] = tampered
        report = ScalingOracle(autoscaler).check(records)
        assert not report.ok
        assert all(finding.index >= 0 for finding in report.findings)
