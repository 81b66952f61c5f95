"""Tests for repro.faults and the self-healing serving contract.

The headline guarantees under test:

* the per-shard circuit breaker walks closed → open → half-open → closed
  deterministically on the injected clock;
* fault plans round-trip through JSON, resolve fraction timebases against the
  trace span, and seed-derived chaos plans are deterministic;
* the injector fires plan events identically on identical clocks (bit-equal
  ledgers) and every committed example plan still parses;
* under any fault plan, 100% of requests are answered, every divergent answer
  carries ledger-explained ``fault`` provenance, and a same-seed fault replay
  is bit-identical (:class:`repro.simulate.FaultToleranceOracle`);
* the update log heals torn tails, the artifact store rejects corrupt
  manifests, and a corrupted generation quarantines while serving boots from
  the newest generation that still verifies.
"""

import dataclasses

import pytest

from repro.cluster import (
    BreakerConfig,
    CircuitBreaker,
    ClusterConfig,
    ClusterService,
    HealthEvent,
    HealthModel,
    ShardStatus,
)
from repro.darl import InferenceConfig, PathRecommender, PolicyConfig, SharedPolicyNetworks
from repro.faults import (
    ArtifactCorruptionFault,
    CrashMidSwapFault,
    FaultInjector,
    FaultLedger,
    FaultPlan,
    InjectedException,
    InjectedStall,
    LatencyFault,
    ShardDownFault,
    ShardExceptionFault,
    TornLogFault,
    chaos_plan,
)
from repro.live import TornLogError, UpdateLog, synthesize_deltas
from repro.pipeline import ArtifactError, ArtifactStore
from repro.serving import RecommendationService, ServingConfig, ServingTier
from repro.simulate import (
    FaultToleranceOracle,
    ReplayDriver,
    TraceClock,
    UserPopulation,
    WorkloadConfig,
    audit,
    generate_workload,
)
from repro.simulate.replay import RequestRecord

from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLE_PLANS = sorted((REPO_ROOT / "examples" / "fault_plans").glob("*.json"))


# --------------------------------------------------------------------------- #
# circuit breaker state machine
# --------------------------------------------------------------------------- #
class TestCircuitBreaker:
    def make(self, cooldown_s=1.0, threshold=3):
        now = [0.0]
        breaker = CircuitBreaker(
            lambda: now[0],
            config=BreakerConfig(failure_threshold=threshold,
                                 cooldown_s=cooldown_s))
        return breaker, now

    def test_trips_after_consecutive_failures_only(self):
        breaker, _ = self.make()
        breaker.record_failure(0)
        breaker.record_failure(0)
        breaker.record_success(0)  # resets the streak
        breaker.record_failure(0)
        breaker.record_failure(0)
        assert breaker.state(0) == "closed" and breaker.allows(0)
        breaker.record_failure(0)
        assert breaker.state(0) == "open" and not breaker.allows(0)

    def test_half_open_admits_exactly_one_probe(self):
        breaker, now = self.make(cooldown_s=1.0)
        for _ in range(3):
            breaker.record_failure(2)
        now[0] = 0.5
        assert not breaker.allows(2)
        now[0] = 1.0  # cooldown elapsed
        assert breaker.state(2) == "half_open"
        assert breaker.allows(2)
        breaker.arm_probe(2)
        assert not breaker.allows(2)  # single probe per window

    def test_probe_outcome_closes_or_reopens(self):
        breaker, now = self.make(cooldown_s=1.0)
        for _ in range(3):
            breaker.record_failure(1)
        now[0] = 1.5
        breaker.allows(1)
        breaker.arm_probe(1)
        breaker.record_failure(1, "probe died")
        assert breaker.state(1) == "open"
        now[0] = 2.0
        assert breaker.state(1) == "open"  # full cooldown restarts
        now[0] = 2.5
        assert breaker.allows(1)  # the router always checks before dispatch
        breaker.arm_probe(1)
        breaker.record_success(1)
        assert breaker.state(1) == "closed" and breaker.allows(1)

    def test_transitions_are_recorded_and_forwarded(self):
        breaker, now = self.make(cooldown_s=1.0)
        seen = []
        breaker.on_transition = seen.append
        for _ in range(3):
            breaker.record_failure(0)
        now[0] = 1.0
        breaker.state(0)
        states = [transition.state for transition in breaker.transitions]
        assert states == ["open", "half_open"]
        assert seen == breaker.transitions
        assert all(transition.shard_id == 0 for transition in seen)

    def test_untouched_shard_is_closed(self):
        breaker, _ = self.make()
        assert breaker.state(9) == "closed" and breaker.allows(9)
        assert breaker.snapshot() == {}


# --------------------------------------------------------------------------- #
# health model: same-instant events apply in scheduling order
# --------------------------------------------------------------------------- #
class TestHealthEventOrdering:
    def test_same_at_s_events_apply_in_scheduling_order(self):
        now = [0.0]
        health = HealthModel([0, 1], clock=lambda: now[0])
        health.schedule(HealthEvent(at_s=1.0, shard_id=0,
                                    status=ShardStatus.DOWN))
        health.schedule(HealthEvent(at_s=1.0, shard_id=0,
                                    status=ShardStatus.HEALTHY))
        now[0] = 1.0
        assert health.is_available(0)  # fail@1.0 then recover@1.0 ends healthy
        health.schedule(HealthEvent(at_s=2.0, shard_id=1,
                                    status=ShardStatus.HEALTHY))
        health.schedule(HealthEvent(at_s=2.0, shard_id=1,
                                    status=ShardStatus.DOWN))
        now[0] = 2.0
        assert not health.is_available(1)  # reversed script ends down


# --------------------------------------------------------------------------- #
# fault plans
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_json_round_trip_preserves_signature(self, tmp_path):
        plan = FaultPlan(events=(
            ShardExceptionFault(at_s=0.1, shard_id=0, count=2),
            LatencyFault(at_s=0.4, shard_id=1, added_ms=400.0, duration_s=0.2),
            ShardDownFault(at_s=0.6, shard_id=2, duration_s=0.3),
            ArtifactCorruptionFault(stage="embed", name="transe.npz",
                                    generation=1, offset=64),
            CrashMidSwapFault(swap_index=0, after_shards=2),
            TornLogFault(append_index=1, drop_bytes=5),
        ))
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = FaultPlan.load(path)
        assert loaded.signature() == plan.signature()
        assert loaded.events == tuple(plan.events)

    def test_fraction_timebase_scales_against_the_trace_span(self):
        plan = FaultPlan(events=(
            ShardDownFault(at_s=0.5, shard_id=0, duration_s=0.25),),
            timebase="fraction")
        resolved = plan.resolve(8.0)
        assert resolved.timebase == "seconds"
        event = resolved.events[0]
        assert event.at_s == pytest.approx(4.0)
        assert event.duration_s == pytest.approx(2.0)

    def test_seconds_timebase_resolution_is_a_no_op(self):
        plan = FaultPlan(events=(ShardExceptionFault(at_s=1.0, shard_id=0),))
        assert plan.resolve(100.0) is plan

    def test_chaos_plan_is_seed_deterministic(self):
        first = chaos_plan(7, num_shards=4, duration_s=2.0)
        second = chaos_plan(7, num_shards=4, duration_s=2.0)
        other = chaos_plan(8, num_shards=4, duration_s=2.0)
        assert first.signature() == second.signature()
        assert first.signature() != other.signature()
        assert all(0 <= getattr(event, "shard_id", 0) < 4
                   for event in first.events)

    def test_chaos_plan_include_live_adds_lifecycle_faults(self):
        plan = chaos_plan(3, num_shards=4, duration_s=2.0, include_live=True)
        kinds = {type(event) for event in plan.events}
        assert {ArtifactCorruptionFault, CrashMidSwapFault,
                TornLogFault} <= kinds

    @pytest.mark.parametrize("path", EXAMPLE_PLANS,
                             ids=[p.stem for p in EXAMPLE_PLANS])
    def test_committed_example_plans_load_and_resolve(self, path):
        plan = FaultPlan.load(path)
        resolved = plan.resolve(1.5)
        assert resolved.timebase == "seconds"
        assert len(resolved.events) == len(plan.events)

    def test_committed_example_plans_exist(self):
        names = {path.stem for path in EXAMPLE_PLANS}
        assert {"transient_exceptions", "latency_storm",
                "corrupt_swap"} <= names


# --------------------------------------------------------------------------- #
# the injector fires deterministically
# --------------------------------------------------------------------------- #
class TestFaultInjector:
    def test_requires_a_resolved_plan(self):
        plan = FaultPlan(events=(), timebase="fraction")
        with pytest.raises(ValueError):
            FaultInjector(plan, lambda: 0.0)

    def test_exception_budget_is_finite(self):
        plan = FaultPlan(events=(
            ShardExceptionFault(at_s=0.0, shard_id=0, count=2),))
        injector = FaultInjector(plan, lambda: 1.0)
        for _ in range(2):
            with pytest.raises(InjectedException):
                injector.before_shard_serve(0)
        injector.before_shard_serve(0)  # budget spent: no more firings
        injector.before_shard_serve(1)  # other shards never fault
        assert injector.ledger.count("shard_exception") == 2

    def test_latency_splits_into_stalls_and_spikes(self):
        plan = FaultPlan(events=(
            LatencyFault(at_s=0.0, shard_id=0, added_ms=400.0, duration_s=1.0),
            LatencyFault(at_s=0.0, shard_id=1, added_ms=80.0, duration_s=1.0),
        ))
        injector = FaultInjector(plan, lambda: 0.5)
        with pytest.raises(InjectedStall):
            injector.before_shard_serve(0)
        injector.before_shard_serve(1)  # sub-stall: no raise
        assert injector.latency_penalty_ms(1) == pytest.approx(80.0)
        assert injector.latency_penalty_ms(0) == pytest.approx(0.0)

    def test_windowed_faults_respect_duration(self):
        plan = FaultPlan(events=(
            ShardDownFault(at_s=1.0, shard_id=0, duration_s=0.5),))
        now = [0.0]
        injector = FaultInjector(plan, lambda: now[0])
        injector.before_shard_serve(0)  # before the window
        now[0] = 1.2
        with pytest.raises(InjectedException):
            injector.before_shard_serve(0)
        now[0] = 1.6
        injector.before_shard_serve(0)  # window closed

    def test_identical_clocks_produce_bit_identical_ledgers(self):
        plan = FaultPlan(events=(
            ShardExceptionFault(at_s=0.2, shard_id=0, count=1),
            LatencyFault(at_s=0.4, shard_id=1, added_ms=50.0, duration_s=0.2),
        ))
        script = [0.1, 0.25, 0.45, 0.7]

        def run():
            ticks = iter(script)
            now = [0.0]
            injector = FaultInjector(plan, lambda: now[0])
            for tick in ticks:
                now[0] = tick
                for shard in (0, 1):
                    try:
                        injector.before_shard_serve(shard)
                    except InjectedException:
                        pass
                    injector.latency_penalty_ms(shard)
            return injector.ledger

        assert run().signature() == run().signature()

    def test_crash_mid_swap_fires_on_the_exact_flip(self):
        plan = FaultPlan(events=(
            CrashMidSwapFault(swap_index=1, after_shards=2),))
        injector = FaultInjector(plan, lambda: 0.0)
        first = injector.on_swap_begin()
        injector.on_shard_flip(first, 2, 4)  # wrong swap: no crash
        second = injector.on_swap_begin()
        assert (first, second) == (0, 1)
        injector.on_shard_flip(second, 1, 4)
        from repro.faults import InjectedCrash
        with pytest.raises(InjectedCrash):
            injector.on_shard_flip(second, 2, 4)
        # a crash "after" the final shard would be a completed swap — no fire
        injector.on_shard_flip(second, 2, 2)

    def test_ledger_orders_kinds_and_counts(self):
        ledger = FaultLedger()
        ledger.record(at_s=0.0, source="plan", kind="shard_exception",
                      target="shard:0")
        ledger.record(at_s=0.1, source="defense", kind="retry",
                      target="shard:1")
        ledger.record(at_s=0.2, source="defense", kind="retry",
                      target="shard:2")
        assert ledger.kinds() == ["retry", "shard_exception"]
        assert ledger.count("retry") == 2
        assert [entry.seq for entry in ledger.entries] == [0, 1, 2]


# --------------------------------------------------------------------------- #
# fault-tolerance oracle: negative and positive cases
# --------------------------------------------------------------------------- #
def _record(index, items, fault=None, user=5):
    return RequestRecord(
        index=index, arrival_s=0.01 * index, user_entity=user, top_k=len(items),
        exclude_items=(), latency_budget_ms=None, allow_stale=False,
        tier=ServingTier.FULL, source_tier=ServingTier.FULL, cache_hit=False,
        latency_ms=1.0, items=tuple(items), fault=fault)


class _StubLedger:
    def __init__(self, *kinds):
        self._kinds = sorted(set(kinds))

    def kinds(self):
        return list(self._kinds)


class TestFaultToleranceOracle:
    def test_clean_twin_replay_passes(self):
        baseline = [_record(0, [1, 2]), _record(1, [3, 4])]
        report = FaultToleranceOracle(baseline).check(
            [_record(0, [1, 2]), _record(1, [3, 4])])
        assert report.ok and report.checked == 2

    def test_unexplained_divergence_is_flagged(self):
        baseline = [_record(0, [1, 2])]
        report = FaultToleranceOracle(baseline).check([_record(0, [9, 2])])
        assert not report.ok
        assert "no fault provenance" in report.findings[0].message

    def test_explained_divergence_passes(self):
        baseline = [_record(0, [1, 2])]
        ledger = _StubLedger("shard_exception", "retry")
        report = FaultToleranceOracle(baseline, ledger).check(
            [_record(0, [9, 2], fault="retry_exhausted")])
        assert report.ok

    def test_phantom_provenance_is_flagged(self):
        baseline = [_record(0, [1, 2])]
        report = FaultToleranceOracle(baseline, _StubLedger()).check(
            [_record(0, [1, 2], fault="circuit_open")])
        assert not report.ok
        assert "no explaining fault" in report.findings[0].message

    def test_unknown_provenance_is_flagged(self):
        baseline = [_record(0, [1, 2])]
        report = FaultToleranceOracle(baseline, _StubLedger()).check(
            [_record(0, [1, 2], fault="gremlins")])
        assert not report.ok
        assert "unknown fault provenance" in report.findings[0].message

    def test_dropped_requests_are_flagged(self):
        baseline = [_record(0, [1]), _record(1, [2])]
        report = FaultToleranceOracle(baseline).check([_record(0, [1])])
        assert not report.ok
        assert "every request must be answered" in report.findings[0].message

    def test_every_provenance_value_has_a_ledger_mapping(self):
        from repro.serving.service import RecommendationResponse  # noqa: F401
        for value, kinds in FaultToleranceOracle.PROVENANCE_EXPLANATIONS.items():
            assert kinds, value


# --------------------------------------------------------------------------- #
# provenance values are answer identity
# --------------------------------------------------------------------------- #
class TestProvenanceSignature:
    def test_fault_values_are_distinct_in_the_replay_signature(self):
        record = _record(0, [1, 2, 3])
        signatures = set()
        import hashlib

        def sig(rec):
            digest = hashlib.sha256()
            digest.update(repr((rec.index, rec.user_entity, rec.top_k,
                                rec.exclude_items, rec.tier.value,
                                rec.source_tier.value, rec.cache_hit,
                                rec.shed, rec.generation, rec.fault,
                                rec.items)).encode("utf-8"))
            return digest.hexdigest()

        for fault in (None, "circuit_open", "retried", "retry_exhausted",
                      "quarantined", "swap_interrupted"):
            signatures.add(sig(dataclasses.replace(record, fault=fault)))
        assert len(signatures) == 6


# --------------------------------------------------------------------------- #
# torn update-log recovery
# --------------------------------------------------------------------------- #
class TestTornLogRecovery:
    def _log(self, tiny_kg, count=6):
        graph, _, _ = tiny_kg
        return UpdateLog(synthesize_deltas(graph, count, seed=2))

    def test_torn_tail_is_truncated_to_last_valid_record(self, tiny_kg,
                                                         tmp_path):
        log = self._log(tiny_kg)
        path = tmp_path / "updates.jsonl"
        log.save_jsonl(path)
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # tear the final record mid-JSON
        recovered = UpdateLog.load_jsonl(path, recover=True)
        assert len(recovered) == len(log) - 1
        assert recovered.events == log.events[:-1]
        # the file itself was healed: a plain reload sees the truncated log
        assert UpdateLog.load_jsonl(path, recover=False).events == recovered.events

    def test_torn_tail_without_recover_raises(self, tiny_kg, tmp_path):
        log = self._log(tiny_kg)
        path = tmp_path / "updates.jsonl"
        log.save_jsonl(path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(TornLogError):
            UpdateLog.load_jsonl(path, recover=False)

    def test_mid_file_damage_always_raises(self, tiny_kg, tmp_path):
        log = self._log(tiny_kg)
        path = tmp_path / "updates.jsonl"
        log.save_jsonl(path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"broken": \n'
        path.write_bytes(b"".join(lines))
        with pytest.raises(TornLogError):
            UpdateLog.load_jsonl(path, recover=True)


# --------------------------------------------------------------------------- #
# artifact-store hardening: manifests, checksums, quarantine boot
# --------------------------------------------------------------------------- #
def _store_with_generations(tmp_path):
    """A root store (generation 0) plus one nested generation, both verified."""
    root = ArtifactStore(tmp_path / "store")
    root.begin("embed")
    (root.stage_dir("embed") / "weights.bin").write_bytes(b"generation zero")
    root.complete("embed", "fp0")
    gen = root.begin_generation()
    gen.begin("embed")
    (gen.stage_dir("embed") / "weights.bin").write_bytes(b"generation one!")
    gen.complete("embed", "fp1")
    return root, gen


class TestArtifactHardening:
    def test_corrupt_manifest_json_raises_artifact_error(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.begin("embed")
        store.complete("embed", "fp")
        store.manifest_path.write_text("{not json")
        with pytest.raises(ArtifactError, match="corrupt manifest"):
            store.read_manifest()

    def test_non_object_manifest_raises_artifact_error(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.root.mkdir(parents=True)
        store.manifest_path.write_text("[1, 2, 3]")
        with pytest.raises(ArtifactError, match="expected a JSON object"):
            store.read_manifest()

    def test_stale_manifest_tmp_is_swept(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.begin("embed")
        store.complete("embed", "fp")
        stale = store.manifest_path.with_suffix(".json.tmp")
        stale.write_text('{"partial":')
        manifest = store.read_manifest()
        assert not stale.exists()
        assert "embed" in manifest["stages"]

    def test_verify_files_flags_a_flipped_byte(self, tmp_path):
        root, gen = _store_with_generations(tmp_path)
        target = gen.stage_dir("embed") / "weights.bin"
        data = bytearray(target.read_bytes())
        data[3] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(ArtifactError, match="checksum"):
            gen.verify_files()

    def test_corrupt_generation_quarantines_and_boot_falls_back(self, tmp_path):
        root, gen = _store_with_generations(tmp_path)
        assert root.load().generation == 1  # healthy: newest wins
        target = gen.stage_dir("embed") / "weights.bin"
        data = bytearray(target.read_bytes())
        data[0] ^= 0xFF
        target.write_bytes(bytes(data))
        booted = root.load()
        assert booted.generation == 0  # newest *verified* generation
        assert gen.is_quarantined
        assert root.list_generations() == [0]
        with pytest.raises(ArtifactError, match="quarantined"):
            root.load(1)

    def test_quarantined_numbers_are_never_reused(self, tmp_path):
        root, gen = _store_with_generations(tmp_path)
        gen.quarantine("poisoned by test")
        fresh = root.begin_generation()
        assert fresh.generation == 2
        assert gen.quarantine_reason() == "poisoned by test"


# --------------------------------------------------------------------------- #
# end-to-end: chaos replays over a real (tiny) cluster
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def chaos_stack(tiny_kg, tiny_representations):
    """Workload + a factory for identically-initialised armored clusters."""
    graph, category_graph, _ = tiny_kg
    policy = SharedPolicyNetworks(PolicyConfig(embedding_dim=16, hidden_size=8,
                                               mlp_hidden=16, seed=0))

    def make_cluster(clock, *, shards=4, breaker=True, max_retries=2):
        services = []
        for _ in range(shards):
            recommender = PathRecommender(
                graph, category_graph, tiny_representations, policy,
                max_path_length=4, max_entity_actions=8,
                max_category_actions=4,
                config=InferenceConfig(beam_width=6, expansions_per_beam=2))
            services.append(RecommendationService(
                recommender,
                config=ServingConfig(cache_capacity=64,
                                     cache_ttl_seconds=600.0),
                clock=clock))
        config = ClusterConfig(num_shards=shards, replication_factor=2,
                               max_retries=max_retries)
        breakers = CircuitBreaker(clock) if breaker else None
        return ClusterService(services, config=config, clock=clock,
                              breaker=breakers)

    population = UserPopulation.from_graph(graph)
    workload = generate_workload(
        population, WorkloadConfig(num_requests=250, seed=11), graph)
    return make_cluster, workload


def _chaos_replay(make_cluster, workload, plan=None, **cluster_kwargs):
    clock = TraceClock()
    cluster = make_cluster(clock, **cluster_kwargs)
    injector = None
    if plan is not None:
        injector = FaultInjector(plan.resolve(workload.duration_s),
                                 clock).install(cluster)
    replay = ReplayDriver(cluster, clock=clock).replay(workload)
    return cluster, replay, injector


class TestChaosReplay:
    @pytest.fixture(scope="class")
    def clean(self, chaos_stack):
        """The fault-free twin: its cluster and its replay."""
        make_cluster, workload = chaos_stack
        cluster, replay, _ = _chaos_replay(make_cluster, workload)
        return cluster, replay

    @pytest.fixture(scope="class")
    def baseline(self, clean):
        return clean[1]

    @staticmethod
    def _audit(clean, faulted, injector):
        """The clean twin's battery plus the fault-tolerance audit."""
        cluster, replay = clean
        return audit(cluster, replay.records, full_search_sample=20, seed=0,
                     twin=faulted.records, ledger=injector.ledger)

    def test_armored_faultfree_replay_matches_the_bare_cluster(
            self, chaos_stack, baseline):
        make_cluster, workload = chaos_stack
        _, bare, _ = _chaos_replay(make_cluster, workload, breaker=False)
        assert bare.signature() == baseline.signature()
        assert all(record.fault is None for record in baseline.records)

    def test_chaos_plan_answers_everything_with_explained_divergence(
            self, chaos_stack, clean):
        make_cluster, workload = chaos_stack
        plan = chaos_plan(5, num_shards=4, duration_s=workload.duration_s)
        cluster, faulted, injector = _chaos_replay(make_cluster, workload,
                                                   plan=plan)
        assert len(faulted.records) == len(workload)
        reports = self._audit(clean, faulted, injector)
        assert reports[-1].oracle == "fault_tolerance_oracle"
        assert all(report.ok for report in reports), [
            finding.message for report in reports
            for finding in report.findings][:5]
        assert len(injector.ledger) > 0

    def test_same_seed_chaos_replay_is_bit_identical(self, chaos_stack):
        make_cluster, workload = chaos_stack
        plan = chaos_plan(5, num_shards=4, duration_s=workload.duration_s)
        _, first, first_injector = _chaos_replay(make_cluster, workload,
                                                 plan=plan)
        _, second, second_injector = _chaos_replay(make_cluster, workload,
                                                   plan=plan)
        assert first.signature() == second.signature()
        assert (first_injector.ledger.signature()
                == second_injector.ledger.signature())

    def test_whole_trace_outage_degrades_with_retry_exhausted(
            self, chaos_stack, clean, baseline):
        make_cluster, workload = chaos_stack
        plan = FaultPlan(events=(
            ShardDownFault(at_s=0.0, shard_id=0),
            ShardDownFault(at_s=0.0, shard_id=1),
            ShardDownFault(at_s=0.0, shard_id=2),
            ShardDownFault(at_s=0.0, shard_id=3),
        ))
        cluster, faulted, injector = _chaos_replay(
            make_cluster, workload, plan=plan, max_retries=1)
        assert len(faulted.records) == len(workload)
        faults = {record.fault for record in faulted.records}
        assert "retry_exhausted" in faults or "circuit_open" in faults
        assert None not in faults or all(
            record.items == base.items
            for record, base in zip(faulted.records, baseline.records)
            if record.fault is None)
        reports = self._audit(clean, faulted, injector)
        assert all(report.ok for report in reports)

    def test_transient_exceptions_trip_breakers_and_recover(
            self, chaos_stack, clean):
        make_cluster, workload = chaos_stack
        plan = FaultPlan(events=(
            ShardExceptionFault(at_s=0.0, shard_id=0, count=4),))
        cluster, faulted, injector = _chaos_replay(make_cluster, workload,
                                                   plan=plan)
        assert len(faulted.records) == len(workload)
        assert injector.ledger.count("shard_exception") == 4
        assert injector.ledger.count("retry") > 0
        # The battery audits answer validity on the clean twin, the
        # fault-tolerance oracle the faulted replay against it.
        reports = self._audit(clean, faulted, injector)
        assert all(report.ok for report in reports)
