"""Tests for repro.simulate: workload determinism, replay, oracles, report."""

import dataclasses

import numpy as np
import pytest

from repro.darl import InferenceConfig, PathRecommender, PolicyConfig, SharedPolicyNetworks
from repro.kg.entities import EntityType
from repro.serving import RecommendationRequest, RecommendationService, ServingConfig, ServingTier
from repro.simulate import (
    FallbackValidityOracle,
    FullSearchOracle,
    ReplayConfig,
    ReplayDriver,
    RequestRecord,
    SimulatedRequest,
    StaleConsistencyOracle,
    TraceClock,
    UserPopulation,
    Workload,
    WorkloadConfig,
    audit,
    generate_workload,
    render_report,
    replay_telemetry,
    summarize,
)


@pytest.fixture(scope="module")
def sim_stack(tiny_kg, tiny_representations):
    """A service factory + population over the shared tiny artifacts.

    Each ``make_service()`` call returns a *fresh* service (empty result and
    milestone caches) over the same frozen policy/representations, so two
    replays of the same trace must produce identical results.
    """
    graph, category_graph, _ = tiny_kg
    policy = SharedPolicyNetworks(PolicyConfig(embedding_dim=16, hidden_size=8,
                                               mlp_hidden=16, seed=0))

    def make_service(clock=None, **serving_kwargs):
        recommender = PathRecommender(graph, category_graph, tiny_representations,
                                      policy, max_path_length=4, max_entity_actions=8,
                                      max_category_actions=4,
                                      config=InferenceConfig(beam_width=6,
                                                             expansions_per_beam=2))
        serving_kwargs.setdefault("cache_ttl_seconds", 600.0)
        extra = {"clock": clock} if clock is not None else {}
        return RecommendationService(recommender,
                                     config=ServingConfig(**serving_kwargs), **extra)

    cold_standins = tuple(graph.entities.ids_of_type(EntityType.FEATURE)[:3])
    population = UserPopulation.from_graph(graph, extra_cold_users=cold_standins)
    return make_service, population, graph


# --------------------------------------------------------------------- #
# workload generation
# --------------------------------------------------------------------- #
class TestWorkloadGeneration:
    def test_same_seed_reproduces_identical_workload(self, sim_stack):
        _, population, graph = sim_stack
        config = WorkloadConfig(num_requests=200, seed=13, arrival="bursty")
        first = generate_workload(population, config, graph)
        second = generate_workload(population, dataclasses.replace(config), graph)
        assert first.signature() == second.signature()
        assert first.requests == second.requests

    def test_different_seed_changes_the_trace(self, sim_stack):
        _, population, graph = sim_stack
        first = generate_workload(population, WorkloadConfig(num_requests=100, seed=1), graph)
        second = generate_workload(population, WorkloadConfig(num_requests=100, seed=2), graph)
        assert first.signature() != second.signature()

    def test_json_roundtrip_preserves_signature(self, sim_stack, tmp_path):
        _, population, graph = sim_stack
        workload = generate_workload(population, WorkloadConfig(num_requests=50, seed=3), graph)
        assert Workload.from_json(workload.to_json()).signature() == workload.signature()
        path = tmp_path / "trace.json"
        workload.save(str(path))
        assert Workload.load(str(path)).requests == workload.requests

    def test_trace_statistics(self, sim_stack):
        _, population, graph = sim_stack
        config = WorkloadConfig(num_requests=400, seed=5, cold_fraction=0.2,
                                top_k_choices=(3, 7), tight_budget_fraction=0.3)
        workload = generate_workload(population, config, graph)
        arrivals = [request.arrival_s for request in workload]
        assert arrivals == sorted(arrivals)
        assert {request.top_k for request in workload} <= {3, 7}
        cold = set(population.cold_users)
        cold_share = sum(r.user_entity in cold for r in workload) / len(workload)
        assert 0.05 < cold_share < 0.5
        budgeted = [r for r in workload if r.latency_budget_ms is not None]
        assert 0.1 < len(budgeted) / len(workload) < 0.6
        # Zipf skew: the most popular user dominates a uniform share.
        counts = {}
        for request in workload:
            counts[request.user_entity] = counts.get(request.user_entity, 0) + 1
        assert max(counts.values()) > 2 * len(workload) / len(population.warm_users)

    @pytest.mark.parametrize("arrival", ["uniform", "poisson", "bursty"])
    def test_arrival_processes_generate(self, sim_stack, arrival):
        _, population, graph = sim_stack
        config = WorkloadConfig(num_requests=50, seed=11, arrival=arrival, mean_qps=100.0)
        workload = generate_workload(population, config, graph)
        assert len(workload) == 50
        if arrival == "uniform":
            gaps = np.diff([0.0] + [r.arrival_s for r in workload])
            assert np.allclose(gaps, 0.01)

    def test_cold_only_population_serves_everything_cold(self, sim_stack):
        _, population, _ = sim_stack
        cold_only = UserPopulation(warm_users=(), cold_users=population.cold_users)
        workload = generate_workload(cold_only, WorkloadConfig(num_requests=20, seed=0,
                                                               cold_fraction=0.0))
        assert {r.user_entity for r in workload} <= set(population.cold_users)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_requests=0).validate()
        with pytest.raises(ValueError):
            WorkloadConfig(arrival="weibull").validate()
        with pytest.raises(ValueError):
            WorkloadConfig(cold_fraction=1.5).validate()
        with pytest.raises(ValueError):
            WorkloadConfig(top_k_choices=()).validate()
        with pytest.raises(ValueError):
            UserPopulation(warm_users=(), cold_users=())

    def test_simulated_request_converts_to_serving_request(self):
        entry = SimulatedRequest(index=0, arrival_s=0.0, user_entity=5, top_k=4,
                                 exclude_items=(1, 2), latency_budget_ms=2.0,
                                 allow_stale=False)
        request = entry.to_request()
        assert isinstance(request, RecommendationRequest)
        assert request.exclude_items == frozenset({1, 2})
        assert request.latency_budget_ms == 2.0
        assert not request.allow_stale


# --------------------------------------------------------------------- #
# replay + oracles (the acceptance path)
# --------------------------------------------------------------------- #
class TestReplay:
    @pytest.fixture(scope="class")
    def replayed(self, sim_stack):
        make_service, population, graph = sim_stack
        config = WorkloadConfig(num_requests=1000, seed=7, arrival="bursty")
        workload = generate_workload(population, config, graph)
        clock = TraceClock()
        service = make_service(clock=clock)
        result = ReplayDriver(service, clock=clock).replay(workload)
        return service, workload, result

    def test_seeded_1k_replay_end_to_end(self, replayed):
        service, workload, result = replayed
        assert len(workload) == 1000
        assert len(result) == 1000
        assert result.records[0].index == 0
        assert result.cache_hit_rate() > 0.5          # Zipf skew pays off
        tiers = result.tier_counts()
        assert tiers.get(ServingTier.FULL.value, 0) > 0
        assert tiers.get(ServingTier.EMBEDDING.value, 0) > 0

    def test_full_search_oracle_reports_zero_mismatches(self, replayed):
        service, _, result = replayed
        report = FullSearchOracle({0: service}).check(result.records)
        assert report.checked > 100
        assert report.ok, report.findings[:5]

    def test_oracle_battery_is_clean(self, replayed):
        service, _, result = replayed
        reports = audit(service, result.records, full_search_sample=50, seed=0)
        assert all(report.ok for report in reports), [r.summary() for r in reports]

    def test_same_seed_reproduces_identical_replay(self, sim_stack, replayed):
        make_service, population, graph = sim_stack
        _, workload, result = replayed
        again = generate_workload(population,
                                  WorkloadConfig(num_requests=1000, seed=7,
                                                 arrival="bursty"), graph)
        assert again.signature() == workload.signature()
        clock = TraceClock()
        fresh = ReplayDriver(make_service(clock=clock), clock=clock).replay(again)
        assert fresh.signature() == result.signature()

    def test_closed_loop_serves_identical_items(self, sim_stack):
        make_service, population, graph = sim_stack
        workload = generate_workload(population,
                                     WorkloadConfig(num_requests=150, seed=9), graph)
        open_clock, closed_clock = TraceClock(), TraceClock()
        open_result = ReplayDriver(make_service(clock=open_clock),
                                   clock=open_clock).replay(
            workload, ReplayConfig(mode="open"))
        closed_result = ReplayDriver(make_service(clock=closed_clock),
                                     clock=closed_clock).replay(
            workload, ReplayConfig(mode="closed", batch_size=16))
        for open_record, closed_record in zip(open_result.records,
                                              closed_result.records):
            assert open_record.items == closed_record.items

    def test_driver_falls_back_to_serve_for_minimal_facades(self, sim_stack):
        make_service, population, graph = sim_stack
        service = make_service()

        class ServeOnly:
            serve = service.serve

        workload = generate_workload(population,
                                     WorkloadConfig(num_requests=20, seed=4), graph)
        result = ReplayDriver(ServeOnly()).replay(workload)
        assert len(result) == 20

    def test_replay_config_validation(self):
        with pytest.raises(ValueError):
            ReplayConfig(mode="streaming").validate()
        with pytest.raises(ValueError):
            ReplayConfig(batch_window_s=-1.0).validate()
        with pytest.raises(TypeError):
            ReplayDriver(object())


class TestStaleReplay:
    def test_stale_tier_is_exercised_and_consistent(self, sim_stack):
        make_service, population, graph = sim_stack
        clock = TraceClock()
        service = make_service(clock=clock, cache_ttl_seconds=5.0)
        user = population.warm_users[0]
        trace = Workload(config=WorkloadConfig(num_requests=2, seed=0), requests=(
            SimulatedRequest(index=0, arrival_s=0.0, user_entity=user, top_k=4),
            SimulatedRequest(index=1, arrival_s=0.1, user_entity=user, top_k=4),
        ))
        driver = ReplayDriver(service)
        first = driver.replay(trace)
        clock.advance(6.0)                                   # expire the cache
        stale_trace = Workload(config=WorkloadConfig(num_requests=1, seed=0), requests=(
            SimulatedRequest(index=2, arrival_s=6.1, user_entity=user, top_k=4,
                             latency_budget_ms=1e-6),
        ))
        second = driver.replay(stale_trace)
        assert second.records[0].tier is ServingTier.STALE
        assert second.records[0].source_tier is ServingTier.FULL
        combined = first.records + second.records
        report = StaleConsistencyOracle(service).check(combined, strict=True)
        assert report.checked == 1 and report.ok
        # A windowed record list (stale answer's origin outside it) is only a
        # finding in strict mode — warm-up entries are legitimate origins.
        windowed = StaleConsistencyOracle(service).check(second.records)
        assert windowed.checked == 1 and windowed.ok
        assert not StaleConsistencyOracle(service).check(second.records,
                                                         strict=True).ok


class TestOracleDetection:
    """The oracles must actually catch wrong answers, not just pass clean ones."""

    def _record(self, base: RequestRecord, **overrides) -> RequestRecord:
        return dataclasses.replace(base, **overrides)

    @pytest.fixture(scope="class")
    def clean_record(self, sim_stack):
        make_service, population, graph = sim_stack
        service = make_service()
        workload = generate_workload(population,
                                     WorkloadConfig(num_requests=5, seed=2,
                                                    cold_fraction=0.0,
                                                    tight_budget_fraction=0.0))
        result = ReplayDriver(service).replay(workload)
        full = [r for r in result.records if r.tier is ServingTier.FULL]
        return service, full[0]

    def test_full_search_oracle_flags_corrupted_items(self, clean_record):
        service, record = clean_record
        corrupted = self._record(record, items=tuple(reversed(record.items)), paths=())
        report = FullSearchOracle({0: service}).check([corrupted])
        assert report.mismatches == 1

    def test_validity_oracle_flags_excluded_and_duplicate_items(self, clean_record):
        service, record = clean_record
        if not record.items:
            pytest.skip("no items on the sampled record")
        first = record.items[0]
        leaked = self._record(record, exclude_items=(first,), paths=())
        duplicated = self._record(record, items=(first, first), paths=())
        report = FallbackValidityOracle({0: service}).check([leaked, duplicated])
        assert report.mismatches >= 2

    def test_validity_oracle_flags_non_item_entities(self, clean_record, sim_stack):
        service, record = clean_record
        _, population, _ = sim_stack
        bogus = self._record(record, items=(record.user_entity,), paths=())
        report = FallbackValidityOracle({0: service}).check([bogus])
        assert report.mismatches >= 1

    def test_stale_oracle_flags_orphan_stale_answers_in_strict_mode(self, clean_record):
        service, record = clean_record
        orphan = self._record(record, tier=ServingTier.STALE)
        report = StaleConsistencyOracle(service).check([orphan], strict=True)
        assert report.mismatches == 1

    def test_stale_oracle_flags_diverging_stale_items(self, clean_record):
        service, record = clean_record
        stale = self._record(record, tier=ServingTier.STALE,
                             items=tuple(reversed(record.items)), paths=())
        report = StaleConsistencyOracle(service).check([record, stale])
        assert report.mismatches == 1


# --------------------------------------------------------------------- #
# report layer
# --------------------------------------------------------------------- #
class TestReport:
    @pytest.fixture(scope="class")
    def summary_inputs(self, sim_stack):
        make_service, population, graph = sim_stack
        service = make_service()
        workload = generate_workload(population,
                                     WorkloadConfig(num_requests=120, seed=6), graph)
        result = ReplayDriver(service).replay(workload)
        reports = audit(service, result.records, full_search_sample=10)
        return service, result, reports

    def test_summary_shape(self, summary_inputs):
        _, result, reports = summary_inputs
        summary = summarize(result, reports)
        assert summary["requests"] == 120
        assert {"p50", "p95", "p99"} <= set(summary["latency_ms"])
        assert abs(sum(summary["tier_mix"].values()) - 1.0) < 1e-9
        assert abs(sum(summary["source_tier_mix"].values()) - 1.0) < 1e-9
        assert set(summary["oracles"]) == {r.oracle for r in reports}

    def test_replay_telemetry_reuses_serving_types(self, summary_inputs):
        _, result, _ = summary_inputs
        telemetry = replay_telemetry(result)
        assert telemetry.requests == len(result.records)
        assert telemetry.tier_counts() == result.tier_counts()
        assert telemetry.cache_hit_rate() == pytest.approx(result.cache_hit_rate())

    def test_render_report_mentions_everything(self, summary_inputs):
        _, result, reports = summary_inputs
        text = render_report(summarize(result, reports))
        for fragment in ("replay report", "cache hit rate", "tier mix",
                         "full_search_oracle", "latency ms"):
            assert fragment in text
