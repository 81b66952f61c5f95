"""Tests for repro.scenarios: combinators, registry, explorer, CLI wiring.

The headline guarantees under test:

* every transform is a pure seeded function of its spec — the same scenario
  applied to the same trace is bit-identical, and JSON round-trips preserve
  the content ``signature()``;
* the hot-shard adversary measurably concentrates load on its target shard
  (against the cluster's *own* ring) while the cluster still answers 100%
  of the requests;
* the Explorer's comparison matrix is deterministic — same seeds, same
  matrix signature — and every cell passes the oracle battery;
* the workload schema hardening rejects malformed payloads with typed
  errors, and the transforms survive the degenerate traces they will meet
  (empty, single-request, zero-span, boundary-exact arrivals).
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.cluster import ClusterConfig, ConsistentHashRing
from repro.darl import CADRLConfig
from repro.kg.entities import EntityType
from repro.pipeline import RunConfig
from repro.pipeline.config import DataConfig, EvalConfig
from repro.scenarios import (CacheBuster, CohortCorrelation,
                             DiurnalModulation, Explorer, ExplorerConfig,
                             FlashCrowd, HotShardTargeting, Phase,
                             PhaseSchedule, Scenario, ScenarioContext,
                             ScenarioError, get_scenario, load_scenario,
                             render_matrix, scenario_names,
                             transform_from_dict)
from repro.simulate import (SimulatedRequest, UserPopulation, Workload,
                            WorkloadConfig, WorkloadSchemaError,
                            generate_workload)

EXAMPLES = Path(__file__).resolve().parents[1] / "examples" / "scenarios"


@pytest.fixture(scope="module")
def scenario_stack(tiny_kg):
    """The tiny graph's population (plus cold stand-ins) and the graph."""
    graph, _, _ = tiny_kg
    cold_standins = tuple(graph.entities.ids_of_type(EntityType.FEATURE)[:3])
    population = UserPopulation.from_graph(graph,
                                           extra_cold_users=cold_standins)
    return population, graph


@pytest.fixture(scope="module")
def base_workload(scenario_stack):
    population, graph = scenario_stack
    return generate_workload(
        population, WorkloadConfig(num_requests=200, seed=7), graph)


def synthetic_workload(arrivals, user=None, mean_qps=1.0):
    """A hand-built trace with exact arrival times (all warm user 0)."""
    requests = tuple(
        SimulatedRequest(index=i, arrival_s=float(at),
                         user_entity=user if user is not None else 100 + i,
                         top_k=5)
        for i, at in enumerate(arrivals))
    config = WorkloadConfig(num_requests=max(1, len(requests)),
                            mean_qps=mean_qps)
    return Workload(config=config, requests=requests)


# --------------------------------------------------------------------- #
# combinators
# --------------------------------------------------------------------- #
class TestPhaseSchedule:
    def test_boundary_exact_arrival_joins_the_later_phase(self):
        # Span 2.0, boundary at fraction 0.5 → absolute t=1.0; the request
        # arriving exactly at 1.0 must be re-timed at the later phase's rate.
        workload = synthetic_workload([0.0, 1.0, 2.0], mean_qps=1.0)
        schedule = PhaseSchedule(phases=(
            Phase(start=0.0, arrival="uniform", rate_multiplier=1.0),
            Phase(start=0.5, arrival="uniform", rate_multiplier=4.0)))
        shaped = Scenario(name="s", transforms=(schedule,)).apply(workload)
        arrivals = [request.arrival_s for request in shaped]
        # Both re-timed gaps use the 4x phase (0.25s), not the 1x one (1.0s).
        assert arrivals == pytest.approx([0.0, 0.25, 0.5])

    def test_arrival_just_before_the_boundary_keeps_the_earlier_phase(self):
        workload = synthetic_workload([0.0, 0.99, 2.0], mean_qps=1.0)
        schedule = PhaseSchedule(phases=(
            Phase(start=0.0, arrival="uniform", rate_multiplier=1.0),
            Phase(start=0.5, arrival="uniform", rate_multiplier=4.0)))
        shaped = Scenario(name="s", transforms=(schedule,)).apply(workload)
        arrivals = [request.arrival_s for request in shaped]
        assert arrivals == pytest.approx([0.0, 1.0, 1.25])

    def test_poisson_phases_are_seeded(self, base_workload):
        schedule = PhaseSchedule(phases=(Phase(start=0.0, arrival="poisson",
                                               rate_multiplier=3.0),), seed=5)
        scenario = Scenario(name="s", transforms=(schedule,))
        first = scenario.apply(base_workload)
        second = scenario.apply(base_workload)
        assert first.signature() == second.signature()
        assert first.signature() != base_workload.signature()

    def test_bad_phase_specs_raise(self):
        with pytest.raises(ScenarioError):
            PhaseSchedule(phases=())
        with pytest.raises(ScenarioError):
            PhaseSchedule(phases=(Phase(start=0.2),))  # must start at 0
        with pytest.raises(ScenarioError):
            PhaseSchedule(phases=(Phase(start=0.0), Phase(start=0.0)))
        with pytest.raises(ScenarioError):
            Phase(start=0.0, arrival="bursty")
        with pytest.raises(ScenarioError):
            Phase(start=0.0, rate_multiplier=float("nan"))


class TestDiurnalModulation:
    def test_peaks_compress_and_troughs_stretch(self):
        # One full cycle starting at phase 0: the first half of the span sits
        # under sin>0 (compressed), the second under sin<0 (stretched).
        workload = synthetic_workload([i * 0.1 for i in range(21)])
        shaped = Scenario(name="s", transforms=(
            DiurnalModulation(period=1.0, amplitude=0.8),)).apply(workload)
        gaps = [b.arrival_s - a.arrival_s
                for a, b in zip(shaped.requests, shaped.requests[1:])]
        assert min(gaps[:8]) > 0.0
        assert max(gaps[:8]) < 0.1        # compressed under the peak
        assert max(gaps[-8:]) > 0.1       # stretched in the trough
        arrivals = [request.arrival_s for request in shaped]
        assert arrivals == sorted(arrivals)

    def test_amplitude_must_stay_below_one(self):
        with pytest.raises(ScenarioError):
            DiurnalModulation(amplitude=1.0)
        with pytest.raises(ScenarioError):
            DiurnalModulation(period=0.0)


class TestFlashCrowd:
    def test_window_concentrates_onto_hot_users(self, base_workload):
        crowd = FlashCrowd(start=0.3, duration=0.4, rate_multiplier=8.0,
                           hot_users=2, target_fraction=1.0, seed=3)
        shaped = Scenario(name="s", transforms=(crowd,)).apply(base_workload)
        assert len(shaped) == len(base_workload)
        span = base_workload.duration_s
        origin = base_workload.requests[0].arrival_s
        window = (origin + 0.3 * span, origin + 0.7 * span)
        original_inside = [request for request in base_workload
                           if window[0] <= request.arrival_s < window[1]]
        assert original_inside  # the window must actually cover traffic
        counts = {}
        for request in base_workload:
            counts[request.user_entity] = counts.get(request.user_entity, 0) + 1
        hot = set(sorted(counts, key=lambda u: (-counts[u], u))[:2])
        # Out-of-window arrivals are untouched, so everything still inside
        # the window is a transformed request: compressed 8x towards the
        # window start and (target_fraction=1) retargeted onto a hot user
        # with a bare, exclusion-free cache key.
        inside = [request for request in shaped
                  if window[0] <= request.arrival_s < window[1]]
        assert len(inside) == len(original_inside)
        compressed_end = window[0] + 0.4 * span / 8.0
        assert all(request.arrival_s <= compressed_end + 1e-9
                   for request in inside)
        assert all(request.user_entity in hot for request in inside)
        assert all(request.exclude_items == () for request in inside)

    def test_same_seed_is_bit_identical(self, base_workload):
        crowd = FlashCrowd(seed=11)
        scenario = Scenario(name="s", transforms=(crowd,))
        assert (scenario.apply(base_workload).signature()
                == scenario.apply(base_workload).signature())


class TestCohortCorrelation:
    def test_sessions_draw_from_single_cohorts(self, scenario_stack,
                                               base_workload):
        population, graph = scenario_stack
        transform = CohortCorrelation(num_cohorts=3, session=0.25, seed=2)
        context = ScenarioContext(graph=graph, population=population)
        shaped = Scenario(name="s", transforms=(transform,)).apply(
            base_workload, context)
        assert len(shaped) == len(base_workload)
        users = set(population.warm_users) | set(population.cold_users)
        assert {request.user_entity for request in shaped} <= users
        # Retargeted requests that keep exclusions carry the *new* user's
        # purchases, not the original's.
        for request in shaped:
            if request.exclude_items:
                assert set(request.exclude_items) == set(
                    graph.purchased_items(request.user_entity))


class TestCacheBuster:
    def test_rotates_cache_keys(self, scenario_stack, base_workload):
        population, graph = scenario_stack
        buster = CacheBuster(fraction=1.0, rotation=64, seed=4)
        context = ScenarioContext(graph=graph, population=population)
        shaped = Scenario(name="s", transforms=(buster,)).apply(
            base_workload, context)

        def keys(workload):
            return {(request.user_entity, request.top_k,
                     request.exclude_items) for request in workload}

        # Rotation fragments the cache-key space: far more distinct keys
        # than the organic trace, nearly one per request.
        assert len(keys(shaped)) > len(keys(base_workload))
        assert len(keys(shaped)) >= 0.8 * len(shaped)
        items = set(graph.entities.ids_of_type(EntityType.ITEM))
        for request in shaped:
            assert set(request.exclude_items) & items

    def test_needs_a_graph(self, base_workload):
        with pytest.raises(ScenarioError, match="graph"):
            Scenario(name="s", transforms=(CacheBuster(),)).apply(
                base_workload, ScenarioContext())


class TestHotShardTargeting:
    def test_targets_the_ring_primary(self, scenario_stack, base_workload):
        population, graph = scenario_stack
        ring = ConsistentHashRing(range(4), virtual_nodes=64, seed=0)
        transform = HotShardTargeting(target_shard=2, fraction=1.0, seed=6)
        shaped = Scenario(name="s", transforms=(transform,)).apply(
            base_workload,
            ScenarioContext(graph=graph, population=population, ring=ring))
        for request in shaped:
            assert ring.primary(request.user_entity) == 2

    def test_missing_shard_raises(self, base_workload):
        ring = ConsistentHashRing(range(2), seed=0)
        with pytest.raises(ScenarioError, match="not on the ring"):
            Scenario(name="s", transforms=(
                HotShardTargeting(target_shard=7),)).apply(
                base_workload, ScenarioContext(ring=ring))

    def test_keys_for_shard_partitions_the_population(self):
        ring = ConsistentHashRing(range(3), virtual_nodes=64, seed=0)
        keys = list(range(300))
        owned = [ring.keys_for_shard(keys, shard) for shard in ring.shards]
        assert sorted(key for part in owned for key in part) == keys
        for shard, part in zip(ring.shards, owned):
            assert all(ring.primary(key) == shard for key in part)
        with pytest.raises(ValueError):
            ring.keys_for_shard(keys, 9)


# --------------------------------------------------------------------- #
# serialisation, registry, committed specs
# --------------------------------------------------------------------- #
class TestScenarioSerialization:
    def test_round_trip_preserves_signature(self):
        scenario = Scenario(
            name="mixed", description="everything at once",
            transforms=(
                PhaseSchedule(phases=(Phase(start=0.0),
                                      Phase(start=0.5, rate_multiplier=3.0))),
                DiurnalModulation(period=0.4, amplitude=0.5),
                FlashCrowd(seed=2),
                CohortCorrelation(num_cohorts=2),
                CacheBuster(rotation=8),
                HotShardTargeting(target_shard=1)))
        restored = Scenario.from_json(scenario.to_json())
        assert restored == scenario
        assert restored.signature() == scenario.signature()

    def test_unknown_kind_and_bad_fields_raise(self):
        with pytest.raises(ScenarioError, match="unknown transform kind"):
            transform_from_dict({"kind": "meteor_strike"})
        with pytest.raises(ScenarioError, match="bad flash_crowd spec"):
            transform_from_dict({"kind": "flash_crowd", "bogus": 1})
        with pytest.raises(ScenarioError, match="fraction"):
            CacheBuster(fraction=1.5)
        with pytest.raises(ScenarioError, match="version"):
            Scenario.from_dict({"version": 99, "name": "x"})
        with pytest.raises(ScenarioError, match="name"):
            Scenario.from_dict({"version": 1})

    def test_registry_names_resolve(self):
        names = scenario_names()
        assert {"baseline", "flash-crowd", "cache-buster",
                "hot-shard"} <= set(names)
        for name in names:
            assert get_scenario(name).name == name
        with pytest.raises(ScenarioError, match="neither a registered"):
            load_scenario("definitely-not-a-scenario")

    def test_committed_specs_load_and_round_trip(self, tmp_path):
        specs = sorted(EXAMPLES.glob("*.json"))
        assert len(specs) >= 3
        for path in specs:
            scenario = load_scenario(path)
            assert scenario.transforms
            copy = tmp_path / path.name
            scenario.save(copy)
            assert load_scenario(copy).signature() == scenario.signature()


# --------------------------------------------------------------------- #
# workload schema hardening + degenerate traces
# --------------------------------------------------------------------- #
class TestWorkloadSchema:
    def test_non_finite_rates_are_rejected(self):
        for field, value in (("mean_qps", float("nan")),
                             ("mean_qps", float("inf")),
                             ("cold_fraction", float("nan")),
                             ("zipf_exponent", float("inf")),
                             ("tight_budget_ms", float("nan"))):
            config = dataclasses.replace(WorkloadConfig(), **{field: value})
            with pytest.raises(ValueError, match=field):
                config.validate()

    def test_negative_fractions_are_rejected(self):
        with pytest.raises(ValueError, match="cold_fraction"):
            WorkloadConfig(cold_fraction=-0.1).validate()

    def test_unknown_config_key_is_a_schema_error(self, base_workload):
        payload = base_workload.to_dict()
        payload["config"]["bogus_knob"] = 3
        with pytest.raises(WorkloadSchemaError, match="bogus_knob"):
            Workload.from_dict(payload)

    def test_unknown_top_level_key_is_a_schema_error(self, base_workload):
        payload = base_workload.to_dict()
        payload["extra"] = []
        with pytest.raises(WorkloadSchemaError, match="extra"):
            Workload.from_dict(payload)
        with pytest.raises(WorkloadSchemaError, match="missing"):
            Workload.from_dict({"config": payload["config"]})

    def test_request_entry_schema_errors(self, base_workload):
        payload = base_workload.to_dict()
        del payload["requests"][0]["user_entity"]
        with pytest.raises(WorkloadSchemaError, match="user_entity"):
            Workload.from_dict(payload)
        payload = base_workload.to_dict()
        payload["requests"][0]["surprise"] = 1
        with pytest.raises(WorkloadSchemaError, match="surprise"):
            Workload.from_dict(payload)
        payload = base_workload.to_dict()
        payload["requests"][0]["arrival_s"] = float("inf")
        with pytest.raises(WorkloadSchemaError, match="arrival_s"):
            Workload.from_dict(payload)

    def test_invalid_config_values_fail_at_load(self, base_workload):
        payload = base_workload.to_dict()
        payload["config"]["mean_qps"] = float("nan")
        with pytest.raises(WorkloadSchemaError, match="mean_qps"):
            Workload.from_dict(payload)

    def test_valid_payload_still_round_trips(self, base_workload):
        assert (Workload.from_dict(base_workload.to_dict()).signature()
                == base_workload.signature())


ALL_TRANSFORMS = (
    PhaseSchedule(phases=(Phase(start=0.0), Phase(start=0.5))),
    DiurnalModulation(),
    FlashCrowd(target_fraction=1.0),
    CohortCorrelation(),
    # One shard, so the lone synthetic user is guaranteed to hash to it.
    HotShardTargeting(fraction=1.0, num_shards=1),
)


class TestDegenerateTraces:
    @pytest.mark.parametrize("transform", ALL_TRANSFORMS,
                             ids=lambda transform: transform.kind)
    def test_empty_trace_passes_through(self, transform):
        workload = synthetic_workload([])
        shaped = Scenario(name="s", transforms=(transform,)).apply(workload)
        assert shaped.requests == ()
        assert math.isnan(shaped.duration_s)

    @pytest.mark.parametrize("transform", ALL_TRANSFORMS,
                             ids=lambda transform: transform.kind)
    def test_single_request_trace_survives(self, transform):
        workload = synthetic_workload([1.5])
        shaped = Scenario(name="s", transforms=(transform,)).apply(workload)
        assert len(shaped) == 1
        assert shaped.requests[0].arrival_s == 1.5
        assert shaped.requests[0].index == 0

    @pytest.mark.parametrize("transform", ALL_TRANSFORMS,
                             ids=lambda transform: transform.kind)
    def test_zero_span_trace_keeps_its_timeline(self, transform):
        workload = synthetic_workload([2.0, 2.0, 2.0])
        shaped = Scenario(name="s", transforms=(transform,)).apply(workload)
        assert len(shaped) == 3
        assert all(request.arrival_s == 2.0 for request in shaped)
        assert shaped.duration_s == 0.0


# --------------------------------------------------------------------- #
# the explorer
# --------------------------------------------------------------------- #
class TestExplorer:
    @pytest.fixture(scope="class")
    def swept(self, tiny_pipeline):
        _, result = tiny_pipeline
        explorer = Explorer(
            result,
            config=ExplorerConfig(
                episodes=2, seed=0,
                workload=WorkloadConfig(num_requests=60),
                full_search_sample=5))
        scenarios = [get_scenario("baseline"), get_scenario("hot-shard")]
        configs = [ClusterConfig(num_shards=1),
                   ClusterConfig(num_shards=4, replication_factor=2)]
        return explorer, scenarios, configs, explorer.run(scenarios, configs)

    def test_every_cell_answers_everything_and_passes_oracles(self, swept):
        _, _, _, matrix = swept
        assert len(matrix.cells) == 4
        assert matrix.all_answered()
        assert matrix.total_oracle_mismatches() == 0
        for cell in matrix.cells:
            for episode in cell.episodes:
                assert episode.requests == 60
                assert episode.answered == 60

    def test_hot_shard_adversary_concentrates_load(self, swept):
        _, _, _, matrix = swept
        hot = matrix.cell("hot-shard", "4-shard").aggregates()
        balanced = matrix.cell("baseline", "4-shard").aggregates()
        # The adversary owns one shard: its peak share must dwarf both the
        # balanced trace's peak and the 1/4 fair share — yet every request
        # was still answered (asserted above).
        assert hot["mean_peak_shard_share"] > 0.6
        assert (hot["mean_peak_shard_share"]
                > balanced["mean_peak_shard_share"] + 0.15)
        single = matrix.cell("baseline", "1-shard").aggregates()
        assert single["mean_peak_shard_share"] == pytest.approx(1.0)

    def test_matrix_is_deterministic(self, swept):
        explorer, scenarios, configs, matrix = swept
        again = explorer.run(scenarios, configs)
        assert again.signature() == matrix.signature()
        assert again.to_json() == matrix.to_json()

    def test_episode_seeds_differ(self, swept):
        _, _, _, matrix = swept
        for cell in matrix.cells:
            signatures = {episode.workload_signature
                          for episode in cell.episodes}
            assert len(signatures) == len(cell.episodes)

    def test_render_matrix_mentions_every_cell(self, swept):
        _, _, _, matrix = swept
        rendered = render_matrix(matrix)
        assert "hot-shard" in rendered and "4-shard" in rendered
        assert matrix.signature() in rendered
        # The rendered matrix must be a pure function of the cells too.
        assert render_matrix(matrix) == rendered

    def test_matrix_json_is_plain_data(self, swept):
        _, _, _, matrix = swept
        payload = json.loads(matrix.to_json())
        assert payload["scenarios"] == ["baseline", "hot-shard"]
        assert len(payload["cells"][0]["episodes"]) == 2


# --------------------------------------------------------------------- #
# CLI integration: --scenario / --save-trace / --trace / explore
# --------------------------------------------------------------------- #
def tiny_run_config() -> RunConfig:
    config = RunConfig(
        data=DataConfig(dataset="beauty", scale=0.25, split_seed=0),
        model=CADRLConfig.fast(embedding_dim=16, seed=0),
        cluster=ClusterConfig(num_shards=1, replication_factor=1),
        eval=EvalConfig(max_eval_users=8),
    )
    config.model.transe.epochs = 5
    config.model.cggnn_training.epochs = 3
    config.model.darl.epochs = 2
    return config


class TestScenarioCLI:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("scenario-cli")
        config_path = root / "config.json"
        tiny_run_config().save(config_path)
        out = root / "artifacts"
        assert cli_main(["train", "--config", str(config_path),
                         "--out", str(out)]) == 0
        return out

    def test_save_trace_then_replay_is_bit_identical(self, artifacts,
                                                     tmp_path, capsys):
        trace = tmp_path / "trace.json"
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert cli_main(["simulate", "--artifacts", str(artifacts),
                         "--requests", "80", "--seed", "3",
                         "--scenario", "cache-buster",
                         "--save-trace", str(trace),
                         "--summary-json", str(first)]) == 0
        assert cli_main(["simulate", "--artifacts", str(artifacts),
                         "--trace", str(trace),
                         "--summary-json", str(second)]) == 0
        capsys.readouterr()
        first_summary = json.loads(first.read_text())
        second_summary = json.loads(second.read_text())
        assert (first_summary["replay_signature"]
                == second_summary["replay_signature"])
        # The adversary defeated the cache: hardly any hits survive.
        assert first_summary["cache_hit_rate"] < 0.2

    def test_spec_file_and_bad_name_paths(self, artifacts, tmp_path, capsys):
        summary = tmp_path / "crowd.json"
        assert cli_main(["simulate", "--artifacts", str(artifacts),
                         "--requests", "60", "--seed", "1",
                         "--scenario",
                         str(EXAMPLES / "flash_crowd.json"),
                         "--summary-json", str(summary)]) == 0
        capsys.readouterr()
        assert json.loads(summary.read_text())["requests"] == 60
        with pytest.raises(SystemExit, match="neither a registered"):
            cli_main(["simulate", "--artifacts", str(artifacts),
                      "--requests", "10", "--scenario", "nope"])
        capsys.readouterr()

    def test_explore_matrix_is_deterministic(self, artifacts, tmp_path,
                                             capsys):
        first = tmp_path / "m1.json"
        second = tmp_path / "m2.json"
        arguments = ["explore", "--artifacts", str(artifacts),
                     "--scenario", str(EXAMPLES / "hot_shard_adversary.json"),
                     "--scenario", "baseline",
                     "--shards", "2", "--episodes", "1",
                     "--requests", "50", "--oracle-sample", "5"]
        assert cli_main(arguments + ["--matrix-json", str(first)]) == 0
        assert cli_main(arguments + ["--matrix-json", str(second)]) == 0
        capsys.readouterr()
        first_payload = json.loads(first.read_text())
        second_payload = json.loads(second.read_text())
        assert first_payload["signature"] == second_payload["signature"]
        assert {cell["scenario"] for cell in first_payload["cells"]} == {
            "hot-shard-adversary", "baseline"}
