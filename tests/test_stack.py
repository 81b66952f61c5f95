"""Replay stacks: the spec's rejections, the builder's planes, the audit.

One tiny trained pipeline (``tiny_pipeline``) backs every test.  The CLI
tests drive ``repro.cli.main`` against its artifact directory, so each
rejection is checked where users meet it: an ``error: …`` exit, never a
component's traceback.
"""

import dataclasses

import pytest

from repro.cli import main as cli_main
from repro.cluster import Autoscaler, ClusterConfig
from repro.faults import FaultPlan
from repro.kg.entities import EntityType
from repro.live import LiveSession
from repro.serving import ServingTier
from repro.simulate import (FallbackValidityOracle, FullSearchOracle,
                            StackSpec, UserPopulation, WorkloadConfig, audit,
                            build_stack, generate_workload)

CLUSTER = ClusterConfig(num_shards=2, replication_factor=2)


@pytest.fixture(scope="module")
def trained(tiny_pipeline):
    return tiny_pipeline[1]


@pytest.fixture(scope="module")
def workload(trained):
    return generate_workload(UserPopulation.from_graph(trained.graph),
                             WorkloadConfig(num_requests=80, seed=5),
                             trained.graph)


# --------------------------------------------------------------------------- #
# StackSpec.validate and the CLI's error exits
# --------------------------------------------------------------------------- #
class TestSpecRejections:
    @pytest.mark.parametrize("spec, message", [
        (StackSpec(cluster_config=ClusterConfig(num_shards=0)), "--shards 0"),
        (StackSpec(cluster_config=CLUSTER, live_ingest=5, ingest_at=(1.5,)),
         "--ingest-at 1.5"),
        (StackSpec(cluster_config=CLUSTER, live_ingest=5, swap_at=(-0.2,)),
         "--swap-at -0.2"),
        (StackSpec(cache_capacity=0), "--cache-capacity 0"),
        (StackSpec(cluster_config=dataclasses.replace(
            CLUSTER, max_queue_per_shard=0)), "--max-queue 0"),
        (StackSpec(cluster_config=dataclasses.replace(
            CLUSTER, replication_factor=0)), "--replicas 0"),
        (StackSpec(cluster_config=CLUSTER, autoscale=(2, 4), scale_tick=0.0),
         "--scale-tick 0.0"),
        (StackSpec(cluster_config=CLUSTER, autoscale=(3, 2)),
         "--min-shards 3 exceeds --max-shards 2"),
        (StackSpec(cluster_config=CLUSTER, virtual=False, faulted=True),
         "virtual-time only"),
        (StackSpec(cluster_config=CLUSTER, autoscale=(0, 2)),
         "--min-shards 0 must be at least 1"),
        (StackSpec(cluster_config=CLUSTER, failed_shards=(1, 1)),
         "names a shard twice"),
        (StackSpec(cluster_config=CLUSTER, live_ingest=-3),
         "--live-ingest -3 must not be negative"),
        (StackSpec(cluster_config=CLUSTER, live_ingest=5, refresh_epochs=-1),
         "--refresh-epochs -1 must not be negative"),
    ])
    def test_validate_names_the_setting(self, spec, message):
        with pytest.raises(ValueError, match=message):
            spec.validate()

    def test_the_builder_validates_too(self, trained):
        with pytest.raises(ValueError, match="--cache-capacity"):
            build_stack(trained, StackSpec(cache_capacity=0))

    @pytest.mark.parametrize("extra, message", [
        (["--shards", "0"], "--shards 0 must be positive"),
        (["--shards", "-2"], "--shards -2 must be positive"),
        (["--live-ingest", "5", "--ingest-at", "1.5"], "--ingest-at 1.5"),
        (["--live-ingest", "5", "--swap-at", "-0.2"], "--swap-at -0.2"),
        (["--cache-capacity", "0"], "--cache-capacity 0 must be positive"),
        (["--max-queue", "0", "--shards", "2"], "--max-queue 0 must be positive"),
        (["--max-queue", "8"], "--max-queue 8 bounds a cluster shard's admission queue"),
        (["--max-queue", "8", "--shards", "1"], "one-shard replay has none"),
        (["--replicas", "0", "--shards", "2"], "--replicas 0 must be positive"),
        (["--replicas", "3"], "--replicas 3 sets a cluster key's replica chain"),
        (["--replicas", "1", "--shards", "1"], "one-shard replay has none"),
        (["--autoscale", "--scale-tick", "0"], "--scale-tick 0.0 must be positive"),
        (["--faults", "plan.json", "--chaos-seed", "1"], "not both"),
    ])
    def test_simulate_exits_with_an_error_line(self, tiny_pipeline, extra,
                                               message, capsys):
        artifacts, _ = tiny_pipeline
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["simulate", "--artifacts", str(artifacts),
                      "--requests", "20", *extra])
        capsys.readouterr()
        assert str(exit_info.value).startswith("error: ")
        assert message in str(exit_info.value)

    def test_explore_rejects_through_the_same_spec(self, tiny_pipeline, capsys):
        artifacts, _ = tiny_pipeline
        with pytest.raises(SystemExit, match="error: --cache-capacity 0"):
            cli_main(["explore", "--artifacts", str(artifacts),
                      "--cache-capacity", "0", "--requests", "20"])
        capsys.readouterr()


# --------------------------------------------------------------------------- #
# the builder
# --------------------------------------------------------------------------- #
class TestBuildStack:
    def test_front_is_the_outermost_plane(self, trained, workload):
        plain = build_stack(trained, StackSpec(), workload=workload)
        assert plain.front is plain.service
        live = build_stack(trained, StackSpec(cluster_config=CLUSTER,
                                              live_ingest=5),
                           workload=workload)
        assert isinstance(live.front, LiveSession)
        scaled = build_stack(trained, StackSpec(cluster_config=CLUSTER,
                                                autoscale=(2, 3)),
                             workload=workload)
        assert isinstance(scaled.front, Autoscaler)

    def test_fault_plan_installs_an_injector_on_a_breaker_cluster(
            self, trained, workload):
        stack = build_stack(trained, StackSpec(cluster_config=CLUSTER,
                                               faulted=True),
                            workload=workload, plan=FaultPlan(events=()))
        assert stack.injector is not None
        assert stack.service.breaker is not None

    def test_workload_callable_sees_the_booted_service(self, trained, workload):
        seen = []

        def make(service):
            seen.append(service)
            return workload

        stack = build_stack(trained, StackSpec(cluster_config=CLUSTER),
                            workload=make)
        assert seen == [stack.service]
        assert stack.workload is workload

    def test_same_spec_same_signature(self, trained, workload):
        spec = StackSpec(cluster_config=CLUSTER, live_ingest=5)
        first = build_stack(trained, spec, workload=workload).replay()
        second = build_stack(trained, spec, workload=workload).replay()
        assert first.signature() == second.signature()


# --------------------------------------------------------------------------- #
# audit picks the battery from the planes present
# --------------------------------------------------------------------------- #
BATTERY = ["full_search_oracle", "fallback_validity_oracle",
           "stale_consistency_oracle"]


@pytest.mark.parametrize("spec, twin, expected", [
    (StackSpec(), False, BATTERY),
    (StackSpec(cluster_config=CLUSTER, live_ingest=5), False, BATTERY),
    (StackSpec(cluster_config=CLUSTER, autoscale=(2, 3)), False,
     BATTERY + ["scaling_oracle"]),
    (StackSpec(), True, BATTERY + ["fault_tolerance_oracle"]),
], ids=["service", "session", "autoscaler", "twin"])
def test_audit_picks_the_battery_for_each_front(trained, workload, spec, twin,
                                                expected):
    stack = build_stack(trained, spec, workload=workload)
    replay = stack.replay()
    reports = audit(stack.front, replay.records, full_search_sample=10, seed=0,
                    twin=replay.records if twin else None)
    assert [report.oracle for report in reports] == expected
    assert all(report.ok for report in reports), [
        str(finding) for report in reports for finding in report.findings]
    assert reports[0].checked > 0 and reports[1].checked == len(replay.records)


# --------------------------------------------------------------------------- #
# generation-scoped findings
# --------------------------------------------------------------------------- #
class TestGenerationScopedOracles:
    @pytest.fixture(scope="class")
    def swapped(self, trained, workload):
        """A live replay across one swap whose ingest added new items."""
        stack = build_stack(trained, StackSpec(cluster_config=CLUSTER,
                                               live_ingest=30, ingest_at=(0.2,),
                                               swap_at=(0.5,)),
                            workload=workload)
        replay = stack.replay()
        views = stack.session.generation_views()
        assert sorted(views) == [0, 1]
        return views, replay.records

    def _new_items(self, views):
        items = {generation: set(view.graph.entities.ids_of_type(EntityType.ITEM))
                 for generation, view in views.items()}
        return sorted(items[1] - items[0])

    def test_clean_replay_passes_both_oracles(self, swapped):
        views, records = swapped
        assert FallbackValidityOracle(views).check(records).ok
        assert FullSearchOracle(views).check(records, sample_size=10).ok

    def test_torn_answer_is_flagged(self, swapped):
        views, records = swapped
        new_items = self._new_items(views)
        assert new_items, "the ingest burst added no item"
        base = next(record for record in records if record.generation == 0)
        torn = dataclasses.replace(base, items=(new_items[0],), paths=())
        report = FallbackValidityOracle(views).check([torn])
        assert any("items invalid for generation 0" in finding.message
                   for finding in report.findings), report.findings
        # The same item is legal in the generation that introduced it.
        legal = dataclasses.replace(torn, generation=1)
        assert not any("items invalid" in finding.message for finding in
                       FallbackValidityOracle(views).check([legal]).findings)

    def test_unknown_generation_is_flagged(self, swapped):
        views, records = swapped
        stamped = [dataclasses.replace(record, generation=9)
                   for record in records[:5]]
        validity = FallbackValidityOracle(views).check(stamped)
        assert validity.mismatches == 5
        assert all("unknown generation 9" in finding.message
                   for finding in validity.findings)
        full = [dataclasses.replace(record, generation=9) for record in records
                if record.source_tier is ServingTier.FULL][:3]
        assert full
        assert FullSearchOracle(views).check(full).mismatches == len(full)
