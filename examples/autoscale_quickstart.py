"""Autoscale quickstart: elastic shard count under live bursty load.

Trains a small CADRL model, boots a 2-shard cluster wrapped in an
``repro.cluster.Autoscaler``, replays a seeded bursty workload in virtual
time, and shows that

* the cluster grows through bursts and shrinks again through calm stretches
  (at least one scale-up *and* one scale-down fire),
* the autoscaled cluster sheds fewer requests than a static cluster of its
  floor size while paying for fewer shard-ticks than a static cluster of its
  ceiling size,
* scaling changes *where* answers come from, never *what* they are — the
  full oracle battery including the ``ScalingOracle`` passes, and
* the whole elastic replay is bit-reproducible from its seeds.

Run with:

    python examples/autoscale_quickstart.py
"""

from repro.cluster import ClusterConfig
from repro.darl import CADRLConfig
from repro.kg.entities import EntityType
from repro.pipeline import Pipeline, RunConfig
from repro.pipeline.config import DataConfig
from repro.serving import ServingConfig
from repro.simulate import (
    StackSpec,
    UserPopulation,
    WorkloadConfig,
    audit,
    build_stack,
    generate_workload,
)

MIN_SHARDS, MAX_SHARDS = 2, 6
MAX_QUEUE = 8


def train():
    """A small trained stack; its services keep answers cached for 10 min."""
    config = RunConfig(data=DataConfig(dataset="beauty", scale=0.4, split_seed=0),
                       model=CADRLConfig.fast(embedding_dim=32, seed=0),
                       serving=ServingConfig(cache_ttl_seconds=600.0))
    config.model.darl.epochs = 4
    return Pipeline(config).run(until=("train",))


def stack_spec(shards, autoscale=None):
    """A single-replica cluster of ``shards`` with a tight admission queue."""
    return StackSpec(cluster_config=ClusterConfig(num_shards=shards,
                                                  replication_factor=1,
                                                  max_queue_per_shard=MAX_QUEUE),
                     autoscale=autoscale)


def static_replay(result, workload, shards):
    return build_stack(result, stack_spec(shards), workload=workload).replay()


def autoscaled_replay(result, workload):
    """Boots at the floor; the autoscaler ticks every duration / 40 seconds."""
    stack = build_stack(result, stack_spec(MIN_SHARDS, (MIN_SHARDS, MAX_SHARDS)),
                        workload=workload)
    return stack.autoscaler, stack.replay()


def shed_count(result):
    return sum(1 for record in result.records if record.shed)


def main() -> None:
    # 1. Train a small model through the pipeline.
    result = train()
    print(f"trained on {result.dataset.num_users} users / "
          f"{result.dataset.num_items} items")

    # 2. A seeded bursty workload: long calm stretches, 10× bursts.
    cold_standins = result.graph.entities.ids_of_type(EntityType.FEATURE)[:5]
    population = UserPopulation.from_graph(result.graph,
                                           extra_cold_users=cold_standins)
    workload = generate_workload(
        population,
        WorkloadConfig(num_requests=600, seed=7, arrival="bursty",
                       cold_fraction=0.1),
        result.graph)
    print(f"workload: {len(workload)} requests over "
          f"{workload.duration_s:.2f}s of trace time "
          f"(signature {workload.signature()[:16]}…)")

    # 3. The elastic replay: the autoscaler grows into bursts and shrinks
    #    back through calm windows, warm-migrating cache entries each time.
    autoscaler, elastic = autoscaled_replay(result, workload)
    snapshot = autoscaler.autoscale_snapshot()
    print(f"\nautoscale: started {snapshot['initial_shards']} shards, "
          f"ended {snapshot['current_shards']}; "
          f"{snapshot['scale_ups']} ups / {snapshot['scale_downs']} downs, "
          f"{snapshot['migrated_entries']} cache entries warm-migrated")
    for event in autoscaler.events:
        print(f"  t={event.at_s:6.2f}s scale-{event.action}: "
              f"{event.from_shards} → {event.to_shards} shards ({event.reason})")
    assert snapshot["scale_ups"] >= 1 and snapshot["scale_downs"] >= 1

    # 4. The capacity story against both static extremes.
    small = static_replay(result, workload, MIN_SHARDS)
    large = static_replay(result, workload, MAX_SHARDS)
    print(f"\nshed: static-{MIN_SHARDS} {shed_count(small)}, "
          f"autoscaled {shed_count(elastic)}, "
          f"static-{MAX_SHARDS} {shed_count(large)}")
    print(f"shard-ticks paid: autoscaled {autoscaler.shard_ticks} "
          f"vs static-{MAX_SHARDS} {MAX_SHARDS * autoscaler.ticks}")
    assert shed_count(elastic) < shed_count(small), "autoscaling didn't help!"
    assert autoscaler.shard_ticks < MAX_SHARDS * autoscaler.ticks

    # 5. Scaling never changes answers: the oracle battery (including the
    #    scaling oracle's event-ledger and answer-stability checks) is clean.
    reports = audit(autoscaler, elastic.records, full_search_sample=60, seed=0)
    for report in reports:
        assert report.ok, f"oracle failed: {report.summary()}"
    print("oracles: " + ", ".join(f"{report.oracle} ok ({report.checked})"
                                  for report in reports))

    # 6. Determinism: same seeds ⇒ bit-identical replay and event ledger.
    again_scaler, again = autoscaled_replay(result, workload)
    assert again.signature() == elastic.signature(), "replay diverged!"
    assert len(again_scaler.events) == len(autoscaler.events)
    print(f"elastic replay signature (reproducible): "
          f"{elastic.signature()[:16]}…")


if __name__ == "__main__":
    main()
