"""Cluster quickstart: sharded, replicated serving with deterministic failover.

Trains a small CADRL model, boots a 4-shard × 2-replica
``repro.cluster.ClusterService`` over it, replays a seeded workload in
virtual time, kills a shard, and shows that

* 100% of requests are still served (failover to replicas),
* the recommendations are *identical* with and without the failure (every
  shard searches the same frozen artifacts),
* the whole replay is bit-reproducible from its seeds, and
* admission-control saturation sheds into the fallback tier chain instead of
  stalling.

Run with:

    python examples/cluster_quickstart.py
"""

from repro.cluster import ClusterConfig
from repro.darl import CADRLConfig
from repro.kg.entities import EntityType
from repro.pipeline import Pipeline, RunConfig
from repro.pipeline.config import DataConfig
from repro.serving import RecommendationRequest, ServingConfig, ServingTier
from repro.simulate import (
    StackSpec,
    UserPopulation,
    WorkloadConfig,
    audit,
    build_stack,
    generate_workload,
    render_report,
    summarize,
)


def train():
    """A small trained stack; its services keep answers cached for 10 min."""
    config = RunConfig(data=DataConfig(dataset="beauty", scale=0.4, split_seed=0),
                       model=CADRLConfig.fast(embedding_dim=32, seed=0),
                       serving=ServingConfig(cache_ttl_seconds=600.0))
    config.model.darl.epochs = 4
    return Pipeline(config).run(until=("train",))


def cluster_config(failed=(), max_queue=256):
    """A 4-shard × 2-replica topology, optionally with shards DOWN at boot."""
    return ClusterConfig(num_shards=4, replication_factor=2,
                         max_queue_per_shard=max_queue,
                         failed_shards=tuple(failed))


def replay(result, workload, failed=()):
    """One virtual-time replay through a fresh cluster stack."""
    stack = build_stack(result, StackSpec(cluster_config=cluster_config(failed)),
                        workload=workload)
    return stack, stack.replay()


def main() -> None:
    # 1. Train a small model through the pipeline.
    result = train()
    print(f"trained on {result.dataset.num_users} users / "
          f"{result.dataset.num_items} items")

    # 2. A seeded workload over the KG's users (plus cold stand-ins).
    cold_standins = result.graph.entities.ids_of_type(EntityType.FEATURE)[:5]
    population = UserPopulation.from_graph(result.graph,
                                           extra_cold_users=cold_standins)
    workload = generate_workload(
        population,
        WorkloadConfig(num_requests=800, seed=7, arrival="bursty",
                       mean_qps=500.0, cold_fraction=0.1),
        result.graph)
    print(f"workload: {len(workload)} requests, "
          f"{workload.distinct_users()} distinct users "
          f"(signature {workload.signature()[:16]}…)")

    # 3. Healthy cluster replay, verified by the full oracle battery.
    stack, healthy = replay(result, workload)
    cluster = stack.service
    reports = audit(stack.front, healthy.records, full_search_sample=60, seed=0)
    print()
    print(render_report(summarize(healthy, reports)))
    for report in reports:
        assert report.ok, f"oracle failed: {report.summary()}"
    print(f"routing: {cluster.telemetry_snapshot()['routing']}")

    # 4. Kill shard 1 at boot: everything is still served, *identically*.
    degraded_stack, degraded = replay(result, workload, failed=(1,))
    assert len(degraded.records) == len(workload), "requests were dropped!"
    assert all(a.items == b.items
               for a, b in zip(healthy.records, degraded.records)), \
        "failover changed a recommendation!"
    routing = degraded_stack.service.telemetry_snapshot()["routing"]
    print(f"\nwith shard 1 down: all {len(degraded.records)} requests served, "
          f"{routing['failover']} failovers, recommendations identical")
    for report in audit(degraded_stack.front, degraded.records,
                        full_search_sample=60, seed=0):
        assert report.ok, f"oracle failed under failover: {report.summary()}"

    # 5. Determinism: the degraded replay is bit-reproducible.
    _, again = replay(result, workload, failed=(1,))
    assert again.signature() == degraded.signature(), "replay diverged!"
    print(f"degraded replay signature (reproducible): "
          f"{degraded.signature()[:16]}…")

    # 6. Backpressure: a queue bound of 1 makes a same-user burst spill its
    #    second request to the replica (full quality) and *shed* the rest
    #    into the fallback tier chain — degraded answers, never a stall.
    tight = result.cluster_service(cluster_config(max_queue=1))
    user = population.warm_users[0]
    burst = [RecommendationRequest(user_entity=user, top_k=k)
             for k in (3, 4, 5, 6)]
    responses = tight.serve_many(burst)
    assert all(response.items for response in responses), "a request stalled!"
    full = [r for r in responses if r.tier is ServingTier.FULL]
    shed = [r for r in responses if r.tier in (ServingTier.STALE,
                                               ServingTier.EMBEDDING)]
    assert len(full) == 2 and len(shed) == 2       # primary + overflow, 2 shed
    assert tight.routing.overflow == 1 and tight.routing.shed == 2
    print(f"saturated burst: {len(full)} full searches "
          f"(primary + replica overflow), {len(shed)} shed to "
          f"{sorted({r.tier.value for r in shed})}")


if __name__ == "__main__":
    main()
