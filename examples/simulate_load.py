"""Load simulation: seeded traffic replayed against the serving stack.

Trains a small CADRL model, generates a deterministic 1 000-request workload
(Zipf-skewed users, bursty arrivals, cold-start and latency-constrained
traffic), replays it through a ``RecommendationService`` stack built by
``repro.simulate.build_stack`` and verifies the served answers with
``repro.simulate.audit``.  Run with:

    python examples/simulate_load.py
"""

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


def main() -> None:
    # 1. Train a small model through the pipeline.
    result = train()
    print(f"trained on {result.dataset.num_users} users / "
          f"{result.dataset.num_items} items")

    # 2. Build the audience and a seeded 1k-request trace.  Feature entities
    #    stand in for never-seen (cold-start) visitors: they have a
    #    representation but no purchase history, which is exactly the signal
    #    the tier chooser uses to route them to the embedding fallback.
    cold_standins = result.graph.entities.ids_of_type(EntityType.FEATURE)[:5]
    population = UserPopulation.from_graph(result.graph,
                                           extra_cold_users=cold_standins)
    workload_config = WorkloadConfig(num_requests=1000, seed=7, arrival="bursty",
                                     mean_qps=500.0, cold_fraction=0.1,
                                     tight_budget_fraction=0.15)
    workload = generate_workload(population, workload_config, result.graph)
    print(f"workload: {len(workload)} requests over {workload.duration_s:.2f}s "
          f"of trace time, {workload.distinct_users()} distinct users")
    print(f"trace signature: {workload.signature()[:16]}…")

    # Determinism check #1: the same config regenerates the identical trace.
    again = generate_workload(population, WorkloadConfig(num_requests=1000, seed=7,
                                                         arrival="bursty",
                                                         mean_qps=500.0,
                                                         cold_fraction=0.1,
                                                         tight_budget_fraction=0.15),
                              result.graph)
    assert again.signature() == workload.signature(), "seeded generation diverged!"

    # 3. Replay the trace in wall time and verify with the oracle battery.
    stack = build_stack(result, StackSpec(virtual=False), workload=workload)
    replay = stack.replay()
    reports = audit(stack.front, replay.records, full_search_sample=100, seed=0)
    print()
    print(render_report(summarize(replay, reports)))
    for report in reports:
        assert report.ok, f"oracle failed: {report.summary()}"
    full_search = next(r for r in reports if r.oracle == "full_search_oracle")
    print(f"\nfull-search oracle: {full_search.checked} replayed searches, "
          f"{full_search.mismatches} mismatches")

    # 4. Determinism check #2: two virtual-time replays against fresh stacks
    #    produce bit-identical result traces (tiers, cache hits, items).
    signatures = []
    for _ in range(2):
        fresh = build_stack(result, StackSpec(), workload=workload)
        fresh.service.recommender.clear_milestone_cache()
        signatures.append(fresh.replay().signature())
    assert signatures[0] == signatures[1], "virtual-time replay diverged!"
    print(f"replay signature (virtual time, reproducible): {signatures[0][:16]}…")


if __name__ == "__main__":
    main()
