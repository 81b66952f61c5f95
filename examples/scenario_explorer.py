"""Scenario-explorer quickstart: adversarial workloads as an experiment grid.

Trains a small CADRL model, then sweeps three scenarios (the untouched
baseline, a flash crowd, a shard-targeted hot-key adversary) across two
cluster topologies with the ``repro.scenarios.Explorer`` — three seeded
episodes per cell, every episode replayed in virtual time and audited by the
oracle battery — and shows that

* the hot-key adversary measurably concentrates load on its target shard
  while the cluster still answers 100% of the requests,
* every cell of the matrix passes the oracle battery, and
* the whole matrix is bit-reproducible: running the sweep twice from the
  same seeds yields the identical matrix signature.

Run with:

    python examples/scenario_explorer.py
"""

from repro.cluster import ClusterConfig
from repro.darl import CADRLConfig
from repro.pipeline import Pipeline, RunConfig
from repro.pipeline.config import DataConfig
from repro.scenarios import (Explorer, ExplorerConfig, get_scenario,
                             render_matrix)
from repro.serving import ServingConfig
from repro.simulate import WorkloadConfig


def main() -> None:
    # 1. Train a small model through the pipeline (services keep answers
    #    cached for 10 min).
    config = RunConfig(data=DataConfig(dataset="beauty", scale=0.4, split_seed=0),
                       model=CADRLConfig.fast(embedding_dim=32, seed=0),
                       serving=ServingConfig(cache_ttl_seconds=600.0))
    config.model.darl.epochs = 4
    result = Pipeline(config).run(until=("train",))
    print(f"trained on {result.dataset.num_users} users / "
          f"{result.dataset.num_items} items")

    # 2. An explorer over the trained stack: each episode builds a fresh
    #    virtual-time stack, so no cache state leaks between cells.
    explorer = Explorer(
        result,
        config=ExplorerConfig(
            episodes=3, seed=0,
            workload=WorkloadConfig(num_requests=200, arrival="bursty"),
            full_search_sample=20))

    scenarios = [get_scenario(name)
                 for name in ("baseline", "flash-crowd", "hot-shard")]
    # Each ClusterConfig fills the matrix column "<num_shards>-shard".
    configs = [ClusterConfig(num_shards=1),
               ClusterConfig(num_shards=4, replication_factor=2)]

    # 3. The sweep: 3 scenarios × 2 topologies × 3 episodes = 18 replays.
    matrix = explorer.run(scenarios, configs, progress=print)
    print()
    print(render_matrix(matrix))

    # 4. Every cell answered everything and passed the oracles.
    assert matrix.all_answered(), "some requests went unanswered"
    assert matrix.total_oracle_mismatches() == 0, "oracle mismatches!"

    # 5. The hot-key adversary really concentrates load: its peak-shard
    #    share on the 4-shard cluster dwarfs the balanced baseline's.
    hot = matrix.cell("hot-shard", "4-shard").aggregates()
    balanced = matrix.cell("baseline", "4-shard").aggregates()
    print(f"\npeak-shard share: hot-shard "
          f"{100 * hot['mean_peak_shard_share']:.1f}% vs baseline "
          f"{100 * balanced['mean_peak_shard_share']:.1f}%")
    assert (hot["mean_peak_shard_share"]
            > balanced["mean_peak_shard_share"] + 0.2)

    # 6. Determinism: the same sweep again is bit-identical.
    again = explorer.run(scenarios, configs)
    assert again.signature() == matrix.signature(), "matrix diverged!"
    print(f"matrix signature (reproducible): {matrix.signature()[:16]}…")


if __name__ == "__main__":
    main()
