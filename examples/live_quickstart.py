"""Live-updates quickstart: zero-downtime streaming ingestion + generation swap.

Trains a small stack through the pipeline, builds a 2-shard cluster behind a
``repro.live.LiveSession`` with ``repro.simulate.build_stack``, and replays a
seeded workload in virtual time while — mid-stream —

* an ``IngestEvent`` appends a burst of interaction/new-item deltas to the
  update log and folds them into the *staging* graph (delta CSR patch, the
  serving generation never sees a mutation),
* a ``SwapEvent`` warm-start refreshes TransE + CGGNN from the previous
  generation's weights and flips the cluster's shards one at a time with
  scoped cache invalidation.

The replay then has to pass ``repro.simulate.audit``: every answer valid
against (and a sample re-derived on) the generation tables it was served
from, zero swap-induced sheds, and the whole run bit-reproducible from its
seeds.  Generation 1 is finally persisted next to the base artifacts and
reloaded bit-identically.

Run with:

    python examples/live_quickstart.py
"""

import pathlib
import tempfile

import numpy as np

from repro.cluster import ClusterConfig
from repro.darl import CADRLConfig
from repro.live import save_generation
from repro.pipeline import ArtifactStore, Pipeline, RunConfig, load_pipeline
from repro.pipeline.config import DataConfig, EvalConfig
from repro.simulate import (
    StackSpec,
    UserPopulation,
    WorkloadConfig,
    audit,
    build_stack,
    generate_workload,
)

#: One ingest burst of 20 deltas at 40% of the trace, one swap at 75%; the
#: seed drives the burst, the warm-start refresh and nothing else here.
LIVE = StackSpec(cluster_config=ClusterConfig(num_shards=2, replication_factor=2),
                 workload_seed=7, live_ingest=20, ingest_at=(0.4,),
                 swap_at=(0.75,), refresh_epochs=2)


def small_run_config() -> RunConfig:
    config = RunConfig(
        data=DataConfig(dataset="beauty", scale=0.3, split_seed=0),
        model=CADRLConfig.fast(embedding_dim=16, seed=0),
        cluster=ClusterConfig(num_shards=2, replication_factor=2),
        eval=EvalConfig(max_eval_users=8),
    )
    config.model.transe.epochs = 5
    config.model.cggnn_training.epochs = 3
    config.model.darl.epochs = 2
    return config


def run_live_replay(result, workload):
    """One seeded live replay through a fresh stack."""
    stack = build_stack(result, LIVE, workload=workload)
    return stack.session, stack.replay()


def main() -> None:
    # 1. Train + persist the base stack (generation 0).
    store_dir = pathlib.Path(tempfile.mkdtemp()) / "artifacts"
    result = Pipeline(small_run_config(), store=store_dir).run(until=("train",))
    print(f"trained generation 0: {result.graph.num_entities} entities, "
          f"{result.graph.num_triplets} triplets")

    # 2. Live replay: streaming ingestion + one generation swap mid-stream.
    population = UserPopulation.from_graph(result.graph)
    workload = generate_workload(
        population, WorkloadConfig(num_requests=150, seed=7, mean_qps=40.0),
        result.graph)
    session, replay = run_live_replay(result, workload)
    per_generation = {}
    for record in replay.records:
        per_generation[record.generation] = \
            per_generation.get(record.generation, 0) + 1
    sheds = sum(record.shed for record in replay.records)
    print(f"\nreplayed {len(replay.records)} requests across generations "
          f"{per_generation} — {sheds} shed")
    assert sheds == 0, "a generation swap shed traffic!"
    assert set(per_generation) == {0, 1}, "the swap never happened"

    report = session.coordinator.reports[0]
    print(f"swap to generation {report.generation}: flipped shards "
          f"{list(report.flip_order)} one at a time, invalidated "
          f"{report.invalidated_entries} cache entries touching "
          f"{report.touched_entities} updated entities "
          f"({report.preserved_entries} entries survived)")

    live = session.telemetry_snapshot()["live"]
    print(f"update log: {live['log_length']} deltas "
          f"(signature {live['log_signature'][:16]}…), "
          f"staging compiles {live['staging_compile_stats']}")

    # 3. The oracle battery: pre-swap answers must be valid against
    #    generation-0 tables, post-swap against generation 1 — and a sample
    #    is re-derived against the right generation's recommender.
    for oracle_report in audit(session, replay.records,
                               full_search_sample=40, seed=0):
        assert oracle_report.ok, f"oracle failed: {oracle_report.summary()}"
        print(f"oracle ok: {oracle_report.summary()}")

    # 4. Determinism: same seeds → bit-identical replay, generation stamps
    #    and all.  (Fresh cluster, fresh session.)
    _, again = run_live_replay(result, workload)
    assert again.signature() == replay.signature(), "live replay diverged!"
    print(f"\nreplay signature (reproducible): {replay.signature()[:16]}…")

    # 5. Generation 1 is a first-class artifact: persisted next to the base
    #    stack (its refreshed arrays plus the delta slice that produced it),
    #    `load_pipeline` reconstructs the latest generation — bit-identical
    #    to the bundle that served traffic.
    store = ArtifactStore(store_dir)
    save_generation(store, session.current, session.log)
    print(f"generations on disk: {store.list_generations()}")
    restored = load_pipeline(store_dir)          # defaults to latest
    current = session.current
    assert restored.graph.num_entities == current.graph.num_entities
    assert np.array_equal(restored.transe.entity_embeddings,
                          current.transe.entity_embeddings)
    assert np.array_equal(restored.representations.entity,
                          current.representations.entity)
    print(f"reloaded generation {store.latest_generation()} from disk: "
          f"embeddings bit-identical to the serving bundle")


if __name__ == "__main__":
    main()
