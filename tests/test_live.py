"""Tests for repro.live: incremental CSR patching, warm starts, generations,
scoped cache invalidation and the zero-downtime live replay loop."""

import copy
import dataclasses
import json
import shutil

import numpy as np
import pytest

from repro.cggnn import CGGNN, CGGNNConfig, Representations, warm_start_cggnn
from repro.cluster import ClusterConfig
from repro.darl import CADRLConfig, GuidanceModel, InferenceConfig, PathRecommender
from repro.embeddings import TransEModel, apply_initial_state, train_transe
from repro.kg import KnowledgeGraph, compile_adjacency, patch_adjacency
from repro.kg.entities import EntityType
from repro.kg.relations import Relation
from repro.live import (
    GenerationBundle,
    IngestEvent,
    InteractionDelta,
    ItemDelta,
    LiveSession,
    NewItemInteraction,
    RefreshConfig,
    RelationDelta,
    SwapEvent,
    UpdateLog,
    refresh_generation,
    save_generation,
    synthesize_deltas,
)
from repro.pipeline import ArtifactStore, Pipeline, RunConfig, load_pipeline
from repro.pipeline.config import DataConfig, EvalConfig
from repro.serving import ServingConfig
from repro.serving.cache import ResultCache
from repro.simulate import (
    ReplayDriver,
    TraceClock,
    UserPopulation,
    WorkloadConfig,
    audit,
    generate_workload,
)


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _assert_adjacency_equal(left, right):
    for name in ("indptr", "relations", "targets", "degrees",
                 "entity_category", "is_item", "triplets"):
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name


def _random_burst(graph, rng, allow_new_items=True):
    """A small random mutation burst against the current graph state."""
    users = graph.entities.ids_of_type(EntityType.USER)
    items = graph.entities.ids_of_type(EntityType.ITEM)
    brands = graph.entities.ids_of_type(EntityType.BRAND)
    categories = sorted(set(graph.item_category_map().values()))
    deltas = []
    for _ in range(int(rng.integers(1, 6))):
        roll = rng.random()
        if allow_new_items and roll < 0.2 and categories:
            name = f"burst_item_{rng.integers(1 << 30)}"
            deltas.append(ItemDelta(
                name=name, category_id=int(categories[rng.integers(len(categories))]),
                brand_entity=int(brands[rng.integers(len(brands))]) if brands else None))
            deltas.append(NewItemInteraction(
                user_entity=int(users[rng.integers(len(users))]), item_name=name))
        elif roll < 0.3:
            deltas.append(RelationDelta(
                head=int(items[rng.integers(len(items))]),
                relation=Relation.ALSO_VIEWED,
                tail=int(items[rng.integers(len(items))])))
        else:
            deltas.append(InteractionDelta(
                user_entity=int(users[rng.integers(len(users))]),
                item_entity=int(items[rng.integers(len(items))])))
    return deltas


def tiny_run_config(num_shards=2) -> RunConfig:
    config = RunConfig(
        data=DataConfig(dataset="beauty", scale=0.25, split_seed=0),
        model=CADRLConfig.fast(embedding_dim=16, seed=0),
        cluster=ClusterConfig(num_shards=num_shards, replication_factor=2),
        eval=EvalConfig(max_eval_users=8),
    )
    config.model.transe.epochs = 4
    config.model.cggnn_training.epochs = 2
    config.model.darl.epochs = 2
    return config


@pytest.fixture(scope="module")
def live_stack(tmp_path_factory):
    """One tiny trained + persisted stack shared by the live tests."""
    store = tmp_path_factory.mktemp("live_artifacts")
    result = Pipeline(tiny_run_config(), store=store).run(until=("train",))
    return store, result


def make_session(result, store=None, schedule=(), refresh=None, log=None):
    clock = TraceClock()
    cluster = result.cluster_service(serving_config=ServingConfig(), clock=clock)
    base = GenerationBundle.from_pipeline(result)
    session = LiveSession(
        cluster, base, clock=clock, log=log,
        refresh_config=refresh or RefreshConfig(transe_epochs=2, cggnn_epochs=1,
                                                seed=3),
        schedule=schedule,
        store=ArtifactStore(store) if store is not None else None)
    return session, clock


# --------------------------------------------------------------------------- #
# incremental CSR patching
# --------------------------------------------------------------------------- #
class TestPatchAdjacency:
    def test_property_patch_equals_full_recompile(self, tiny_kg):
        """Seeded random mutation sequences: patched CSR must be
        element-identical to a from-scratch compile after every burst."""
        base_graph, _, _ = tiny_kg
        for seed in range(5):
            graph = copy.deepcopy(base_graph)
            rng = np.random.default_rng(seed)
            log = UpdateLog()
            for _ in range(4):
                old = compile_adjacency(graph)
                offset = len(log)
                log.extend(_random_burst(graph, rng))
                applied = log.apply(graph, offset)
                dirty = applied.touched_entities | applied.new_entities
                patched = patch_adjacency(old, graph, dirty)
                _assert_adjacency_equal(patched, compile_adjacency(graph))

    def test_graph_adjacency_uses_patch_for_small_deltas(self, tiny_kg):
        base_graph, _, _ = tiny_kg
        graph = copy.deepcopy(base_graph)
        graph.adjacency()
        before = graph.adjacency_compile_stats()
        users = graph.entities.ids_of_type(EntityType.USER)
        items = graph.entities.ids_of_type(EntityType.ITEM)
        graph.add_triplet(users[0], Relation.PURCHASE, items[-1])
        view = graph.adjacency()
        after = graph.adjacency_compile_stats()
        assert after["delta_patches"] == before["delta_patches"] + 1
        assert after["full_compiles"] == before["full_compiles"]
        _assert_adjacency_equal(view, compile_adjacency(graph))

    def test_large_dirty_set_falls_back_to_full_compile(self, tiny_kg):
        base_graph, _, _ = tiny_kg
        graph = copy.deepcopy(base_graph)
        graph.adjacency()
        before = graph.adjacency_compile_stats()
        users = graph.entities.ids_of_type(EntityType.USER)
        items = graph.entities.ids_of_type(EntityType.ITEM)
        rng = np.random.default_rng(0)
        for _ in range(graph.num_entities):  # touch (far) more than the budget
            graph.add_triplet(int(users[rng.integers(len(users))]),
                              Relation.PURCHASE,
                              int(items[rng.integers(len(items))]))
        graph.adjacency()
        after = graph.adjacency_compile_stats()
        assert after["full_compiles"] == before["full_compiles"] + 1

    def test_patch_rejects_non_descendant_graph(self, tiny_kg):
        base_graph, _, _ = tiny_kg
        grown = copy.deepcopy(base_graph)
        users = grown.entities.ids_of_type(EntityType.USER)
        items = grown.entities.ids_of_type(EntityType.ITEM)
        grown.add_triplet(users[0], Relation.PURCHASE, items[0])
        old = compile_adjacency(grown)
        with pytest.raises(ValueError, match="append-only"):
            patch_adjacency(old, base_graph, set())

    def test_patch_rejects_incomplete_dirty_set(self, tiny_kg):
        base_graph, _, _ = tiny_kg
        graph = copy.deepcopy(base_graph)
        old = compile_adjacency(graph)
        users = graph.entities.ids_of_type(EntityType.USER)
        items = graph.entities.ids_of_type(EntityType.ITEM)
        graph.add_triplet(users[0], Relation.PURCHASE, items[0])
        with pytest.raises(ValueError, match="dirty"):
            patch_adjacency(old, graph, set())  # the mutated user not declared


# --------------------------------------------------------------------------- #
# warm starts
# --------------------------------------------------------------------------- #
class TestWarmStarts:
    def test_transe_initial_state_is_overlaid(self, tiny_kg, tiny_transe):
        graph, _, _ = tiny_kg
        prior, _ = tiny_transe
        config = dataclasses.replace(prior.config, epochs=0)
        model, losses = train_transe(graph, config, initial_state=prior)
        assert losses == []
        assert np.array_equal(model.entity_embeddings, prior.entity_embeddings)
        assert np.array_equal(model.relation_embeddings, prior.relation_embeddings)

    def test_transe_prior_must_be_an_ancestor(self, tiny_kg, tiny_transe):
        graph, _, _ = tiny_kg
        prior, _ = tiny_transe
        model = TransEModel(graph.num_entities - 1, prior.config)
        with pytest.raises(ValueError, match="ancestor"):
            apply_initial_state(model, prior)

    def test_transe_prior_shape_validation(self, tiny_kg, tiny_transe):
        graph, _, _ = tiny_kg
        prior, _ = tiny_transe
        model = TransEModel(graph.num_entities, prior.config)
        with pytest.raises(ValueError, match="embedding_dim"):
            apply_initial_state(model, (prior.entity_embeddings,
                                        prior.relation_embeddings[:, :-1]))
        with pytest.raises(TypeError):
            apply_initial_state(model, "not a model")

    def test_cggnn_warm_start_overlays_known_items(self, tiny_kg, tiny_transe,
                                                   tiny_representations):
        graph, _, _ = tiny_kg
        transe, _ = tiny_transe
        config = CGGNNConfig(embedding_dim=16, num_ggnn_layers=1,
                             num_category_layers=1, max_neighbors=6,
                             max_categories=3, seed=0)
        model = CGGNN(graph, transe, config)
        warm_start_cggnn(model, tiny_representations)
        item_ids = np.asarray(model.table.item_ids)
        assert np.array_equal(model.item_embeddings.data,
                              tiny_representations.entity[item_ids])

    def test_cggnn_warm_start_shape_validation(self, tiny_kg, tiny_transe,
                                               tiny_representations):
        graph, _, _ = tiny_kg
        transe, _ = tiny_transe
        config = CGGNNConfig(embedding_dim=16, num_ggnn_layers=1,
                             num_category_layers=1, max_neighbors=6,
                             max_categories=3, seed=0)
        model = CGGNN(graph, transe, config)
        bad = Representations(entity=tiny_representations.entity[:, :-1],
                              relation=tiny_representations.relation,
                              category=tiny_representations.category)
        with pytest.raises(ValueError, match="embedding_dim"):
            warm_start_cggnn(model, bad)


# --------------------------------------------------------------------------- #
# scoped cache invalidation
# --------------------------------------------------------------------------- #
class _Payload:
    def __init__(self, items):
        self.items = tuple(items)


class TestScopedInvalidation:
    def test_only_touched_entries_dropped_and_order_preserved(self):
        cache = ResultCache(capacity=8, ttl_seconds=60.0, clock=lambda: 0.0)
        for user in range(6):
            cache.put((user, 5, frozenset()), _Payload([100 + user]))
        # Touch user 1 directly and user 4 through its cached item.
        dropped = cache.invalidate_entities({1, 104})
        assert dropped == 2
        assert len(cache) == 4
        survivors = [key[0] for key in cache._entries]
        assert survivors == [0, 2, 3, 5]  # original insertion order intact
        # LRU eviction then proceeds in the surviving order: filling past
        # capacity evicts user 0 (the oldest survivor) first.
        for extra in range(6, 6 + 5):
            cache.put((extra, 5, frozenset()), _Payload([100 + extra]))
        assert [key[0] for key in cache._entries][0] == 2
        assert cache.stats.invalidations == 2

    def test_empty_set_is_a_noop(self):
        cache = ResultCache(capacity=4, ttl_seconds=60.0, clock=lambda: 0.0)
        cache.put((1, 5, frozenset()), _Payload([7]))
        assert cache.invalidate_entities(set()) == 0
        assert len(cache) == 1


# --------------------------------------------------------------------------- #
# the update log
# --------------------------------------------------------------------------- #
class TestUpdateLog:
    def test_json_round_trip_and_signature(self, tiny_kg):
        graph, _, _ = tiny_kg
        log = UpdateLog(synthesize_deltas(graph, 12, seed=5))
        restored = UpdateLog.from_dicts(json.loads(json.dumps(log.to_dicts())))
        assert restored.to_dicts() == log.to_dicts()
        assert restored.signature() == log.signature()
        assert log.signature(0, 3) != log.signature()

    def test_synthesis_is_deterministic(self, tiny_kg):
        graph, _, _ = tiny_kg
        assert (synthesize_deltas(graph, 20, seed=9)
                == synthesize_deltas(graph, 20, seed=9))
        assert (synthesize_deltas(graph, 20, seed=9)
                != synthesize_deltas(graph, 20, seed=10))

    def test_apply_reports_touched_and_new_entities(self, tiny_kg):
        graph, _, _ = tiny_kg
        graph = copy.deepcopy(graph)
        users = graph.entities.ids_of_type(EntityType.USER)
        categories = sorted(set(graph.item_category_map().values()))
        log = UpdateLog([
            ItemDelta(name="fresh", category_id=categories[0]),
            NewItemInteraction(user_entity=users[0], item_name="fresh"),
        ])
        applied = log.apply(graph)
        assert applied.count == 2
        assert len(applied.new_entities) == 1
        new_item = next(iter(applied.new_entities))
        assert graph.entities.is_item(new_item)
        assert users[0] in applied.touched_entities
        assert applied.new_edges == 2

    def test_new_item_interaction_requires_prior_item_delta(self, tiny_kg):
        graph, _, _ = tiny_kg
        graph = copy.deepcopy(graph)
        users = graph.entities.ids_of_type(EntityType.USER)
        log = UpdateLog([NewItemInteraction(user_entity=users[0],
                                            item_name="never_created")])
        with pytest.raises(ValueError, match="before its ItemDelta"):
            log.apply(graph)


# --------------------------------------------------------------------------- #
# artifact generations
# --------------------------------------------------------------------------- #
class TestArtifactGenerations:
    def test_legacy_store_reads_as_generation_zero(self, tmp_path):
        store = ArtifactStore(tmp_path / "legacy")
        store.begin("data")
        store.complete("data", "fp")
        assert store.generation == 0
        assert store.list_generations() == [0]
        assert store.latest_generation() == 0
        assert store.load().root == store.root

    def test_begin_generation_numbers_monotonically(self, tmp_path):
        store = ArtifactStore(tmp_path / "gen")
        store.begin("data")
        store.complete("data", "fp")
        first = store.begin_generation()
        second = store.begin_generation()
        assert first.generation == 1
        assert second.generation == 2
        assert store.list_generations() == [0, 1, 2]
        assert store.load(generation=1).root == first.root

    def test_load_unknown_generation_raises(self, tmp_path):
        store = ArtifactStore(tmp_path / "gen2")
        with pytest.raises(FileNotFoundError, match="generation 7"):
            store.load(generation=7)
        with pytest.raises(ValueError):
            store.generation_store(-1)


# --------------------------------------------------------------------------- #
# refresh, swap and the live replay loop
# --------------------------------------------------------------------------- #
class TestLiveLoop:
    def test_empty_delta_refresh_is_a_no_op(self, live_stack):
        _, result = live_stack
        session, _ = make_session(result)
        base = session.current
        assert session.swap() is None
        assert session.current is base  # the same object: bit-identical
        assert session.cluster.shard_generations() == {0: 0, 1: 0}

    def test_refresh_rejects_rewound_log(self, live_stack):
        _, result = live_stack
        base = GenerationBundle.from_pipeline(result)
        grown = dataclasses.replace(base, log_offset=5)
        with pytest.raises(ValueError, match="append-only"):
            refresh_generation(grown, base.graph, log_offset=3)

    def test_refreshed_bundle_keeps_the_search_settings(self, live_stack):
        _, result = live_stack
        session, _ = make_session(result)
        trained = session.current.recommender
        # Every search setting off its default, so a refresh that falls back
        # to one differs.
        base = dataclasses.replace(session.current, recommender=PathRecommender(
            trained.graph, trained.category_environment.category_graph,
            trained.representations, trained.policy,
            guidance=GuidanceModel(strength=0.9), max_path_length=4,
            max_entity_actions=9, max_category_actions=3, use_dual_agent=False,
            config=InferenceConfig(beam_width=7, expansions_per_beam=2, top_k=6),
            milestone_cache_limit=64))
        session.ingest(synthesize_deltas(session._staging, 5, seed=2))
        refreshed = refresh_generation(base, session._staging,
                                       log_offset=len(session.log),
                                       config=RefreshConfig(transe_epochs=1,
                                                            cggnn_epochs=1, seed=3))
        old, new = base.recommender, refreshed.recommender
        assert refreshed.generation == 1
        assert refreshed.graph is session._staging
        assert new.category_environment.category_graph is not (
            old.category_environment.category_graph)
        assert refreshed.representations is not base.representations
        assert (new.policy, new.guidance, new.config) == (old.policy, old.guidance,
                                                          old.config)
        assert (new.max_path_length, new.entity_environment.max_actions,
                new.category_environment.max_actions, new.use_dual_agent,
                new.milestone_cache_limit) == (4, 9, 3, False, 64)
        first, second = refreshed.build_service(), refreshed.build_service()
        assert first.recommender is not second.recommender
        assert new not in (first.recommender, second.recommender)
        assert first.generation == second.generation == 1
        user = session.graph.entities.ids_of_type(EntityType.USER)[0]
        assert (first.recommender.recommend(user)
                == second.recommender.recommend(user) == new.recommend(user))

    def test_swap_flips_generations_and_carries_caches(self, live_stack):
        _, result = live_stack
        session, clock = make_session(result)
        users = session.graph.entities.ids_of_type(EntityType.USER)
        requests = session.cluster.build_requests(users[:8], top_k=5)
        session.serve_many(requests)
        cached_before = sum(len(worker.service.cache)
                            for worker in session.cluster.workers)
        assert cached_before == 8
        session.ingest(synthesize_deltas(session._staging, 5, seed=2))
        report = session.swap()
        assert report is not None
        assert report.generation == 1
        assert session.cluster.shard_generations() == {0: 1, 1: 1}
        assert report.invalidated_entries + report.preserved_entries == cached_before
        # Telemetry survived the flip: the request counters kept counting.
        assert session.telemetry_snapshot()["requests"] == 8

    def test_live_replay_serves_everything_and_passes_oracles(self, live_stack):
        store, result = live_stack

        def run():
            schedule = [IngestEvent(at_s=0.3, count=12, seed=11),
                        SwapEvent(at_s=0.6),
                        IngestEvent(at_s=0.8, count=6, seed=12),
                        SwapEvent(at_s=1.0)]
            session, clock = make_session(result, store=store,
                                          schedule=schedule)
            population = UserPopulation.from_graph(session.graph)
            workload = generate_workload(
                population,
                WorkloadConfig(num_requests=120, seed=7, mean_qps=80.0,
                               arrival="poisson"),
                session.graph)
            replay = ReplayDriver(session, clock=clock).replay(workload)
            return session, replay

        session, replay = run()
        # 100% served, nothing shed across two generation swaps.
        assert len(replay.records) == 120
        assert sum(record.shed for record in replay.records) == 0
        generations = {record.generation for record in replay.records}
        assert generations == {0, 1, 2}
        # The full live oracle battery is green.
        reports = audit(session, replay.records, full_search_sample=30, seed=0)
        assert all(report.ok for report in reports), [
            str(finding) for report in reports for finding in report.findings]
        # Same seeds → bit-identical replay, generation stamps included.
        _, replay_again = run()
        assert replay.signature() == replay_again.signature()

    def test_structural_staging_copy_replays_like_deepcopy(self, live_stack,
                                                           monkeypatch):
        _, result = live_stack

        def run():
            schedule = [IngestEvent(at_s=0.2, count=8, seed=31),
                        SwapEvent(at_s=0.4),
                        IngestEvent(at_s=0.5, count=8, seed=32),
                        SwapEvent(at_s=0.7),
                        IngestEvent(at_s=0.8, count=4, seed=33),
                        SwapEvent(at_s=0.9)]
            session, clock = make_session(result, schedule=schedule)
            population = UserPopulation.from_graph(session.graph)
            workload = generate_workload(
                population,
                WorkloadConfig(num_requests=100, seed=5, mean_qps=80.0,
                               arrival="poisson"),
                session.graph)
            replay = ReplayDriver(session, clock=clock).replay(workload)
            snapshot = session.telemetry_snapshot()["live"]
            return replay.signature(), snapshot, session.bundles

        signature, snapshot, bundles = run()
        assert sorted(bundles) == [0, 1, 2, 3]
        # The staging graph as it was built before: a full deepcopy.
        monkeypatch.setattr(KnowledgeGraph, "copy", lambda graph: copy.deepcopy(graph))
        deep_signature, deep_snapshot, deep_bundles = run()
        assert signature == deep_signature
        assert snapshot == deep_snapshot
        for generation, bundle in bundles.items():
            deep = deep_bundles[generation]
            assert bundle.graph.num_triplets == deep.graph.num_triplets
            assert np.array_equal(bundle.representations.entity,
                                  deep.representations.entity)

    def test_generation_store_round_trip(self, live_stack, tmp_path):
        shared, result = live_stack
        # Private gen-0 copy so other tests' generations can't interfere.
        store = tmp_path / "store"
        shutil.copytree(shared, store)
        shutil.rmtree(store / "generations", ignore_errors=True)
        session, _ = make_session(result, store=store)
        session.ingest(synthesize_deltas(session._staging, 8, seed=21))
        report = session.swap()
        assert report is not None
        root = ArtifactStore(store)
        latest = root.latest_generation()
        assert latest == 1

        restored = load_pipeline(store)  # defaults to the latest generation
        current = session.bundles[latest]
        assert restored.graph.num_entities == current.graph.num_entities
        assert np.array_equal(restored.transe.entity_embeddings,
                              current.transe.entity_embeddings)
        assert np.array_equal(restored.representations.entity,
                              current.representations.entity)
        # Generation 0 still loads untouched underneath.
        base = load_pipeline(store, generation=0)
        assert base.graph.num_entities == result.graph.num_entities

    def test_save_generation_rejects_generation_zero(self, live_stack, tmp_path):
        _, result = live_stack
        bundle = GenerationBundle.from_pipeline(result)
        with pytest.raises(ValueError, match="root store"):
            save_generation(ArtifactStore(tmp_path / "x"), bundle, UpdateLog())
