"""Tests for the unified pipeline API, artifact persistence and the CLI."""

import dataclasses
import inspect

import numpy as np
import pytest

import repro
from repro.cli import main as cli_main
from repro.darl import CADRLConfig
from repro.data import Interaction, InteractionDataset, load_dataset
from repro.experiments import EXPERIMENTS
from repro.pipeline import (
    ArtifactStore,
    Pipeline,
    PipelineError,
    RunConfig,
    StageMemo,
    load_pipeline,
    save_pipeline,
)
from repro.pipeline.config import STAGE_NAMES, DataConfig, EvalConfig
from repro.serving import RecommendationService


def tiny_config() -> RunConfig:
    """A configuration small enough to train in well under a second."""
    config = RunConfig(
        data=DataConfig(dataset="beauty", scale=0.25, split_seed=0),
        model=CADRLConfig.fast(embedding_dim=16, seed=0),
        eval=EvalConfig(max_eval_users=8),
    )
    config.model.transe.epochs = 5
    config.model.cggnn_training.epochs = 3
    config.model.darl.epochs = 2
    return config


def assert_same_weights(left, right) -> None:
    """Two trained CADRL facades hold equal TransE, representation and policy arrays."""
    assert np.array_equal(left.transe.entity_embeddings, right.transe.entity_embeddings)
    assert np.array_equal(left.transe.relation_embeddings, right.transe.relation_embeddings)
    for table in ("entity", "relation", "category"):
        assert np.array_equal(getattr(left.representations, table),
                              getattr(right.representations, table))
    left_state, right_state = left.policy.state_dict(), right.policy.state_dict()
    assert left_state.keys() == right_state.keys()
    for name in left_state:
        assert np.array_equal(left_state[name], right_state[name]), name


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny pipeline trained and persisted for the whole module."""
    store = tmp_path_factory.mktemp("artifacts")
    result = Pipeline(tiny_config(), store=store).run()
    return store, result


class TestRunConfig:
    def test_json_round_trip_preserves_everything(self):
        config = tiny_config()
        restored = RunConfig.from_json(config.to_json())
        assert restored.to_dict() == config.to_dict()
        assert restored.fingerprint() == config.fingerprint()

    def test_fingerprint_is_stable_and_sensitive(self):
        assert tiny_config().fingerprint() == tiny_config().fingerprint()
        changed = tiny_config()
        changed.model.darl.epochs += 1
        assert changed.fingerprint() != tiny_config().fingerprint()

    def test_stage_fingerprints_chain_through_the_dag(self):
        base = tiny_config().stage_fingerprints()
        assert set(base) == set(STAGE_NAMES)
        # Changing the DARL epochs must invalidate train and its dependants…
        changed = tiny_config()
        changed.model.darl.epochs += 1
        after = changed.stage_fingerprints()
        for stage in ("train", "eval", "serve-check"):
            assert after[stage] != base[stage]
        # …but leave the persisted data/embeddings reusable.
        for stage in ("data", "kg", "embed", "cggnn"):
            assert after[stage] == base[stage]

    def test_data_change_invalidates_every_stage(self):
        base = tiny_config().stage_fingerprints()
        changed = tiny_config()
        changed.data.scale = 0.3
        after = changed.stage_fingerprints()
        for stage in STAGE_NAMES:
            assert after[stage] != base[stage]

    def test_unknown_fields_raise(self):
        payload = tiny_config().to_dict()
        payload["data"]["typo_field"] = 1
        with pytest.raises(ValueError, match="typo_field"):
            RunConfig.from_dict(payload)
        with pytest.raises(ValueError, match="sections"):
            RunConfig.from_dict({"nonsense": {}})

    def test_nested_overrides_survive_the_round_trip(self):
        # CADRLConfig.__post_init__ propagates embedding_dim/seed into the
        # nested stage configs; explicit nested overrides must nevertheless
        # come back verbatim from JSON.
        config = tiny_config()
        config.model.transe.seed = 99
        config.model.cggnn_training.learning_rate = 0.0123
        restored = RunConfig.from_json(config.to_json())
        assert restored.model.transe.seed == 99
        assert restored.model.cggnn_training.learning_rate == 0.0123
        assert restored.fingerprint() == config.fingerprint()

    def test_profiles(self):
        smoke = RunConfig.from_profile("smoke", dataset="cellphones", seed=3)
        paper = RunConfig.from_profile("paper")
        assert smoke.data.dataset == "cellphones"
        assert smoke.data.split_seed == 3
        assert smoke.data.scale < paper.data.scale
        assert smoke.model.darl.epochs < paper.model.darl.epochs
        with pytest.raises(ValueError):
            RunConfig.from_profile("huge")


class TestLoadDatasetSeed:
    def test_explicit_seed_is_deterministic(self):
        first = load_dataset("beauty", scale=0.5, seed=7)
        second = load_dataset("beauty", scale=0.5, seed=7)
        assert [i.item_id for i in first.interactions] == \
               [i.item_id for i in second.interactions]

    def test_seed_changes_the_draw_but_presets_stay_distinct(self):
        default = load_dataset("beauty", scale=0.5)
        reseeded = load_dataset("beauty", scale=0.5, seed=0)
        assert [i.item_id for i in default.interactions] != \
               [i.item_id for i in reseeded.interactions]
        beauty = load_dataset("beauty", scale=0.5, seed=7)
        cellphones = load_dataset("cellphones", scale=0.5, seed=7)
        assert [i.item_id for i in beauty.interactions] != \
               [i.item_id for i in cellphones.interactions]

    @pytest.mark.parametrize("bad_scale", [0.0, -1.0, float("nan"),
                                           float("inf"), "big", None, True])
    def test_invalid_scale_raises_clearly(self, bad_scale):
        with pytest.raises(ValueError, match="scale"):
            load_dataset("beauty", scale=bad_scale)

    @pytest.mark.parametrize("bad_seed", [-1, 1.5, "x", True])
    def test_invalid_seed_raises_clearly(self, bad_seed):
        with pytest.raises(ValueError, match="seed"):
            load_dataset("beauty", seed=bad_seed)


class TestPipelineExecution:
    def test_first_run_executes_every_stage(self, trained):
        _, result = trained
        assert result.statuses == {name: "ran" for name in STAGE_NAMES}
        assert result.eval_metrics is not None
        assert result.serve_report["ok"]

    def test_rerun_with_same_config_is_fully_cached(self, trained):
        store, _ = trained
        result = Pipeline(tiny_config(), store=store).run()
        assert result.statuses == {name: "cached" for name in STAGE_NAMES}
        assert result.cadrl is not None
        assert result.eval_metrics is not None

    def test_changed_stage_reruns_only_downstream(self, tmp_path, trained):
        store, _ = trained
        # Copy the artifacts so this test cannot dirty the shared fixture.
        import shutil

        private = tmp_path / "artifacts"
        shutil.copytree(store, private)
        changed = tiny_config()
        changed.model.darl.epochs = 1
        result = Pipeline(changed, store=private).run()
        assert result.statuses["data"] == "cached"
        assert result.statuses["embed"] == "cached"
        assert result.statuses["cggnn"] == "cached"
        assert result.statuses["train"] == "ran"
        assert result.statuses["eval"] == "ran"
        assert result.statuses["serve-check"] == "ran"

    def test_stage_seconds_come_from_the_injected_clock(self, trained):
        ticks = iter(range(0, 1000, 3))   # every stage's run spans one 3 s tick
        clock = lambda: float(next(ticks))  # noqa: E731
        result = Pipeline(tiny_config(), clock=clock).run(until=("kg",))
        assert result.seconds == {"data": 3.0, "kg": 3.0}
        lines = result.summary().splitlines()
        assert lines[0].split()[:3] == ["data", "ran", "3.00s"]
        assert lines[2].split()[:3] == ["embed", "skipped", "-"]

        store, _ = trained
        cached = Pipeline(tiny_config(), store=store, clock=clock).run()
        assert cached.seconds == {name: 3.0 for name in STAGE_NAMES}
        assert all(line.split()[1:3] == ["cached", "3.00s"]
                   for line in cached.summary().splitlines())

    def test_summary_prints_a_restore_in_milliseconds(self, trained):
        store, _ = trained
        ticks = iter([0.0, 0.0047] * len(STAGE_NAMES))
        cached = Pipeline(tiny_config(), store=store, clock=lambda: next(ticks)).run()
        assert cached.statuses == {name: "cached" for name in STAGE_NAMES}
        assert all(line.split()[2] == "4.7ms" for line in cached.summary().splitlines())

    def test_force_recomputes(self, tmp_path):
        config = tiny_config()
        store = tmp_path / "artifacts"
        Pipeline(config, store=store).run(until=("data",))
        result = Pipeline(config, store=store, force=True).run(until=("data",))
        assert result.statuses["data"] == "ran"

    def test_until_resolves_dependencies(self):
        pipeline = Pipeline(tiny_config())
        assert pipeline.resolve(("train",)) == ["data", "kg", "embed", "cggnn", "train"]
        assert pipeline.resolve(("data",)) == ["data"]
        with pytest.raises(PipelineError, match="unknown stages"):
            pipeline.resolve(("warp",))

    def test_memory_only_run_has_no_store(self):
        result = Pipeline(tiny_config()).run(until=("kg",))
        assert result.artifacts_dir is None
        assert result.graph is not None


class TestSmokeStoreRoundTrip:
    """A restored smoke stack equals the run that wrote it, KG included."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        store = tmp_path_factory.mktemp("smoke")
        ran = Pipeline(RunConfig.from_profile("smoke"), store=store).run(until=("train",))
        return ran, load_pipeline(store)

    def test_dataset_and_split_are_equal(self, runs):
        ran, loaded = runs
        for field in dataclasses.fields(InteractionDataset):
            assert getattr(loaded.dataset, field.name) == getattr(ran.dataset, field.name)
        assert loaded.split == ran.split

    def test_graph_is_equal(self, runs):
        ran, loaded = runs
        graph, restored = ran.graph, loaded.graph
        assert list(restored._edges.items()) == list(graph._edges.items())
        for entity in range(graph.num_entities):
            assert restored.outgoing(entity) == graph.outgoing(entity)
        assert restored.version == graph.version
        assert restored._dirty_entities == graph._dirty_entities
        assert restored.adjacency_compile_stats() == graph.adjacency_compile_stats()
        assert restored.item_category_map() == graph.item_category_map()
        assert restored.statistics() == graph.statistics()
        for name in ("indptr", "relations", "targets", "degrees", "entity_category",
                     "is_item", "triplets"):
            left, right = getattr(graph.adjacency(), name), getattr(restored.adjacency(), name)
            assert left.dtype == right.dtype and np.array_equal(left, right), name

    def test_category_graph_is_equal(self, runs):
        ran, loaded = runs
        category_graph = ran.context.category_graph
        restored = loaded.context.category_graph
        assert restored.num_categories == category_graph.num_categories
        assert dict(restored._adjacency) == dict(category_graph._adjacency)
        assert dict(restored._edge_relations) == dict(category_graph._edge_relations)

    def test_split_shares_the_dataset_records(self, runs):
        _, loaded = runs
        records = {id(record) for record in loaded.dataset.interactions}
        assert all(id(record) in records
                   for record in loaded.split.train + loaded.split.test)

    def test_a_split_row_the_dataset_lacks_is_restored(self, runs, tmp_path):
        import shutil

        ran, _ = runs
        store = ArtifactStore(shutil.copytree(ran.artifacts_dir, tmp_path / "store"))
        split = store.load_json("data", "split.json")
        split["test"].append([0, 0, [0, 1]])
        store.save_json("data", "split.json", split)
        manifest = store.read_manifest()["stages"]["data"]
        store.complete("data", manifest["fingerprint"], manifest["metadata"])
        restored = load_pipeline(store.root, until=("data",))
        assert Interaction(0, 0, (0, 1)) not in restored.dataset.interactions
        assert restored.split.test[-1] == Interaction(0, 0, (0, 1))
        assert restored.split.train == ran.split.train

    def test_restore_times_each_stage(self, runs):
        _, loaded = runs
        assert set(loaded.seconds) == {"data", "kg", "embed", "cggnn", "train"}
        assert all(status == "cached" for status in loaded.statuses.values())
        assert all(seconds >= 0.0 for seconds in loaded.seconds.values())


class TestArtifactRoundTrip:
    def test_load_restores_identical_tables(self, trained):
        store, result = trained
        loaded = load_pipeline(store)
        np.testing.assert_array_equal(loaded.representations.entity,
                                      result.representations.entity)
        np.testing.assert_array_equal(loaded.representations.category,
                                      result.representations.category)
        np.testing.assert_array_equal(loaded.transe.entity_embeddings,
                                      result.transe.entity_embeddings)
        assert loaded.cadrl.policy.num_parameters() == result.cadrl.policy.num_parameters()
        for name, array in loaded.cadrl.policy.state_dict().items():
            np.testing.assert_array_equal(array, result.cadrl.policy.state_dict()[name])

    def test_identical_recommendations_after_reload(self, trained):
        store, result = trained
        loaded = load_pipeline(store)
        users = sorted(result.context.builder.user_entity)[:6]
        for user in users:
            # DARL beam search: same paths, same order.
            original = result.cadrl.recommend_paths(user, top_k=5)
            restored = loaded.cadrl.recommend_paths(user, top_k=5)
            assert [p.item_entity for p in original] == \
                   [p.item_entity for p in restored]
            assert [p.hops for p in original] == [p.hops for p in restored]
            # CGGNN representation scores: exact.
            np.testing.assert_allclose(loaded.cadrl.score_items(user),
                                       result.cadrl.score_items(user))

    def test_transe_top_k_identical_after_reload(self, trained):
        store, result = trained
        loaded = load_pipeline(store)
        builder = result.context.builder
        items = np.array(sorted(builder.item_entity.values()))
        user = builder.user_to_entity(0)
        assert loaded.transe.top_k_items(user, items, k=10) == \
               result.transe.top_k_items(user, items, k=10)

    def test_save_pipeline_from_memory_run(self, tmp_path):
        result = Pipeline(tiny_config()).run(until=("train",))
        target = save_pipeline(result, tmp_path / "saved")
        loaded = load_pipeline(target)
        user = sorted(result.context.builder.user_entity)[0]
        assert [p.item_entity for p in loaded.cadrl.recommend_paths(user, top_k=3)] == \
               [p.item_entity for p in result.cadrl.recommend_paths(user, top_k=3)]

    def test_load_pipeline_rejects_wrong_directory(self, tmp_path):
        missing = tmp_path / "nowhere"
        with pytest.raises(PipelineError, match="config.json"):
            load_pipeline(missing)
        # Probing a bad path must not litter directories on disk.
        assert not missing.exists()

    def test_load_pipeline_rejects_mismatched_config(self, trained):
        store, _ = trained
        changed = tiny_config()
        changed.model.darl.epochs = 99
        with pytest.raises(PipelineError, match="fingerprint|missing"):
            load_pipeline(store, config=changed)

    def test_manifest_gates_partial_artifacts(self, tmp_path):
        config = tiny_config()
        store_path = tmp_path / "artifacts"
        Pipeline(config, store=store_path).run(until=("embed",))
        store = ArtifactStore(store_path)
        fingerprints = config.stage_fingerprints()
        assert store.is_complete("embed", fingerprints["embed"])
        # Dropping the completion mark forces recomputation even though the
        # stage files are still on disk.
        store.begin("embed")
        result = Pipeline(config, store=store_path).run(until=("embed",))
        assert result.statuses["embed"] == "ran"


class TestServiceFromArtifacts:
    def test_equivalent_to_in_memory_service(self, trained):
        store, result = trained
        in_memory = result.service()
        from_disk = RecommendationService.from_artifacts(store)
        builder = result.context.builder
        users = [builder.user_to_entity(user)
                 for user in sorted(builder.user_entity)[:6]]
        requests_a = in_memory.build_requests(users, top_k=5)
        requests_b = from_disk.build_requests(users, top_k=5)
        for req_a, req_b in zip(requests_a, requests_b):
            resp_a = in_memory.serve(req_a)
            resp_b = from_disk.serve(req_b)
            assert resp_a.items == resp_b.items
            assert resp_a.tier == resp_b.tier
        # Repeats hit the cache on both sides with identical payloads.
        for req_a, req_b in zip(requests_a, requests_b):
            resp_a = in_memory.serve(req_a)
            resp_b = from_disk.serve(req_b)
            assert resp_a.cache_hit and resp_b.cache_hit
            assert resp_a.items == resp_b.items

    def test_from_artifacts_matches_from_cadrl_on_loaded_stack(self, trained):
        store, result = trained
        loaded = load_pipeline(store)
        via_cadrl = RecommendationService.from_cadrl(loaded.cadrl,
                                                     transe=loaded.transe,
                                                     config=loaded.config.serving)
        via_artifacts = RecommendationService.from_artifacts(store)
        builder = result.context.builder
        users = [builder.user_to_entity(user)
                 for user in sorted(builder.user_entity)[:4]]
        for request_a, request_b in zip(via_cadrl.build_requests(users, top_k=5),
                                        via_artifacts.build_requests(users, top_k=5)):
            assert via_cadrl.serve(request_a).items == \
                   via_artifacts.serve(request_b).items

    def test_serving_config_override(self, trained):
        store, _ = trained
        from repro.serving import ServingConfig

        service = RecommendationService.from_artifacts(
            store, config=ServingConfig(cache_capacity=2, cache_ttl_seconds=1.0))
        assert service.config.cache_capacity == 2


class TestCLI:
    def test_run_persists_and_caches(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        tiny_config().save(config_path)
        out = tmp_path / "artifacts"
        assert cli_main(["run", "--config", str(config_path),
                         "--out", str(out)]) == 0
        first = capsys.readouterr().out
        assert "ran" in first and "serve-check: ok" in first
        assert (out / "config.json").exists()
        assert (out / "manifest.json").exists()
        assert cli_main(["run", "--config", str(config_path),
                         "--out", str(out)]) == 0
        second = capsys.readouterr().out
        assert "cached" in second and " ran " not in second

    def test_eval_and_serve_demo_from_artifacts(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        tiny_config().save(config_path)
        out = tmp_path / "artifacts"
        assert cli_main(["train", "--config", str(config_path),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli_main(["eval", "--artifacts", str(out)]) == 0
        eval_output = capsys.readouterr().out
        assert "ndcg" in eval_output
        assert cli_main(["serve-demo", "--artifacts", str(out),
                         "--users", "5"]) == 0
        demo_output = capsys.readouterr().out
        assert "telemetry snapshot" in demo_output

    def test_error_reporting_on_bad_artifacts(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        missing.mkdir()
        assert cli_main(["serve-demo", "--artifacts", str(missing)]) == 2
        assert "error:" in capsys.readouterr().err


class TestSatellites:
    def test_every_experiment_has_uniform_run_signature(self):
        for key, module in EXPERIMENTS.items():
            parameters = inspect.signature(module.run).parameters
            assert "profile" in parameters, f"{key}.run lacks profile="

    def test_repro_package_exports_subpackages_lazily(self):
        assert set(repro._SUBPACKAGES) <= set(repro.__all__)
        assert repro.serving.RecommendationService is RecommendationService
        assert "pipeline" in dir(repro)
        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_table2_uniform_profile_signature(self):
        from repro.experiments import table2_datasets

        result = table2_datasets.run(profile="smoke", scale=0.5)
        assert set(result.statistics) == {"beauty", "cellphones", "clothing"}
        with pytest.raises(ValueError, match="profile"):
            table2_datasets.run(profile="huge")

    def test_trained_cadrl_is_memoised_per_fingerprint(self):
        from repro.experiments.common import ExperimentSetting, clear_stage_memo, trained_stack

        clear_stage_memo()
        setting = ExperimentSetting.from_profile("smoke")
        setting.dataset_scale = 0.25
        setting.darl_epochs = 1
        first = trained_stack("beauty", setting, seed=0)
        again = trained_stack("beauty", setting, seed=0)
        assert set(again.statuses.values()) == {"cached"}  # no second training
        assert_same_weights(first.cadrl, again.cadrl)
        assert again.cadrl is not first.cadrl  # a fresh facade, cold caches
        assert again.cadrl.recommender is not first.cadrl.recommender
        other = trained_stack("beauty", setting, seed=1)
        assert other.statuses["train"] == "ran"
        # An inference override reuses every trained stage but gets its own
        # facade, assembled with the overridden inference configuration.
        wide = trained_stack("beauty", setting, seed=0, inference__beam_width=30)
        assert set(wide.statuses.values()) == {"cached"}
        assert wide.cadrl.config.inference.beam_width == 30
        assert first.cadrl.config.inference.beam_width != 30
        clear_stage_memo()


class TestSingleTrainingChain:
    """``CADRL.fit``, the experiment harness and the stage memo share one chain."""

    @pytest.fixture(scope="class")
    def setting(self):
        from repro.experiments.common import ExperimentSetting

        setting = ExperimentSetting.from_profile("smoke")
        setting.dataset_scale = 0.25
        setting.darl_epochs = 1
        return setting

    @pytest.mark.parametrize("variant", ["CADRL", "RCGAN", "RSHI"])
    def test_fit_equals_the_pipeline_stack(self, setting, variant):
        from repro.darl import CADRL, VARIANT_OVERRIDES
        from repro.experiments.common import cadrl_config, prepare_dataset, trained_stack

        overrides = VARIANT_OVERRIDES[variant]
        fitted = CADRL(cadrl_config(setting, seed=0, **overrides)).fit(
            *prepare_dataset("beauty", setting, seed=0))
        stacked = trained_stack("beauty", setting, seed=0, **overrides).cadrl
        assert_same_weights(fitted, stacked)
        assert fitted.training_history == stacked.training_history
        assert fitted.recommend_items(0) == stacked.recommend_items(0)

    def test_memo_hit_is_a_fresh_facade_over_equal_arrays(self):
        memo = StageMemo()
        first = Pipeline(tiny_config(), memo=memo).run(until=("train",))
        hit = Pipeline(tiny_config(), memo=memo).run(until=("train",))
        fresh = Pipeline(tiny_config()).run(until=("train",))
        assert set(first.statuses.values()) == set(fresh.statuses.values()) == {"ran"}
        assert set(hit.statuses.values()) == {"cached"}
        assert_same_weights(hit.cadrl, fresh.cadrl)
        assert hit.cadrl is not first.cadrl
        assert hit.cadrl.recommender is not first.cadrl.recommender
        user = sorted(hit.cadrl._train_items)[0]
        assert (hit.cadrl.recommender.recommend(user)
                == fresh.cadrl.recommender.recommend(user))

    def test_override_reruns_only_the_stages_it_reaches(self):
        memo = StageMemo()
        Pipeline(tiny_config(), memo=memo).run(until=("train",))
        darl_only = tiny_config()
        darl_only.model.darl.share_history = False
        statuses = Pipeline(darl_only, memo=memo).run(until=("train",)).statuses
        assert statuses == {"data": "cached", "kg": "cached", "embed": "cached",
                            "cggnn": "cached", "train": "ran"}
        cggnn = tiny_config()
        cggnn.model.cggnn.use_ggnn = False
        statuses = Pipeline(cggnn, memo=memo).run(until=("train",)).statuses
        assert statuses == {"data": "cached", "kg": "cached", "embed": "cached",
                            "cggnn": "ran", "train": "ran"}

    def test_memo_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr("repro.pipeline.pipeline.MEMO_CAPACITY", 2)
        memo = StageMemo()
        memo.put("a", (1,))
        memo.put("b", (2,))
        assert memo.get("a") == (1,)  # "a" is now the most recent
        memo.put("c", (3,))
        assert memo.get("b") is None
        assert memo.get("a") == (1,) and memo.get("c") == (3,)

    def test_memo_and_store_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            Pipeline(tiny_config(), store=tmp_path, memo=StageMemo())
