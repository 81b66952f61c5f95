"""``repro simulate`` end to end: every replay mode through the CLI.

One tiny trained stack (class-scoped) drives each mode — plain, live
ingestion, autoscaling, a committed fault plan and a seeded chaos plan with
live ingestion — twice, asserting the determinism contract (same seed ⇒
bit-identical replay and ledger signatures), a clean oracle battery, and
that every summary key the CI jobs read is present.  Two regression tests
pin the single exit path: ``--expect-no-shed`` is honoured under a fault
plan, and a live fault replay leaves no scratch directory behind.
"""

import json
import os
import tempfile
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.cluster import ClusterConfig
from repro.darl import CADRLConfig
from repro.pipeline import RunConfig
from repro.pipeline.config import DataConfig, EvalConfig

FAULT_PLANS = Path(__file__).resolve().parents[1] / "examples" / "fault_plans"

#: Summary keys the CI jobs read, shared by every mode.
COMMON_KEYS = ("requests", "cache_hit_rate", "replay_signature",
               "workload_seed", "oracles")
CLUSTER_KEYS = ("routing", "admission", "health", "topology")
LIVE_KEYS = ("generation", "records_by_generation", "swaps", "log_length")
AUTOSCALE_KEYS = ("scale_ups", "scale_downs", "migrated_entries",
                  "current_shards", "initial_shards", "shard_ticks")
FAULT_KEYS = ("answered", "faulted_answers", "ledger_entries",
              "ledger_signature", "ledger_kinds", "plan_signature")

#: mode name → (extra CLI arguments, summary sections it must carry).
MODES = {
    "plain": ([], ()),
    "live": (["--shards", "2", "--live-ingest", "5"], ("live",)),
    "autoscale": (["--autoscale", "--min-shards", "1", "--max-shards", "3",
                   "--max-queue", "4"], ("autoscale",)),
    "faults": (["--shards", "4", "--replicas", "2",
                "--faults", str(FAULT_PLANS / "transient_exceptions.json")],
               ("faults",)),
    "chaos-live": (["--shards", "2", "--chaos-seed", "3",
                    "--live-ingest", "5"], ("faults", "live")),
}


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


class TestSimulateModes:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("simulate-cli")
        config_path = root / "config.json"
        tiny_run_config().save(config_path)
        out = root / "artifacts"
        assert cli_main(["train", "--config", str(config_path),
                         "--out", str(out)]) == 0
        return out

    def _simulate(self, artifacts, out, extra, requests=60):
        return cli_main(["simulate", "--artifacts", str(artifacts),
                         "--requests", str(requests), "--seed", "3",
                         "--oracle-sample", "5",
                         "--summary-json", str(out), *extra])

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_mode_is_deterministic_oracle_clean_and_complete(
            self, mode, artifacts, tmp_path, capsys):
        extra, sections = MODES[mode]
        summaries = []
        for run in ("first", "second"):
            out = tmp_path / f"{run}.json"
            assert self._simulate(artifacts, out, extra) == 0, mode
            summaries.append(json.loads(out.read_text()))
        capsys.readouterr()
        first, second = summaries

        assert first["replay_signature"] == second["replay_signature"]
        assert first["requests"] == 60
        for key in COMMON_KEYS:
            assert key in first, (mode, key)
        assert first["oracles"]
        assert all(entry["mismatches"] == 0
                   for entry in first["oracles"].values()), first["oracles"]
        if mode != "plain":
            for key in CLUSTER_KEYS:
                assert key in first, (mode, key)
            assert "shed" in first["routing"]
        if "live" in sections:
            for key in LIVE_KEYS:
                assert key in first["live"], (mode, key)
        if "autoscale" in sections:
            for key in AUTOSCALE_KEYS:
                assert key in first["autoscale"], (mode, key)
            assert first["autoscale"] == second["autoscale"]
        if "faults" in sections:
            for key in FAULT_KEYS:
                assert key in first["faults"], (mode, key)
            assert (first["faults"]["ledger_signature"]
                    == second["faults"]["ledger_signature"])
            assert first["baseline_signature"] == second["baseline_signature"]
            assert first["faults"]["answered"] == first["requests"]
            assert first["faults"]["ledger_entries"] > 0

    def test_expect_no_shed_is_honoured_under_a_fault_plan(
            self, artifacts, tmp_path, capsys):
        plan = tmp_path / "down.json"
        plan.write_text(json.dumps({
            "version": 1, "timebase": "fraction",
            "events": [{"kind": "shard_down", "at_s": 0.2, "shard_id": 0,
                        "duration_s": 0.5}]}))
        out = tmp_path / "summary.json"
        code = self._simulate(artifacts, out,
                              ["--shards", "1", "--faults", str(plan),
                               "--expect-no-shed"])
        captured = capsys.readouterr()
        summary = json.loads(out.read_text())
        assert summary["routing"]["shed"] > 0
        assert code == 1
        assert "SHED CHECK FAILED" in captured.err

    def test_live_fault_replay_leaves_no_scratch_directory(
            self, artifacts, tmp_path, monkeypatch, capsys):
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        assert self._simulate(artifacts, tmp_path / "summary.json",
                              ["--chaos-seed", "3", "--live-ingest", "5"]) == 0
        capsys.readouterr()
        assert os.listdir(scratch) == []
