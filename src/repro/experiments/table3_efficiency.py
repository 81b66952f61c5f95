"""Table III — computational cost of recommendation and path finding.

Measures, for the path/RL methods of the paper's efficiency study (PGPR,
HeteroEmbed, UCPR, CAFE) and CADRL, (a) the wall-clock time to recommend for a
batch of users and (b) the time to enumerate recommendation paths, both
extrapolated to the paper's units (1k users / 10k paths).  The expected shape
is PGPR slowest, CAFE the fastest baseline, CADRL fastest overall.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..baselines import TABLE3_BASELINES, SingleAgentConfig, build_baseline
from ..data import DATASET_NAMES
from ..eval import TimingResult, measure_efficiency
from ..serving import RecommendationService
from .common import ExperimentSetting, format_table, prepare_dataset, trained_cadrl


@dataclass
class Table3Result:
    """Timing results per dataset and model."""

    timings: Dict[str, Dict[str, TimingResult]] = field(default_factory=dict)

    def fastest_model(self, dataset: str) -> str:
        rows = self.timings[dataset]
        return min(rows, key=lambda name: rows[name].recommendation_per_1k_users())


def run(profile: str = "smoke", datasets: Optional[Sequence[str]] = None,
        num_users: int = 20, paths_per_user: int = 20, seed: int = 0,
        include_served: bool = True) -> Table3Result:
    """Train the Table III models and measure both workloads.

    With ``include_served`` the table also reports CADRL behind the
    ``repro.serving`` facade — a cold pass (batched inference) and a warm
    pass (result-cache hits) — next to the paper's raw per-user loop.
    """
    setting = ExperimentSetting.from_profile(profile)
    datasets = list(datasets or DATASET_NAMES)
    result = Table3Result()

    for dataset_name in datasets:
        dataset, split = prepare_dataset(dataset_name, setting, seed=seed)
        users = list(range(min(num_users, dataset.num_users)))
        result.timings[dataset_name] = {}

        for baseline_name in TABLE3_BASELINES:
            if baseline_name in {"PGPR", "UCPR"}:
                model = build_baseline(baseline_name,
                                       config=SingleAgentConfig(
                                           epochs=setting.baseline_rl_epochs, seed=seed),
                                       seed=seed)
            else:
                model = build_baseline(baseline_name, seed=seed)
            model.fit(dataset, split)
            result.timings[dataset_name][baseline_name] = measure_efficiency(
                model, users, paths_per_user=paths_per_user)

        # Pipeline-backed: reuses the stages trained by other experiments in
        # the same process (common.trained_cadrl).  The facade is fresh, so
        # its recommender caches are cold — this row measures the cold
        # per-user loop.
        _, _, cadrl = trained_cadrl(dataset_name, setting, seed=seed)
        result.timings[dataset_name]["CADRL"] = measure_efficiency(
            cadrl, users, paths_per_user=paths_per_user)

        if include_served:
            service = RecommendationService.from_cadrl(cadrl)
            user_entities = [cadrl.builder.user_to_entity(user) for user in users]
            # The raw CADRL measurement above warmed the shared recommender's
            # milestone cache — drop it so the cold row really pays the batched
            # rollout, not a replay.
            service.recommender.clear_milestone_cache()
            service.cache.clear()
            for label in ("CADRL (served cold)", "CADRL (served warm)"):
                service.name = label
                result.timings[dataset_name][label] = measure_efficiency(
                    service, user_entities, paths_per_user=paths_per_user)
    return result


def report(result: Table3Result) -> str:
    blocks: List[str] = []
    for dataset_name, timings in result.timings.items():
        fmt = lambda value: "n/a" if math.isnan(value) else f"{value:.2f}"  # noqa: E731
        rows = [[name,
                 fmt(timing.recommendation_per_1k_users()),
                 fmt(timing.pathfinding_per_10k_paths()),
                 f"{timing.recommendation_seconds:.3f}",
                 timing.paths_found]
                for name, timing in timings.items()]
        blocks.append(format_table(
            ["Model", "Rec. s/1k users", "Find s/10k paths", "measured s", "paths"],
            rows, title=f"Table III — efficiency on {dataset_name}"))
        blocks.append(f"Fastest recommender: {result.fastest_model(dataset_name)}")
    return "\n\n".join(blocks)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="smoke", choices=("smoke", "paper"))
    parser.add_argument("--datasets", nargs="*", default=None)
    parser.add_argument("--num-users", type=int, default=20)
    parser.add_argument("--no-served", action="store_true",
                        help="skip the repro.serving rows (raw loops only)")
    arguments = parser.parse_args()
    print(report(run(profile=arguments.profile, datasets=arguments.datasets,
                     num_users=arguments.num_users,
                     include_served=not arguments.no_served)))


if __name__ == "__main__":
    main()
