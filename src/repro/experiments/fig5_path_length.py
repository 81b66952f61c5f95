"""Figure 5 — NDCG as a function of the maximum recommendation path length L.

Sweeps L for CADRL and for the single-agent RL baselines (UCPR, CAFE, CogER).
The paper's finding: the single-agent baselines peak at L=3 and degrade for
longer paths (sparse rewards + semantic dilution), while CADRL keeps improving
up to L≈6-7 before noise sets in.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..baselines import SingleAgentConfig, build_baseline
from ..eval import evaluate_recommender
from .common import (
    ExperimentSetting,
    eval_users,
    format_table,
    prepare_dataset,
    trained_cadrl,
)

FIG5_MODELS = ["CogER", "CAFE", "UCPR", "CADRL"]
DEFAULT_LENGTHS = [2, 3, 4, 5, 6, 7, 8]


@dataclass
class Fig5Result:
    """NDCG (%) per dataset, model and path length — the curves of Fig. 5."""

    lengths: List[int]
    ndcg: Dict[str, Dict[str, Dict[int, float]]] = field(default_factory=dict)

    def optimal_length(self, dataset: str, model: str) -> int:
        curve = self.ndcg[dataset][model]
        return max(curve, key=curve.get)


def run(profile: str = "smoke", datasets: Optional[Sequence[str]] = None,
        lengths: Optional[Sequence[int]] = None, models: Optional[Sequence[str]] = None,
        seed: int = 0) -> Fig5Result:
    setting = ExperimentSetting.from_profile(profile)
    datasets = list(datasets or ["beauty"])
    lengths = list(lengths or DEFAULT_LENGTHS)
    models = list(models or FIG5_MODELS)
    result = Fig5Result(lengths=lengths)

    for dataset_name in datasets:
        dataset, split = prepare_dataset(dataset_name, setting, seed=seed)
        users = eval_users(split, setting)
        result.ndcg[dataset_name] = {name: {} for name in models}
        for length in lengths:
            for model_name in models:
                if model_name == "CADRL":
                    # A DARL-only override: every length reuses the standard
                    # stack's data, KG, TransE and CGGNN; L=6 is that stack.
                    _, _, model = trained_cadrl(dataset_name, setting, seed=seed,
                                                darl__max_path_length=length)
                elif model_name == "CAFE":
                    # CAFE's "length" is the meta-path template length; templates
                    # longer than L are simply unavailable, approximated here by
                    # re-using the fixed template set (flat beyond its max length).
                    model = build_baseline(model_name, seed=seed)
                else:
                    model = build_baseline(model_name, config=SingleAgentConfig(
                        epochs=setting.baseline_rl_epochs, max_hops=length, seed=seed),
                        seed=seed)
                if model_name != "CADRL":
                    model.fit(dataset, split)
                evaluation = evaluate_recommender(model, split, users=users)
                result.ndcg[dataset_name][model_name][length] = evaluation.metrics["ndcg"]
    return result


def report(result: Fig5Result) -> str:
    blocks: List[str] = []
    for dataset_name, curves in result.ndcg.items():
        rows = []
        for model_name, curve in curves.items():
            rows.append([model_name] + [f"{curve.get(length, float('nan')):.3f}"
                                        for length in result.lengths])
        blocks.append(format_table(["Model"] + [f"L={length}" for length in result.lengths],
                                   rows, title=f"Fig. 5 — NDCG vs. path length on {dataset_name}"))
        for model_name in curves:
            blocks.append(f"optimal L for {model_name}: "
                          f"{result.optimal_length(dataset_name, model_name)}")
    return "\n\n".join(blocks)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="smoke", choices=("smoke", "paper"))
    parser.add_argument("--lengths", nargs="*", type=int, default=None)
    arguments = parser.parse_args()
    print(report(run(profile=arguments.profile, lengths=arguments.lengths)))


if __name__ == "__main__":
    main()
