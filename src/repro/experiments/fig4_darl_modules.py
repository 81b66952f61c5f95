"""Figure 4 — contribution of the SPN and CRM modules inside DARL.

Compares UCPR, RCRM (no collaborative reward mechanism), RSHI (no shared
history in the policy networks) and the full CADRL on Beauty and Cell Phones.
The paper's findings: every variant beats UCPR, RSHI > RCRM, CADRL best.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..baselines import SingleAgentConfig, build_baseline
from ..darl import VARIANT_OVERRIDES
from ..eval import evaluate_recommender
from .common import (
    ExperimentSetting,
    eval_users,
    format_table,
    metric_row,
    prepare_dataset,
    trained_cadrl,
)

FIG4_DATASETS = ["cellphones", "beauty"]
FIG4_MODELS = ["UCPR", "RCRM", "RSHI", "CADRL"]


@dataclass
class Fig4Result:
    """Metrics (in %) per dataset per model — the bars of Fig. 4."""

    metrics: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)


def run(profile: str = "smoke", datasets: Optional[Sequence[str]] = None,
        seed: int = 0) -> Fig4Result:
    setting = ExperimentSetting.from_profile(profile)
    datasets = list(datasets or FIG4_DATASETS)
    result = Fig4Result()
    for dataset_name in datasets:
        dataset, split = prepare_dataset(dataset_name, setting, seed=seed)
        users = eval_users(split, setting)
        result.metrics[dataset_name] = {}
        for model_name in FIG4_MODELS:
            if model_name == "UCPR":
                model = build_baseline("UCPR", config=SingleAgentConfig(
                    epochs=setting.baseline_rl_epochs, seed=seed), seed=seed).fit(dataset, split)
            else:
                _, _, model = trained_cadrl(dataset_name, setting, seed=seed,
                                            **VARIANT_OVERRIDES[model_name])
            evaluation = evaluate_recommender(model, split, users=users)
            result.metrics[dataset_name][model_name] = evaluation.metrics
    return result


def report(result: Fig4Result) -> str:
    blocks: List[str] = []
    for dataset_name, metrics in result.metrics.items():
        rows = [metric_row(model, values) for model, values in metrics.items()]
        blocks.append(format_table(["Model", "NDCG", "Recall", "HR", "Prec."], rows,
                                   title=f"Fig. 4 — DARL module ablation on {dataset_name}"))
    return "\n\n".join(blocks)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="smoke", choices=("smoke", "paper"))
    arguments = parser.parse_args()
    print(report(run(profile=arguments.profile)))


if __name__ == "__main__":
    main()
