"""Table IV — ablation of the two main components (CGGNN and DARL).

Trains the full CADRL, ``CADRL w/o DARL`` (single agent, binary terminal
reward only) and ``CADRL w/o CGGNN`` (static TransE representations) on every
dataset and compares the four ranking metrics.  The paper's finding is that
both variants lose accuracy and that removing DARL hurts more than removing
CGGNN.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..darl import VARIANT_OVERRIDES
from ..data import DATASET_NAMES
from ..eval import evaluate_recommender
from .common import ExperimentSetting, eval_users, format_table, metric_row, trained_cadrl

TABLE4_VARIANTS = ["CADRL w/o DARL", "CADRL w/o CGGNN", "CADRL"]


@dataclass
class Table4Result:
    """Metrics (in %) for every variant on every dataset."""

    metrics: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)

    def drop_from_full(self, dataset: str, variant: str, metric: str = "ndcg") -> float:
        """Absolute metric drop of a variant relative to the full model."""
        full = self.metrics[dataset]["CADRL"][metric]
        return full - self.metrics[dataset][variant][metric]


def run(profile: str = "smoke", datasets: Optional[Sequence[str]] = None,
        variants: Optional[Sequence[str]] = None, seed: int = 0) -> Table4Result:
    setting = ExperimentSetting.from_profile(profile)
    datasets = list(datasets or DATASET_NAMES)
    variants = list(variants or TABLE4_VARIANTS)
    result = Table4Result()

    for dataset_name in datasets:
        result.metrics[dataset_name] = {}
        for variant_name in variants:
            _, split, model = trained_cadrl(dataset_name, setting, seed=seed,
                                            **VARIANT_OVERRIDES[variant_name])
            evaluation = evaluate_recommender(model, split,
                                              users=eval_users(split, setting))
            result.metrics[dataset_name][variant_name] = evaluation.metrics
    return result


def report(result: Table4Result) -> str:
    blocks: List[str] = []
    for dataset_name, rows_by_variant in result.metrics.items():
        rows = [metric_row(variant, metrics) for variant, metrics in rows_by_variant.items()]
        blocks.append(format_table(["Model", "NDCG", "Recall", "HR", "Prec."], rows,
                                   title=f"Table IV — ablation on {dataset_name} (values %)"))
    return "\n\n".join(blocks)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="smoke", choices=("smoke", "paper"))
    parser.add_argument("--datasets", nargs="*", default=None)
    arguments = parser.parse_args()
    print(report(run(profile=arguments.profile, datasets=arguments.datasets)))


if __name__ == "__main__":
    main()
