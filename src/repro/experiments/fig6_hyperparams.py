"""Figure 6 — sensitivity to the key hyper-parameters δ, α_pe and α_pc.

Sweeps each factor over 0.1..0.9 (the other two held at their tuned values)
and reports Precision@10, matching the panels of Fig. 6.  The paper's finding
is a unimodal response: a moderate value of each factor is best, and the
optimum δ is smaller on the category-sparse Clothing dataset.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..eval import evaluate_recommender
from .common import ExperimentSetting, eval_users, format_table, trained_cadrl

DEFAULT_VALUES = [0.1, 0.3, 0.5, 0.7, 0.9]
#: Each swept factor's config override path (δ is CGGNN's, α_pe/α_pc DARL's).
OVERRIDE_PATHS = {"delta": "cggnn__delta", "alpha_pe": "darl__alpha_pe",
                  "alpha_pc": "darl__alpha_pc"}
PARAMETERS = list(OVERRIDE_PATHS)


@dataclass
class Fig6Result:
    """Precision (%) per dataset, hyper-parameter and value."""

    values: List[float]
    precision: Dict[str, Dict[str, Dict[float, float]]] = field(default_factory=dict)

    def optimal_value(self, dataset: str, parameter: str) -> float:
        curve = self.precision[dataset][parameter]
        return max(curve, key=curve.get)


def run(profile: str = "smoke", datasets: Optional[Sequence[str]] = None,
        parameters: Optional[Sequence[str]] = None, values: Optional[Sequence[float]] = None,
        seed: int = 0) -> Fig6Result:
    setting = ExperimentSetting.from_profile(profile)
    datasets = list(datasets or ["beauty"])
    parameters = list(parameters or PARAMETERS)
    values = list(values or DEFAULT_VALUES)
    unknown = [parameter for parameter in parameters if parameter not in OVERRIDE_PATHS]
    if unknown:
        raise ValueError(f"unknown hyper-parameters {unknown}; choose from {PARAMETERS}")
    result = Fig6Result(values=values)

    for dataset_name in datasets:
        result.precision[dataset_name] = {parameter: {} for parameter in parameters}
        for parameter in parameters:
            for value in values:
                _, split, model = trained_cadrl(
                    dataset_name, setting, seed=seed, **{OVERRIDE_PATHS[parameter]: value})
                evaluation = evaluate_recommender(model, split,
                                                  users=eval_users(split, setting))
                result.precision[dataset_name][parameter][value] = (
                    evaluation.metrics["precision"])
    return result


def report(result: Fig6Result) -> str:
    blocks: List[str] = []
    for dataset_name, by_parameter in result.precision.items():
        rows = []
        for parameter, curve in by_parameter.items():
            rows.append([parameter] + [f"{curve.get(value, float('nan')):.3f}"
                                       for value in result.values])
        blocks.append(format_table(["Hyper-parameter"] + [f"{v:.1f}" for v in result.values],
                                   rows,
                                   title=f"Fig. 6 — Precision vs. hyper-parameters on "
                                         f"{dataset_name}"))
        for parameter in by_parameter:
            blocks.append(f"optimal {parameter} on {dataset_name}: "
                          f"{result.optimal_value(dataset_name, parameter):.1f}")
    return "\n\n".join(blocks)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="smoke", choices=("smoke", "paper"))
    parser.add_argument("--values", nargs="*", type=float, default=None)
    arguments = parser.parse_args()
    print(report(run(profile=arguments.profile, values=arguments.values)))


if __name__ == "__main__":
    main()
