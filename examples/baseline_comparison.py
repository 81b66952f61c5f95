"""Compare CADRL against a spread of baselines on one dataset (a mini Table I).

Run with:  python examples/baseline_comparison.py
"""

from repro.baselines import SingleAgentConfig, build_baseline
from repro.darl import CADRL, CADRLConfig
from repro.data import load_dataset, split_interactions
from repro.eval import compare_models

BASELINES = ["Popularity", "CKE", "RippleNet", "HeteroEmbed", "PGPR", "CAFE", "UCPR"]
RL_BASELINES = {"PGPR", "UCPR"}


def main() -> None:
    dataset = load_dataset("beauty", scale=0.5)
    split = split_interactions(dataset, seed=0)

    models = []
    for name in BASELINES:
        if name in RL_BASELINES:
            model = build_baseline(name, config=SingleAgentConfig(epochs=3, seed=0), seed=0)
        else:
            model = build_baseline(name, seed=0)
        print(f"training {name} ...")
        models.append(model.fit(dataset, split))

    print("training CADRL ...")
    cadrl_config = CADRLConfig.fast(embedding_dim=32, seed=0)
    cadrl_config.darl.epochs = 6
    models.append(CADRL(cadrl_config).fit(dataset, split))

    print("\nResults on the held-out 30% (all values %, top-10):")
    for result in compare_models(models, split, top_k=10):
        print(" ", result.summary_row())


if __name__ == "__main__":
    main()
