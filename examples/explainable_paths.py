"""Explainable recommendations: compare CADRL's long guided paths with PGPR's 3-hop paths.

This mirrors the paper's case study (Fig. 7): the category agent steers the
entity agent across categories, so CADRL can justify recommendations with
paths longer than three hops, while the single-agent baseline stays myopic.

Run with:  python examples/explainable_paths.py
"""

from repro.baselines import SingleAgentConfig, build_baseline
from repro.darl import CADRL, CADRLConfig
from repro.data import load_dataset, split_interactions
from repro.eval.explanations import (
    explain_recommendations,
    fraction_beyond_three_hops,
    render_path,
)


def main() -> None:
    dataset = load_dataset("beauty", scale=0.5)
    split = split_interactions(dataset, seed=0)

    cadrl_config = CADRLConfig.fast(embedding_dim=32, seed=0)
    cadrl_config.darl.epochs = 6
    cadrl = CADRL(cadrl_config).fit(dataset, split)

    pgpr = build_baseline("PGPR", config=SingleAgentConfig(epochs=3, seed=0), seed=0)
    pgpr.fit(dataset, split)

    all_cadrl_paths = []
    for user_id in range(3):
        print(f"\n=== user {user_id} ===")
        cadrl_paths = cadrl.recommend_paths(user_id, top_k=3)
        all_cadrl_paths.extend(cadrl_paths)
        print("CADRL (dual-agent, guided):")
        for explanation in explain_recommendations(cadrl.graph, cadrl_paths):
            crossed = " -> ".join(explanation.categories_crossed) or "single category"
            print(f"  [{explanation.path_length} hops | {crossed}] {explanation.explanation}")

        print("PGPR (single agent, 3-hop cap):")
        for path in pgpr.find_paths(user_id, 3):
            print(f"  [{path.length} hops] {render_path(pgpr._graph, path)}")

    share = fraction_beyond_three_hops(all_cadrl_paths)
    print(f"\n{100 * share:.1f}% of CADRL's explanation paths are longer than 3 hops "
          f"(PGPR cannot produce any).")


if __name__ == "__main__":
    main()
