"""Category-guided search: look inside the dual-agent machinery.

Shows the three ingredients of DARL on a trained model:
(1) the category agent's milestone trajectory over the category graph Gc,
(2) how the milestone narrows the entity agent's action space
    (the |E| -> |E|/|C| reduction behind the efficiency claim), and
(3) the collaborative rewards exchanged between the agents during an episode.

Run with:  python examples/category_guided_search.py
"""

import numpy as np

from repro.darl import CADRL, CADRLConfig, DARLTrainer
from repro.data import load_dataset, split_interactions


def main() -> None:
    dataset = load_dataset("cellphones", scale=0.5)
    split = split_interactions(dataset, seed=0)
    config = CADRLConfig.fast(embedding_dim=32, seed=0)
    config.darl.epochs = 6
    model = CADRL(config).fit(dataset, split)

    graph = model.graph
    recommender = model.recommender
    user_entity = model.builder.user_to_entity(0)

    # (1) the category agent's milestone trajectory
    milestones = recommender.category_milestones(user_entity)
    names = [graph.category_name(c) if c is not None else "-" for c in milestones]
    print("category-agent milestones:", " -> ".join(names))

    # (2) action-space reduction from category guidance
    state = recommender.entity_environment.initial_state(user_entity)
    purchased = graph.purchased_items(user_entity)
    if purchased:
        state.current_entity = purchased[0]
    unguided = recommender.entity_environment.actions(state, target_category=None)
    guided = recommender.entity_environment.actions(state, target_category=milestones[0])
    in_target = sum(1 for _, target in guided
                    if graph.category_of(target) == milestones[0])
    print(f"\nentity actions at '{graph.entities.get(state.current_entity).name}':")
    print(f"  unguided candidates: {len(unguided)}")
    print(f"  guided candidates:   {len(guided)} "
          f"({in_target} inside milestone '{graph.category_name(milestones[0])}')")

    # (3) rewards exchanged during one training-style episode, replayed by a
    #     trainer over the model's graph, representations and trained policy
    trainer = DARLTrainer(graph, model.category_graph, model.representations, config.darl)
    trainer.policy.load_state_dict(model.policy.state_dict())
    positives = set(graph.purchased_items(user_entity))
    episode, _ = trainer._run_training_episode(user_entity, positives)
    print("\none dual-agent episode:")
    print("  entity path:   ", " -> ".join(
        graph.entities.get(entity).name for _, entity in episode.entity_path()))
    print("  category path: ", " -> ".join(
        graph.category_name(c) for c in episode.category_path()))
    print("  entity rewards (terminal + guidance R^pc): ",
          np.round([step.reward for step in episode.entity_steps], 3).tolist())
    print("  category rewards (terminal + consistency R^pe):",
          np.round([step.reward for step in episode.category_steps], 3).tolist())


if __name__ == "__main__":
    main()
