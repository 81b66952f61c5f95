"""Action-space pruning strategies for RL walkers over the KG.

PGPR introduced score-based action pruning to keep the per-step action space
bounded; CADRL keeps a bound on both agents' action spaces (``|Ac| ≤ 10`` and
``|Ae| ≤ 50`` in the paper's hyper-parameter section) and additionally narrows
the entity agent's choices with category guidance.  Both strategies live here
so the baselines and CADRL share the exact same machinery.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .adjacency import SELF_LOOP_INDEX, CSRAdjacency
from .relations import Relation

# An entity-level action is (relation, next_entity).
Action = Tuple[Relation, int]

# An array-backed action set: (relation_index, target_entity) int arrays.
ActionArrays = Tuple[np.ndarray, np.ndarray]


def entity_prune_rng(seed: int, entity_id: int) -> np.random.Generator:
    """Seeded per-entity RNG substream for pruning tie-breaks.

    Deriving the stream from ``(seed, entity_id)`` makes the pruned action set
    of an entity a pure function of the graph and the seed — independent of
    the *order* in which entities are visited — so cached action sets are
    replay-deterministic across runs and across serving processes.
    """
    return np.random.default_rng((seed, entity_id))


# --------------------------------------------------------------------------- #
# vectorised pruning on the compiled CSR view
# --------------------------------------------------------------------------- #
# One slice + one argsort per call instead of a Python loop per neighbour.
# The list-based originals live on in :mod:`repro.perf.reference`, which the
# equivalence tests compare these against action for action (same order,
# same tie-breaking).

def degree_prune_arrays(adjacency: CSRAdjacency, entity_id: int, max_actions: int,
                        rng: Optional[np.random.Generator] = None) -> ActionArrays:
    """Keep the ``max_actions`` neighbours with the highest degree.

    High-degree neighbours are hubs that keep many onward options open; this is
    the cheap structural prior PGPR-style methods use before any scoring model
    is available.  Ties are broken deterministically unless ``rng`` is given.
    """
    relations, targets = adjacency.out_edges(entity_id)
    if len(targets) <= max_actions:
        return relations.copy(), targets.copy()
    scores = adjacency.degrees[targets].astype(np.float64)
    if rng is not None:
        scores = scores + rng.random(len(scores)) * 1e-6
    # Desc by score, ties broken towards the larger index — the sort order of
    # the list implementation's ``(score, index)`` tuples under reverse=True.
    order = np.lexsort((np.arange(len(scores)), scores))[::-1][:max_actions]
    return relations[order], targets[order]


def category_guided_prune_arrays(adjacency: CSRAdjacency, entity_id: int,
                                 max_actions: int,
                                 target_category: Optional[int]) -> ActionArrays:
    """CADRL's guidance-aware pruning.

    Actions leading to items inside ``target_category`` (the category agent's
    current milestone) are kept first; remaining slots are filled by the
    highest-degree alternatives.  With no guidance this degrades gracefully
    to plain degree pruning, which is what the ``CADRL w/o DARL`` ablation
    uses.
    """
    relations, targets = adjacency.out_edges(entity_id)
    if len(targets) <= max_actions:
        return relations.copy(), targets.copy()

    if target_category is None:
        guided_mask = np.zeros(len(targets), dtype=bool)
    else:
        guided_mask = adjacency.entity_category[targets] == target_category
    guided = np.flatnonzero(guided_mask)
    if len(guided) >= max_actions:
        keep = guided[:max_actions]
        return relations[keep], targets[keep]

    rest = np.flatnonzero(~guided_mask)
    # Same np.argsort call on the same negated-degree array as the list
    # implementation, so equal-degree ties resolve identically.
    order = np.argsort(-adjacency.degrees[targets[rest]])
    keep = np.concatenate([guided, rest[order[: max_actions - len(guided)]]])
    return relations[keep], targets[keep]


def ensure_self_loop_arrays(actions: ActionArrays, entity_id: int) -> ActionArrays:
    """Append a self-loop action so the walker can stop early (PGPR convention)."""
    relations, targets = actions
    if not (relations == SELF_LOOP_INDEX).any():
        relations = np.append(relations, np.int32(SELF_LOOP_INDEX))
        targets = np.append(targets, np.int32(entity_id))
    return relations, targets
