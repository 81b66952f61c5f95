"""Knowledge-graph substrate: entities, relations, the KG, ``Gc`` and pruning."""

from .adjacency import CSRAdjacency, compile_adjacency, patch_adjacency
from .builder import KGBuilder, build_knowledge_graph
from .category_graph import CategoryGraph
from .entities import Entity, EntityStore, EntityType
from .graph import KnowledgeGraph, Triplet
from .pruning import (
    category_guided_prune_arrays,
    degree_prune_arrays,
    ensure_self_loop_arrays,
    entity_prune_rng,
)
from .relations import (
    FORWARD_RELATIONS,
    NUM_RELATIONS,
    RELATION_LIST,
    Relation,
    all_relations,
    inverse_of,
    is_inverse,
    relation_from_index,
    relation_index,
    schema_is_valid,
)

__all__ = [
    "CSRAdjacency",
    "CategoryGraph",
    "Entity",
    "EntityStore",
    "EntityType",
    "FORWARD_RELATIONS",
    "KGBuilder",
    "KnowledgeGraph",
    "NUM_RELATIONS",
    "RELATION_LIST",
    "Relation",
    "Triplet",
    "all_relations",
    "build_knowledge_graph",
    "category_guided_prune_arrays",
    "compile_adjacency",
    "degree_prune_arrays",
    "ensure_self_loop_arrays",
    "entity_prune_rng",
    "inverse_of",
    "is_inverse",
    "patch_adjacency",
    "relation_from_index",
    "relation_index",
    "schema_is_valid",
]
