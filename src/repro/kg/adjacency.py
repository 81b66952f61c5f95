"""Compiled CSR view of a :class:`~repro.kg.graph.KnowledgeGraph`.

The dict-of-lists adjacency of :class:`KnowledgeGraph` is ideal for
construction but slow to *walk*: every neighbour enumeration allocates a list
of ``(Relation, int)`` tuples and every degree/category lookup is a dict hit.
The RL hot paths (action pruning, beam search, TransE pre-training) touch
millions of edges per second, so this module flattens the graph once into
contiguous ``int32`` arrays — the classic compressed-sparse-row layout — and
every hot query becomes an array slice or gather:

* ``indptr[e] : indptr[e + 1]`` delimits entity ``e``'s outgoing edges;
* ``relations`` / ``targets`` hold the relation index and target entity of
  each edge, in exactly the insertion order of the source graph (so pruning
  on the CSR view reproduces the list-based results bit for bit);
* ``degrees``, ``entity_category`` (``-1`` when unassigned) and ``is_item``
  answer the per-entity queries of the walkers without touching Python dicts;
* ``triplets`` is the ``(num_edges, 3)`` ``[head, relation, tail]`` table the
  TransE trainer consumes directly.

Compilation is cheap and cached on the graph via
:meth:`KnowledgeGraph.adjacency`: the triplet table is read off the graph's
insertion-ordered edge store in bulk, and one stable sort of its head column
groups the edges into rows without reordering any row.  Any mutation of the
graph bumps its version counter and invalidates the cached view.

For *streaming* updates a full recompile is wasteful: a burst of new
interactions touches a handful of entity rows while the rest of the CSR arrays
is unchanged.  :func:`patch_adjacency` therefore delta-rebuilds only the dirty
rows — clean row spans are bulk-copied from the previous view, the append-only
triplet table is extended in place, and the result is element-identical to a
full :func:`compile_adjacency` (the full compile is the equivalence oracle
for the property suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import TYPE_CHECKING, Tuple

import numpy as np

from .entities import EntityType
from .relations import Relation, relation_index

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .graph import KnowledgeGraph

#: Embedding-table row of the self-loop relation, shared by the array walkers.
SELF_LOOP_INDEX: int = relation_index(Relation.SELF_LOOP)


@dataclass(frozen=True)
class CSRAdjacency:
    """Frozen array-backed adjacency + per-entity metadata of one KG snapshot."""

    indptr: np.ndarray           # int32, shape (num_entities + 1,)
    relations: np.ndarray        # int32, shape (num_edges,) — relation_index per edge
    targets: np.ndarray          # int32, shape (num_edges,) — target entity per edge
    degrees: np.ndarray          # int32, shape (num_entities,) — out-degree
    entity_category: np.ndarray  # int32, shape (num_entities,) — category id, -1 if none
    is_item: np.ndarray          # bool,  shape (num_entities,)
    triplets: np.ndarray         # int64, shape (num_edges, 3) — [head, rel_idx, tail]

    def __post_init__(self) -> None:
        # A view is shared between a graph and its copies (and read by every
        # walker), so its arrays are frozen: in-place writes raise.
        for array in (self.indptr, self.relations, self.targets, self.degrees,
                      self.entity_category, self.is_item, self.triplets):
            array.flags.writeable = False

    @property
    def num_entities(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.targets)

    def out_edges(self, entity_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(relation_indices, targets)`` views of an entity's outgoing edges."""
        start, stop = self.indptr[entity_id], self.indptr[entity_id + 1]
        return self.relations[start:stop], self.targets[start:stop]

    def degree(self, entity_id: int) -> int:
        return int(self.degrees[entity_id])


def compile_adjacency(graph: "KnowledgeGraph") -> CSRAdjacency:
    """Flatten ``graph`` into a :class:`CSRAdjacency` with whole-array passes.

    Edge order within each entity matches ``graph.outgoing(entity)`` exactly,
    which is what lets the vectorised pruning return identical action sets to
    the list-based implementation: both are the graph's insertion order
    restricted to one head, and a stable sort by head keeps it.
    """
    num_entities = graph.num_entities
    # The triplet table preserves *global* insertion order (the order of
    # ``graph.triplets()``): the TransE trainer permutes row indices, so the
    # row order is part of the reproducible training trajectory.
    triplets = _edge_rows(graph)
    heads = triplets[:, 0]
    indptr = np.zeros(num_entities + 1, dtype=np.int32)
    np.cumsum(np.bincount(heads, minlength=num_entities), out=indptr[1:])
    by_head = np.argsort(heads, kind="stable")

    entity_category = np.full(num_entities, -1, dtype=np.int32)
    item_category = graph._item_category
    entity_category[np.fromiter(item_category, np.int64, len(item_category))] = \
        np.fromiter(item_category.values(), np.int64, len(item_category))
    is_item = np.zeros(num_entities, dtype=bool)
    is_item[np.array(graph.entities.ids_of_type(EntityType.ITEM), dtype=np.int64)] = True

    return CSRAdjacency(indptr=indptr,
                        relations=triplets[by_head, 1].astype(np.int32),
                        targets=triplets[by_head, 2].astype(np.int32),
                        degrees=np.diff(indptr).astype(np.int32),
                        entity_category=entity_category, is_item=is_item,
                        triplets=triplets)


def _edge_rows(graph: "KnowledgeGraph", start: int = 0) -> np.ndarray:
    """``[head, relation_index, tail]`` rows of the graph's edges from ``start`` on.

    Rows follow insertion order, so ``_edge_rows(graph)`` is the compiled
    triplet table and ``_edge_rows(graph, n)`` is what was appended after
    its first ``n`` rows.
    """
    edges = graph._edges
    count = len(edges) - start
    rows = np.empty((count, 3), dtype=np.int64)
    rows[:, 0] = np.fromiter(map(itemgetter(0), islice(edges, start, None)), np.int64, count)
    rows[:, 1] = np.fromiter(islice(edges.values(), start, None), np.int64, count)
    rows[:, 2] = np.fromiter(map(itemgetter(2), islice(edges, start, None)), np.int64, count)
    return rows


def patch_adjacency(old: CSRAdjacency, graph: "KnowledgeGraph",
                    dirty_entities: "set") -> CSRAdjacency:
    """Delta-rebuild ``old`` into the current state of ``graph``.

    ``dirty_entities`` must contain every entity whose outgoing row or
    category assignment changed since ``old`` was compiled (the graph tracks
    this set itself — see ``KnowledgeGraph._dirty_entities``).  Entities added
    after the compile are implicitly dirty: they have no row in ``old`` and
    are rebuilt by id range.  The graph history must be append-only (edges and
    entities are never deleted anywhere in this repository), which is what
    makes the previous triplet table and every clean row reusable verbatim.

    The result is element-identical to ``compile_adjacency(graph)``: dirty
    rows are rebuilt from the dict-of-lists source of truth in insertion
    order, clean row spans between consecutive dirty entities are copied as
    single array slices, and the new triplet rows are read off the graph's
    edge store in global insertion order.
    """
    num_entities = graph.num_entities
    old_entities = old.num_entities
    total_edges = graph.num_triplets
    if num_entities < old_entities or total_edges < old.num_edges:
        raise ValueError("patch_adjacency requires an append-only graph history")
    outgoing = graph._outgoing
    dirty = sorted(entity for entity in dirty_entities if entity < old_entities)

    counts = np.zeros(num_entities, dtype=np.int64)
    counts[:old_entities] = old.degrees
    for entity_id in dirty:
        counts[entity_id] = len(outgoing.get(entity_id, ()))
    for entity_id in range(old_entities, num_entities):
        counts[entity_id] = len(outgoing.get(entity_id, ()))
    indptr = np.zeros(num_entities + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    num_edges = int(indptr[-1])
    if num_edges != total_edges:
        raise ValueError("dirty-entity set is incomplete: edge totals disagree "
                         f"({num_edges} CSR edges vs {total_edges} triplets)")

    relations = np.zeros(num_edges, dtype=np.int32)
    targets = np.zeros(num_edges, dtype=np.int32)

    def rebuild_row(entity_id: int) -> None:
        start = indptr[entity_id]
        for offset, (relation, target) in enumerate(outgoing.get(entity_id, ())):
            relations[start + offset] = relation_index(relation)
            targets[start + offset] = target

    def copy_span(first: int, stop: int) -> None:
        """Bulk-copy the clean rows ``first .. stop`` (old-entity ids)."""
        old_lo, old_hi = old.indptr[first], old.indptr[stop]
        new_lo = indptr[first]
        relations[new_lo:new_lo + (old_hi - old_lo)] = old.relations[old_lo:old_hi]
        targets[new_lo:new_lo + (old_hi - old_lo)] = old.targets[old_lo:old_hi]

    previous = 0
    for entity_id in dirty:
        if entity_id > previous:
            copy_span(previous, entity_id)
        rebuild_row(entity_id)
        previous = entity_id + 1
    if previous < old_entities:
        copy_span(previous, old_entities)
    for entity_id in range(old_entities, num_entities):
        rebuild_row(entity_id)

    entity_category = np.full(num_entities, -1, dtype=np.int32)
    entity_category[:old_entities] = old.entity_category
    is_item = np.zeros(num_entities, dtype=bool)
    is_item[:old_entities] = old.is_item
    item_category = graph._item_category
    for entity_id in dirty:
        category = item_category.get(entity_id)
        entity_category[entity_id] = -1 if category is None else category
    for entity_id in range(old_entities, num_entities):
        category = item_category.get(entity_id)
        entity_category[entity_id] = -1 if category is None else category
        is_item[entity_id] = graph.entities.is_item(entity_id)

    triplets = np.empty((num_edges, 3), dtype=np.int64)
    triplets[:old.num_edges] = old.triplets
    triplets[old.num_edges:] = _edge_rows(graph, old.num_edges)

    return CSRAdjacency(indptr=indptr, relations=relations, targets=targets,
                        degrees=np.diff(indptr).astype(np.int32),
                        entity_category=entity_category, is_item=is_item,
                        triplets=triplets)
