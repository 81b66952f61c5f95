"""``KnowledgeGraph.copy`` / ``EntityStore.copy``: structural copies that are
observably the same as ``copy.deepcopy`` and fully independent of their source."""

import copy

import numpy as np
import pytest

from repro.kg import EntityType, Relation
from repro.live import UpdateLog, synthesize_deltas

ARRAYS = ("indptr", "relations", "targets", "degrees", "entity_category", "is_item",
          "triplets")


def _state(graph):
    """Everything observable about ``graph`` short of compiling its CSR view."""
    entities = graph.entities
    return {
        "triplets": list(graph.triplets()),
        "edges": set(graph._edges),
        "outgoing": {e: graph.outgoing(e) for e in range(graph.num_entities)},
        "incoming": {e: graph.incoming(e) for e in range(graph.num_entities)},
        "item_category": graph.item_category_map(),
        "category_names": [graph.category_name(c) for c in range(graph.num_categories)],
        "version": graph.version,
        "dirty": set(graph._dirty_entities),
        "compile_stats": graph.adjacency_compile_stats(),
        "entities": list(entities),
        "by_type": {t: entities.ids_of_type(t) for t in EntityType},
        "by_name": {(e.entity_type, e.name): entities.find(e.entity_type, e.name)
                    for e in entities},
    }


def _arrays(adjacency):
    return {name: np.array(getattr(adjacency, name), copy=True) for name in ARRAYS}


def _assert_arrays_equal(left, right):
    for name in ARRAYS:
        assert left[name].dtype == right[name].dtype, name
        assert np.array_equal(left[name], right[name]), name


@pytest.fixture()
def original(tiny_kg):
    """A private graph with a cached CSR view and a few uncompiled writes."""
    graph = copy.deepcopy(tiny_kg[0])
    graph.adjacency()
    UpdateLog(synthesize_deltas(graph, 6, seed=1)).apply(graph)
    assert graph._dirty_entities
    return graph


class TestCopyEqualsDeepcopy:
    def test_observables_match(self, original):
        deep, structural = copy.deepcopy(original), original.copy()
        assert _state(structural) == _state(deep)
        # Same compiled view after the same lazy patch, same compile stats.
        _assert_arrays_equal(_arrays(structural.adjacency()), _arrays(deep.adjacency()))
        assert structural.adjacency_compile_stats() == deep.adjacency_compile_stats()
        assert _state(structural) == _state(deep)

    def test_records_are_shared_containers_are_not(self, original):
        clone = original.copy()
        assert clone.entities is not original.entities
        assert clone._edges is not original._edges
        assert clone._outgoing[0] is not original._outgoing[0]
        assert next(iter(clone._edges)) is next(iter(original._edges))
        assert clone.entities.get(0) is original.entities.get(0)
        assert clone._adjacency is original._adjacency

    def test_entity_store_copy_is_independent(self, original):
        store = original.entities
        clone = store.copy()
        before = len(store)
        clone.add(EntityType.BRAND, "copy-only brand")
        assert len(store) == before
        assert store.find(EntityType.BRAND, "copy-only brand") is None
        assert clone.ids_of_type(EntityType.BRAND)[-1] == before

    def test_compiled_views_are_read_only(self, original):
        adjacency = original.copy().adjacency()
        for name in ARRAYS:
            with pytest.raises(ValueError):
                getattr(adjacency, name)[0] = 0


class TestCopyIsIndependent:
    def test_mutating_the_copy_leaves_the_original_unchanged(self, original):
        view = original.adjacency()
        before_state, before_arrays = _state(original), _arrays(view)
        clone = original.copy()

        users = clone.entities.ids_of_type(EntityType.USER)
        items = clone.entities.ids_of_type(EntityType.ITEM)
        new_item = clone.entities.add(EntityType.ITEM, "copy-only item").entity_id
        clone.set_item_category(new_item, 0)
        clone.set_item_category(items[0], clone.category_of(items[1]))
        clone.add_triplet(users[0], Relation.PURCHASE, new_item)
        patches = clone.adjacency_compile_stats()["delta_patches"]
        clone.adjacency()                                          # delta patch
        assert clone.adjacency_compile_stats()["delta_patches"] == patches + 1
        for user in users:                                         # full compile
            clone.add_triplet(user, Relation.PURCHASE, new_item)
        compiles = clone.adjacency_compile_stats()["full_compiles"]
        clone.adjacency()
        assert clone.adjacency_compile_stats()["full_compiles"] == compiles + 1
        UpdateLog(synthesize_deltas(clone, 15, seed=8)).apply(clone)
        clone.adjacency()

        assert clone.num_entities > original.num_entities
        assert _state(original) == before_state
        assert original.adjacency() is view
        _assert_arrays_equal(_arrays(view), before_arrays)

    def test_mutating_the_original_leaves_the_copy_unchanged(self, original):
        clone = original.copy()
        before_arrays = _arrays(clone.adjacency())
        before_state = _state(clone)
        UpdateLog(synthesize_deltas(original, 10, seed=5)).apply(original)
        original.adjacency()
        assert _state(clone) == before_state
        _assert_arrays_equal(_arrays(clone.adjacency()), before_arrays)
