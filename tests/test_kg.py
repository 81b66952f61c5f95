"""Unit tests for the knowledge-graph substrate (entities, relations, graph, Gc, pruning)."""

import pytest

from repro.kg import (
    CategoryGraph,
    EntityStore,
    EntityType,
    KnowledgeGraph,
    Relation,
    all_relations,
    category_guided_prune_arrays,
    degree_prune_arrays,
    ensure_self_loop_arrays,
    inverse_of,
    is_inverse,
    relation_from_index,
    relation_index,
    schema_is_valid,
)


def as_actions(arrays):
    """``(relation_index, target)`` arrays as a ``[(Relation, target)]`` list."""
    relations, targets = arrays
    return [(relation_from_index(r), t) for r, t in zip(relations.tolist(), targets.tolist())]


@pytest.fixture()
def small_graph():
    """user0 -purchase-> item0 -also_bought-> item1 -produced_by-> brand0."""
    store = EntityStore()
    user = store.add(EntityType.USER, "user0")
    item0 = store.add(EntityType.ITEM, "item0")
    item1 = store.add(EntityType.ITEM, "item1")
    item2 = store.add(EntityType.ITEM, "item2")
    brand = store.add(EntityType.BRAND, "brand0")
    feature = store.add(EntityType.FEATURE, "feature0")
    graph = KnowledgeGraph(store)
    graph.add_triplet(user.entity_id, Relation.PURCHASE, item0.entity_id)
    graph.add_triplet(item0.entity_id, Relation.ALSO_BOUGHT, item1.entity_id)
    graph.add_triplet(item1.entity_id, Relation.PRODUCED_BY, brand.entity_id)
    graph.add_triplet(item2.entity_id, Relation.DESCRIBED_BY, feature.entity_id)
    graph.set_item_category(item0.entity_id, 0)
    graph.set_item_category(item1.entity_id, 1)
    graph.set_item_category(item2.entity_id, 1)
    graph.set_category_names(["cat_a", "cat_b"])
    return graph, store, (user, item0, item1, item2, brand, feature)


class TestEntityStore:
    def test_add_assigns_sequential_ids(self):
        store = EntityStore()
        first = store.add(EntityType.USER, "u0")
        second = store.add(EntityType.ITEM, "i0")
        assert (first.entity_id, second.entity_id) == (0, 1)

    def test_add_is_idempotent(self):
        store = EntityStore()
        first = store.add(EntityType.ITEM, "i0")
        again = store.add(EntityType.ITEM, "i0")
        assert first.entity_id == again.entity_id
        assert len(store) == 1

    def test_local_ids_are_per_type(self):
        store = EntityStore()
        store.add(EntityType.USER, "u0")
        item = store.add(EntityType.ITEM, "i0")
        assert item.local_id == 0

    def test_find_and_get(self):
        store = EntityStore()
        item = store.add(EntityType.ITEM, "i0")
        assert store.find(EntityType.ITEM, "i0").entity_id == item.entity_id
        assert store.find(EntityType.ITEM, "missing") is None
        assert store.get(item.entity_id).name == "i0"

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            EntityStore().get(0)

    def test_ids_of_type_and_count(self):
        store = EntityStore()
        store.add(EntityType.ITEM, "a")
        store.add(EntityType.ITEM, "b")
        store.add(EntityType.USER, "u")
        assert store.count(EntityType.ITEM) == 2
        assert len(store.ids_of_type(EntityType.USER)) == 1

    def test_type_predicates(self):
        store = EntityStore()
        item = store.add(EntityType.ITEM, "a")
        user = store.add(EntityType.USER, "u")
        assert store.is_item(item.entity_id)
        assert store.is_user(user.entity_id)
        assert not store.is_item(user.entity_id)

    def test_contains_and_iteration(self):
        store = EntityStore()
        store.add(EntityType.BRAND, "b")
        assert 0 in store
        assert 5 not in store
        assert [entity.name for entity in store] == ["b"]


class TestRelations:
    def test_each_forward_relation_has_inverse(self):
        forwards = [r for r in all_relations()
                    if not is_inverse(r) and r != Relation.SELF_LOOP]
        assert len(forwards) == 7
        for relation in forwards:
            assert is_inverse(inverse_of(relation))
            assert inverse_of(inverse_of(relation)) == relation

    def test_self_loop_is_its_own_inverse(self):
        assert inverse_of(Relation.SELF_LOOP) == Relation.SELF_LOOP

    def test_relation_count_matches_paper(self):
        # 7 forward + 7 inverse + self-loop
        assert len(all_relations()) == 15

    def test_relation_index_is_stable_and_unique(self):
        indices = [relation_index(relation) for relation in all_relations()]
        assert len(set(indices)) == len(indices)

    def test_schema_validation(self):
        assert schema_is_valid(EntityType.USER, Relation.PURCHASE, EntityType.ITEM)
        assert not schema_is_valid(EntityType.ITEM, Relation.PURCHASE, EntityType.ITEM)
        assert schema_is_valid(EntityType.ITEM, Relation.REV_PURCHASE, EntityType.USER)
        assert schema_is_valid(EntityType.ITEM, Relation.SELF_LOOP, EntityType.ITEM)
        assert not schema_is_valid(EntityType.ITEM, Relation.SELF_LOOP, EntityType.USER)


class TestKnowledgeGraph:
    def test_add_triplet_creates_inverse(self, small_graph):
        graph, _, (user, item0, *_rest) = small_graph
        assert graph.has_edge(user.entity_id, Relation.PURCHASE, item0.entity_id)
        assert graph.has_edge(item0.entity_id, Relation.REV_PURCHASE, user.entity_id)

    def test_duplicate_edge_is_ignored(self, small_graph):
        graph, _, (user, item0, *_rest) = small_graph
        before = graph.num_triplets
        assert graph.add_triplet(user.entity_id, Relation.PURCHASE, item0.entity_id) is False
        assert graph.num_triplets == before

    def test_schema_violation_raises(self, small_graph):
        graph, _, (user, item0, *_rest) = small_graph
        with pytest.raises(ValueError):
            graph.add_triplet(item0.entity_id, Relation.PURCHASE, user.entity_id)

    def test_neighbors_and_degree(self, small_graph):
        graph, _, (_, item0, item1, *_rest) = small_graph
        neighbors = dict(graph.neighbors(item0.entity_id))
        assert item1.entity_id in neighbors.values()
        assert graph.degree(item0.entity_id) == len(graph.outgoing(item0.entity_id))

    def test_neighbors_of_type(self, small_graph):
        graph, _, (_, item0, item1, *_rest) = small_graph
        item_neighbors = graph.neighbors_of_type(item0.entity_id, EntityType.ITEM)
        assert all(graph.entities.is_item(tail) for _, tail in item_neighbors)

    def test_purchased_items(self, small_graph):
        graph, _, (user, item0, *_rest) = small_graph
        assert graph.purchased_items(user.entity_id) == [item0.entity_id]

    def test_category_assignment_and_lookup(self, small_graph):
        graph, _, (_, item0, item1, item2, brand, _) = small_graph
        assert graph.category_of(item0.entity_id) == 0
        assert graph.category_of(brand.entity_id) is None
        assert graph.category_name(1) == "cat_b"
        assert set(graph.items_in_category(1)) == {item1.entity_id, item2.entity_id}

    def test_set_category_rejects_non_items(self, small_graph):
        graph, _, (user, *_rest) = small_graph
        with pytest.raises(ValueError):
            graph.set_item_category(user.entity_id, 0)

    def test_neighbor_categories_include_own(self, small_graph):
        graph, _, (_, item0, item1, *_rest) = small_graph
        categories = graph.neighbor_categories(item0.entity_id)
        assert categories[0] == 0
        assert 1 in categories

    def test_statistics_counts(self, small_graph):
        graph, _, _ = small_graph
        stats = graph.statistics()
        assert stats["users"] == 1
        assert stats["items"] == 3
        assert stats["interactions"] == 1
        assert stats["categories"] == 2
        assert stats["triplets"] == graph.num_triplets

    def test_average_items_per_category(self, small_graph):
        graph, _, _ = small_graph
        assert graph.average_items_per_category() == pytest.approx(1.5)


class TestCategoryGraph:
    def test_from_knowledge_graph_connects_linked_categories(self, small_graph):
        graph, _, _ = small_graph
        category_graph = CategoryGraph.from_knowledge_graph(graph)
        assert category_graph.are_connected(0, 1)

    def test_actions_include_self_loop(self, small_graph):
        graph, _, _ = small_graph
        category_graph = CategoryGraph.from_knowledge_graph(graph)
        actions = category_graph.actions(0)
        assert actions[0] == 0

    def test_degree_and_density(self):
        category_graph = CategoryGraph(3)
        category_graph.add_edge(0, 1, Relation.ALSO_BOUGHT)
        assert category_graph.degree(0) == 1
        assert 0.0 < category_graph.density() <= 1.0

    def test_out_of_range_edge_rejected(self):
        category_graph = CategoryGraph(2)
        with pytest.raises(ValueError):
            category_graph.add_edge(0, 5, Relation.ALSO_BOUGHT)

    def test_shortest_distance(self):
        category_graph = CategoryGraph(4)
        category_graph.add_edge(0, 1, Relation.ALSO_BOUGHT)
        category_graph.add_edge(1, 2, Relation.ALSO_BOUGHT)
        assert category_graph.shortest_distance(0, 0) == 0
        assert category_graph.shortest_distance(0, 2) == 2
        assert category_graph.shortest_distance(0, 3) is None
        assert category_graph.shortest_distance(0, 2, max_depth=1) is None

    def test_relations_between(self):
        category_graph = CategoryGraph(2)
        category_graph.add_edge(0, 1, Relation.BOUGHT_TOGETHER)
        assert Relation.BOUGHT_TOGETHER in category_graph.relations_between(0, 1)


class TestPruning:
    def test_degree_prune_keeps_high_degree_neighbors(self, tiny_kg):
        graph, _, builder = tiny_kg
        user = builder.user_to_entity(0)
        full = graph.outgoing(user)
        pruned = as_actions(degree_prune_arrays(graph.adjacency(), user, max_actions=2))
        assert len(pruned) <= 2
        assert set(pruned) <= set(full)

    def test_degree_prune_returns_all_when_under_limit(self, small_graph):
        graph, _, (_, item0, *_rest) = small_graph
        pruned = degree_prune_arrays(graph.adjacency(), item0.entity_id, 100)
        assert as_actions(pruned) == graph.outgoing(item0.entity_id)

    def test_category_guided_prune_prioritises_target_category(self, tiny_kg):
        graph, _, builder = tiny_kg
        item = builder.item_to_entity(0)
        neighbors = graph.outgoing(item)
        categories = {graph.category_of(t) for _, t in neighbors if graph.category_of(t) is not None}
        if categories:
            target = next(iter(categories))
            pruned = as_actions(category_guided_prune_arrays(graph.adjacency(), item, 3,
                                                             target))
            in_target = [a for a in pruned if graph.category_of(a[1]) == target]
            assert len(in_target) >= 1

    def test_ensure_self_loop_appends_once(self, small_graph):
        graph, _, (_, item0, *_rest) = small_graph
        arrays = graph.adjacency().out_edges(item0.entity_id)
        actions = as_actions(ensure_self_loop_arrays(arrays, item0.entity_id))
        loops = [a for a in actions if a[0] == Relation.SELF_LOOP]
        assert len(loops) == 1
        again = ensure_self_loop_arrays(ensure_self_loop_arrays(arrays, item0.entity_id),
                                        item0.entity_id)
        assert as_actions(again) == actions


class TestBuilder:
    def test_builder_registers_all_entity_types(self, tiny_kg, tiny_dataset):
        graph, _, _ = tiny_kg
        assert graph.entities.count(EntityType.USER) == tiny_dataset.num_users
        assert graph.entities.count(EntityType.ITEM) == tiny_dataset.num_items
        assert graph.entities.count(EntityType.BRAND) == tiny_dataset.num_brands
        assert graph.entities.count(EntityType.FEATURE) == tiny_dataset.num_features

    def test_purchase_edges_match_training_split(self, tiny_kg, tiny_split):
        graph, _, builder = tiny_kg
        train_pairs = {(i.user_id, i.item_id) for i in tiny_split.train}
        kg_pairs = set()
        for triplet in graph.triplets():
            if triplet.relation == Relation.PURCHASE:
                kg_pairs.add((graph.entities.get(triplet.head).local_id,
                              builder.entity_to_item(triplet.tail)))
        assert kg_pairs == train_pairs

    def test_item_to_entity_roundtrip(self, tiny_kg, tiny_dataset):
        _, _, builder = tiny_kg
        for item_id in range(0, tiny_dataset.num_items, 7):
            assert builder.entity_to_item(builder.item_to_entity(item_id)) == item_id

    def test_every_item_has_a_category(self, tiny_kg, tiny_dataset):
        graph, _, builder = tiny_kg
        for item_id in range(tiny_dataset.num_items):
            assert graph.category_of(builder.item_to_entity(item_id)) is not None

    def test_category_graph_size_matches_dataset(self, tiny_kg, tiny_dataset):
        _, category_graph, _ = tiny_kg
        assert category_graph.num_categories == tiny_dataset.num_categories

    def test_test_items_not_in_graph(self, tiny_kg, tiny_split):
        graph, _, builder = tiny_kg
        for interaction in tiny_split.test[:20]:
            user = builder.user_to_entity(interaction.user_id)
            item = builder.item_to_entity(interaction.item_id)
            assert not graph.has_edge(user, Relation.PURCHASE, item)
