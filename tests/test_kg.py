"""Unit tests for the knowledge-graph substrate (entities, relations, graph, Gc, pruning)."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg import (
    CategoryGraph,
    EntityStore,
    EntityType,
    KnowledgeGraph,
    Relation,
    Triplet,
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
from repro.kg.relations import RELATION_SCHEMA


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

    def test_schema_set_matches_the_schema_table(self):
        for head_type in EntityType:
            for relation in Relation:
                for tail_type in EntityType:
                    assert schema_is_valid(head_type, relation, tail_type) == \
                        _table_schema_is_valid(head_type, relation, tail_type)


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


# --------------------------------------------------------------------------- #
# the edge store against the list + set + recursive insertion it replaced
# --------------------------------------------------------------------------- #
def _table_schema_is_valid(head_type, relation, tail_type):
    """The schema check read straight off ``RELATION_SCHEMA``."""
    if relation == Relation.SELF_LOOP:
        return head_type == tail_type
    return RELATION_SCHEMA.get(relation) == (head_type, tail_type)


class ListSetGraph:
    """A ``Triplet`` list, an edge set and a recursive add for the inverse."""

    def __init__(self, entities, validate_schema=True):
        self.entities = entities
        self.validate_schema = validate_schema
        self.triplets = []
        self.edges = set()
        self.outgoing = defaultdict(list)
        self.incoming = defaultdict(list)
        self.version = 0
        self.dirty = set()

    def add_triplet(self, head, relation, tail, add_inverse=True):
        head_entity = self.entities.get(head)
        tail_entity = self.entities.get(tail)
        if self.validate_schema and not _table_schema_is_valid(
                head_entity.entity_type, relation, tail_entity.entity_type):
            raise ValueError(
                f"triplet violates schema: ({head_entity.entity_type.value}, "
                f"{relation.value}, {tail_entity.entity_type.value})")
        key = (head, relation, tail)
        if key in self.edges:
            return False
        self.edges.add(key)
        self.triplets.append(Triplet(head, relation, tail))
        self.outgoing[head].append((relation, tail))
        self.incoming[tail].append((relation, head))
        self.dirty.add(head)
        self.version += 1
        if add_inverse:
            self.add_triplet(tail, inverse_of(relation), head, add_inverse=False)
        return True


def walk_category_graph(graph):
    """Gc's adjacency and edge relations from a walk of ``graph.triplets()``
    plus every brand and feature entity's outgoing row."""
    adjacency, relations = defaultdict(set), defaultdict(set)

    def connect(source, target, relation):
        adjacency[source].add(target)
        adjacency[target].add(source)
        relations[(source, target)].add(relation)
        relations[(target, source)].add(relation)

    item_category = graph.item_category_map()
    for triplet in graph.triplets():
        if triplet.head in item_category and triplet.tail in item_category:
            connect(item_category[triplet.head], item_category[triplet.tail],
                    triplet.relation)
    for attribute_type in (EntityType.BRAND, EntityType.FEATURE):
        for attribute in graph.entities.ids_of_type(attribute_type):
            linked = {item_category[tail] for _, tail in graph.outgoing(attribute)
                      if tail in item_category}
            for source in linked:
                for target in linked:
                    connect(source, target, Relation.SELF_LOOP if source == target
                            else Relation.ALSO_VIEWED)
    return dict(adjacency), dict(relations)


def assert_category_graph_matches_walk(graph):
    category_graph = CategoryGraph.from_knowledge_graph(graph)
    adjacency, relations = walk_category_graph(graph)
    assert dict(category_graph._adjacency) == adjacency
    assert dict(category_graph._edge_relations) == relations


_TYPES = (EntityType.USER, EntityType.ITEM, EntityType.BRAND, EntityType.FEATURE)
_PER_TYPE = 3
_NUM_ENTITIES = len(_TYPES) * _PER_TYPE

#: One ``add_triplet`` call, decoded against the calls before it: ``new``
#: takes the ids as drawn (unknown ids and schema violations included),
#: ``typed`` picks entities the relation's schema allows, ``again`` repeats
#: an earlier call, ``inverse`` adds an earlier edge's inverse explicitly and
#: ``self`` makes a self-loop.
_CALLS = st.lists(st.tuples(
    st.sampled_from(["new", "typed", "typed", "again", "inverse", "self"]),
    st.integers(-1, _NUM_ENTITIES),
    st.sampled_from(list(Relation)),
    st.integers(-1, _NUM_ENTITIES),
    st.booleans(),
    st.integers(0, 1000)), max_size=40)


def _entity_store():
    store = EntityStore()
    for entity_type in _TYPES:
        for index in range(_PER_TYPE):
            store.add(entity_type, f"{entity_type.value}{index}")
    return store


def _decode(calls, store):
    made = []
    for kind, head, relation, tail, add_inverse, pick in calls:
        if kind == "typed":
            head_type, tail_type = RELATION_SCHEMA.get(
                relation, (EntityType.ITEM, EntityType.ITEM))
            head = store.ids_of_type(head_type)[pick % _PER_TYPE]
            tail = store.ids_of_type(tail_type)[(pick // _PER_TYPE) % _PER_TYPE]
        elif kind in ("again", "inverse") and made:
            head, relation, tail, add_inverse = made[pick % len(made)]
            if kind == "inverse":
                head, relation, tail = tail, inverse_of(relation), head
        elif kind == "self":
            tail = head
        made.append((head, relation, tail, add_inverse))
    return made


def _outcome(graph, call):
    head, relation, tail, add_inverse = call
    try:
        return graph.add_triplet(head, relation, tail, add_inverse=add_inverse)
    except (KeyError, ValueError) as error:
        return type(error), str(error)


def _observables(graph):
    """What a caller can see of a graph's edges, per entity and in total."""
    entities = range(graph.num_entities)
    return {"triplets": list(graph.triplets()), "version": graph.version,
            "dirty": set(graph._dirty_entities),
            "outgoing": [graph.outgoing(e) for e in entities],
            "incoming": [graph.incoming(e) for e in entities],
            "interactions": graph.statistics()["interactions"]}


class TestEdgeStoreEquivalence:
    @given(calls=_CALLS, validate=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_insertion_matches_list_set_recursion(self, calls, validate):
        store = _entity_store()
        graph = KnowledgeGraph(store, validate_schema=validate)
        reference = ListSetGraph(store, validate_schema=validate)
        for call in _decode(calls, store):
            assert _outcome(graph, call) == _outcome(reference, call)
            assert graph.version == reference.version
        assert list(graph.triplets()) == reference.triplets
        assert graph.num_triplets == len(reference.triplets)
        assert graph._dirty_entities == reference.dirty
        for entity in range(len(store)):
            assert graph.outgoing(entity) == reference.outgoing.get(entity, [])
            assert graph.incoming(entity) == reference.incoming.get(entity, [])
        for head, relation, tail in reference.edges:
            assert graph.has_edge(head, relation, tail)
            assert graph.has_edge(tail, relation, head) == \
                ((tail, relation, head) in reference.edges)
        interactions = sum(t.relation == Relation.PURCHASE for t in reference.triplets)
        assert graph.statistics()["interactions"] == interactions
        assert graph.statistics()["triplets"] == len(reference.triplets)

    @pytest.mark.parametrize("validate", [True, False])
    def test_unknown_ids_raise_like_the_reference(self, validate):
        store = _entity_store()
        graph = KnowledgeGraph(store, validate_schema=validate)
        reference = ListSetGraph(store, validate_schema=validate)
        for head, tail in ((-1, _NUM_ENTITIES), (_NUM_ENTITIES, -1), (0, -1), (-1, 0)):
            call = (head, Relation.ALSO_BOUGHT, tail, True)
            assert _outcome(graph, call) == _outcome(reference, call)
            assert _outcome(graph, call)[0] is KeyError

    @given(calls=_CALLS, split=st.integers(0, 40), validate=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_bulk_insertion_matches_list_set_recursion(self, calls, split, validate):
        """``add_triplets`` after ``split`` single adds: a table with a bad row
        raises the reference's error for its first bad row and changes
        nothing; the good rows then match the reference adding them one by
        one with their inverses."""
        store = _entity_store()
        graph = KnowledgeGraph(store, validate_schema=validate)
        reference = ListSetGraph(store, validate_schema=validate)
        decoded = _decode(calls, store)
        for call in decoded[:split]:
            assert _outcome(graph, call) == _outcome(reference, call)
        rows = [(head, relation, tail) for head, relation, tail, _ in decoded[split:]]
        # A row's error depends on its ids and types only, not on the graph.
        errors = [_outcome(ListSetGraph(store, validate_schema=validate), (*row, True))
                  for row in rows]
        bad = [error for error in errors if error is not True]
        if bad:
            before = _observables(graph)
            with pytest.raises(bad[0][0]) as raised:
                graph.add_triplets(rows)
            assert str(raised.value) == bad[0][1]
            assert _observables(graph) == before
        good = [row for row, error in zip(rows, errors) if error is True]
        graph.add_triplets(good)
        for row in good:
            _outcome(reference, (*row, True))
        assert _observables(graph) == {
            "triplets": reference.triplets,
            "version": reference.version,
            "dirty": reference.dirty,
            "outgoing": [reference.outgoing.get(e, []) for e in range(len(store))],
            "incoming": [reference.incoming.get(e, []) for e in range(len(store))],
            "interactions": sum(t.relation == Relation.PURCHASE for t in reference.triplets),
        }
        assert all(graph.has_edge(*edge) for edge in reference.edges)

    def test_bulk_insertion_checks_every_row_before_inserting(self, small_graph):
        graph, _, (user, item0, item1, _, brand, feature) = small_graph
        before = _observables(graph)
        good = (item1.entity_id, Relation.DESCRIBED_BY, feature.entity_id)
        with pytest.raises(ValueError, match=r"triplet violates schema: "
                                             r"\(user, produced_by, brand\)"):
            graph.add_triplets([good, (user.entity_id, Relation.PRODUCED_BY, brand.entity_id),
                                (item0.entity_id, Relation.ALSO_BOUGHT, 99)])
        with pytest.raises(KeyError, match="unknown entity id 99"):
            graph.add_triplets([good, (item0.entity_id, Relation.ALSO_BOUGHT, 99),
                                (user.entity_id, Relation.PRODUCED_BY, brand.entity_id)])
        assert _observables(graph) == before

    @given(calls=_CALLS, categories=st.lists(st.integers(0, 2), min_size=_PER_TYPE,
                                             max_size=_PER_TYPE))
    @settings(max_examples=60, deadline=None)
    def test_category_graph_matches_walk(self, calls, categories):
        store = _entity_store()
        graph = KnowledgeGraph(store)
        for call in _decode(calls, store):
            _outcome(graph, call)
        for item, category in zip(store.ids_of_type(EntityType.ITEM), categories):
            graph.set_item_category(item, category)
        assert_category_graph_matches_walk(graph)

    def test_category_graph_matches_walk_on_the_tiny_graph(self, tiny_kg):
        assert_category_graph_matches_walk(tiny_kg[0])

    def test_category_graph_rejects_an_unnamed_category(self, small_graph):
        graph, _, (_, _, item1, *_rest) = small_graph
        graph.set_item_category(item1.entity_id, 2)  # only two names are set
        with pytest.raises(ValueError, match="category id out of range"):
            CategoryGraph.from_knowledge_graph(graph)
