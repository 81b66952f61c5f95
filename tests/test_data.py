"""Unit tests for the dataset substrate (schema, generator, presets, splits, I/O)."""


import pytest

from repro.data import (
    DATASET_NAMES,
    Interaction,
    InteractionDataset,
    ItemRelation,
    Product,
    SyntheticConfig,
    available_datasets,
    dataset_statistics,
    generate,
    load_dataset,
    load_dataset_from_directory,
    preset_config,
    save_dataset,
    split_interactions,
    train_user_items,
)
from repro.data.splits import test_user_items as held_out_items


class TestSchema:
    def test_dataset_counts(self, tiny_dataset):
        assert tiny_dataset.num_items == len(tiny_dataset.products)
        assert tiny_dataset.num_interactions == len(tiny_dataset.interactions)

    def test_user_histories_cover_all_users(self, tiny_dataset):
        histories = tiny_dataset.user_histories()
        assert set(histories) == set(range(tiny_dataset.num_users))

    def test_validate_accepts_generated_dataset(self, tiny_dataset):
        tiny_dataset.validate()

    def test_validate_rejects_dangling_brand(self):
        dataset = InteractionDataset(
            name="bad", num_users=1,
            products=[Product(0, "p", brand_id=5, category_id=0)],
            interactions=[], item_relations=[],
            brand_names=["b"], feature_names=[], category_names=["c"])
        with pytest.raises(ValueError):
            dataset.validate()

    def test_validate_rejects_unknown_item_relation(self):
        dataset = InteractionDataset(
            name="bad", num_users=1,
            products=[Product(0, "p", brand_id=0, category_id=0)],
            interactions=[],
            item_relations=[ItemRelation(0, 0, "weird")],
            brand_names=["b"], feature_names=[], category_names=["c"])
        with pytest.raises(ValueError):
            dataset.validate()

    def test_validate_rejects_unknown_interaction_user(self):
        dataset = InteractionDataset(
            name="bad", num_users=1,
            products=[Product(0, "p", brand_id=0, category_id=0)],
            interactions=[Interaction(user_id=5, item_id=0)],
            item_relations=[],
            brand_names=["b"], feature_names=[], category_names=["c"])
        with pytest.raises(ValueError):
            dataset.validate()


class TestSyntheticGenerator:
    def test_generation_is_deterministic_per_seed(self):
        config = SyntheticConfig(num_users=20, num_items=40, seed=3)
        first = generate(config)
        second = generate(config)
        assert [i.item_id for i in first.interactions] == [i.item_id for i in second.interactions]

    def test_different_seeds_differ(self):
        a = generate(SyntheticConfig(num_users=20, num_items=40, seed=1))
        b = generate(SyntheticConfig(num_users=20, num_items=40, seed=2))
        assert [i.item_id for i in a.interactions] != [i.item_id for i in b.interactions]

    def test_every_user_has_at_least_two_purchases(self, tiny_dataset):
        histories = tiny_dataset.user_histories()
        assert min(len(set(items)) for items in histories.values()) >= 2

    def test_items_spread_over_all_categories(self, tiny_dataset):
        categories = {product.category_id for product in tiny_dataset.products}
        assert categories == set(range(tiny_dataset.num_categories))

    def test_item_relations_reference_valid_items(self, tiny_dataset):
        for relation in tiny_dataset.item_relations:
            assert 0 <= relation.source_item_id < tiny_dataset.num_items
            assert 0 <= relation.target_item_id < tiny_dataset.num_items
            assert relation.source_item_id != relation.target_item_id

    def test_config_validation(self):
        with pytest.raises(ValueError):
            generate(SyntheticConfig(num_users=0))
        with pytest.raises(ValueError):
            generate(SyntheticConfig(num_clusters=10, num_categories=4))
        with pytest.raises(ValueError):
            generate(SyntheticConfig(cross_category_ratio=2.0))

    def test_preference_locality_present(self, tiny_dataset):
        """Users should buy within their assigned clusters far more often than chance."""
        in_cluster = 0
        total = 0
        for interaction in tiny_dataset.interactions:
            clusters = tiny_dataset.user_clusters[interaction.user_id]
            total += 1
            if tiny_dataset.item_cluster[interaction.item_id] in clusters:
                in_cluster += 1
        assert in_cluster / total > 0.6

    def test_cross_category_item_relations_exist(self, tiny_dataset):
        crossing = sum(
            1 for relation in tiny_dataset.item_relations
            if tiny_dataset.products[relation.source_item_id].category_id
            != tiny_dataset.products[relation.target_item_id].category_id)
        assert crossing > 0


class TestPresets:
    def test_available_datasets(self):
        assert set(available_datasets()) == {"beauty", "cellphones", "clothing"}
        assert DATASET_NAMES == list(available_datasets())

    def test_preset_config_is_a_copy(self):
        config = preset_config("beauty")
        config.num_users = 1
        assert preset_config("beauty").num_users != 1

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            preset_config("books")
        with pytest.raises(KeyError):
            load_dataset("books")

    def test_scale_shrinks_dataset(self):
        full = load_dataset("cellphones")
        small = load_dataset("cellphones", scale=0.5)
        assert small.num_users < full.num_users
        assert small.num_items < full.num_items

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            load_dataset("beauty", scale=0.0)

    def test_clothing_has_sparsest_categories(self):
        stats = {name: dataset_statistics(load_dataset(name, scale=0.5))
                 for name in DATASET_NAMES}
        assert stats["clothing"]["items_per_category"] < stats["beauty"]["items_per_category"]
        assert stats["clothing"]["items_per_category"] < stats["cellphones"]["items_per_category"]


class TestSplits:
    def test_split_fraction_roughly_70_30(self, tiny_dataset):
        split = split_interactions(tiny_dataset, train_fraction=0.7, seed=0)
        total = len(split.train) + len(split.test)
        assert total == tiny_dataset.num_interactions
        assert 0.55 <= len(split.train) / total <= 0.85

    def test_every_multi_purchase_user_has_train_and_test(self, tiny_dataset, tiny_split):
        histories = tiny_dataset.user_histories()
        train_users = {i.user_id for i in tiny_split.train}
        test_users = {i.user_id for i in tiny_split.test}
        for user, items in histories.items():
            if len(items) >= 2:
                assert user in train_users
                assert user in test_users

    def test_split_is_deterministic(self, tiny_dataset):
        first = split_interactions(tiny_dataset, seed=5)
        second = split_interactions(tiny_dataset, seed=5)
        assert [i.item_id for i in first.test] == [i.item_id for i in second.test]

    def test_invalid_fraction_raises(self, tiny_dataset):
        with pytest.raises(ValueError):
            split_interactions(tiny_dataset, train_fraction=1.5)

    def test_train_and_test_item_maps(self, tiny_split):
        train_map = train_user_items(tiny_split)
        test_map = held_out_items(tiny_split)
        for user, items in test_map.items():
            assert items  # no empty test lists
            assert len(items) == len(set(items))
        assert set(test_map) <= set(train_map)

    def test_split_helpers_on_object(self, tiny_split):
        user = tiny_split.test[0].user_id
        assert tiny_split.test_items_of(user)
        assert tiny_split.train_items_of(user)


class TestIO:
    def test_save_and_load_roundtrip(self, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, tmp_path / "tiny")
        loaded = load_dataset_from_directory(tmp_path / "tiny")
        assert loaded.num_users == tiny_dataset.num_users
        assert loaded.num_items == tiny_dataset.num_items
        assert len(loaded.interactions) == len(tiny_dataset.interactions)
        assert loaded.products[0].feature_ids == tuple(tiny_dataset.products[0].feature_ids)
        assert loaded.brand_names == tiny_dataset.brand_names

    def test_loaded_dataset_validates(self, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, tmp_path / "tiny2")
        load_dataset_from_directory(tmp_path / "tiny2").validate()

    def test_roundtrip_keeps_tabs_quotes_and_newlines(self, tmp_path):
        dataset = InteractionDataset(
            name="quoted", num_users=2,
            products=[Product(0, 'Tab\there "quoted"\nline two', 0, 0, (0, 1)),
                      Product(1, "plain", 0, 0, ())],
            interactions=[Interaction(0, 0, (1,)), Interaction(1, 1, ())],
            item_relations=[ItemRelation(0, 1, "also_bought")],
            brand_names=["brand"], feature_names=["a", "b"], category_names=["c"])
        save_dataset(dataset, tmp_path / "quoted")
        assert load_dataset_from_directory(tmp_path / "quoted") == dataset

    def test_load_rejects_a_table_without_a_column(self, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, tmp_path / "cut")
        table = tmp_path / "cut" / "item_relations.tsv"
        table.write_text(table.read_text().replace("relation\n", "kind\n", 1))
        with pytest.raises(ValueError, match=r"lacks columns \['relation'\]"):
            load_dataset_from_directory(tmp_path / "cut")

    def test_saved_files_exist(self, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, tmp_path / "out")
        for name in ("meta.json", "products.tsv", "interactions.tsv", "item_relations.tsv"):
            assert (tmp_path / "out" / name).exists()
