"""TSV persistence for interaction datasets.

Real deployments would load the Amazon review dumps; this module writes and
reads the same logical content (products, interactions, item relations) as
plain tab-separated files so experiments can be checkpointed and shared.

Every pipeline restore reads these files, so the loader makes one
``csv.reader`` pass per table, finds each column by its header position and
builds each record straight from the row.  ``csv`` on both sides keeps any
field :func:`save_dataset` writes (tabs, quotes and newlines in product
names included) readable back.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterator, List, TextIO, Tuple, Union

from .schema import Interaction, InteractionDataset, ItemRelation, Product

PathLike = Union[str, Path]


def save_dataset(dataset: InteractionDataset, directory: PathLike) -> None:
    """Write a dataset to ``directory`` as TSV files plus a meta.json."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    meta = {
        "name": dataset.name,
        "num_users": dataset.num_users,
        "brand_names": dataset.brand_names,
        "feature_names": dataset.feature_names,
        "category_names": dataset.category_names,
    }
    (path / "meta.json").write_text(json.dumps(meta, indent=2))

    with open(path / "products.tsv", "w", newline="") as handle:
        writer = csv.writer(handle, delimiter="\t")
        writer.writerow(["item_id", "name", "brand_id", "category_id", "feature_ids"])
        for product in dataset.products:
            writer.writerow([product.item_id, product.name, product.brand_id,
                             product.category_id,
                             ",".join(str(f) for f in product.feature_ids)])

    with open(path / "interactions.tsv", "w", newline="") as handle:
        writer = csv.writer(handle, delimiter="\t")
        writer.writerow(["user_id", "item_id", "mentioned_feature_ids"])
        for interaction in dataset.interactions:
            writer.writerow([interaction.user_id, interaction.item_id,
                             ",".join(str(f) for f in interaction.mentioned_feature_ids)])

    with open(path / "item_relations.tsv", "w", newline="") as handle:
        writer = csv.writer(handle, delimiter="\t")
        writer.writerow(["source_item_id", "target_item_id", "relation"])
        for relation in dataset.item_relations:
            writer.writerow([relation.source_item_id, relation.target_item_id,
                             relation.relation])


def load_dataset_from_directory(directory: PathLike) -> InteractionDataset:
    """Read a dataset previously written by :func:`save_dataset`."""
    path = Path(directory)
    meta = json.loads((path / "meta.json").read_text())

    with open(path / "products.tsv", newline="") as handle:
        rows, (item, name, brand, category, features) = _table(
            handle, "item_id", "name", "brand_id", "category_id", "feature_ids")
        products = [Product(int(row[item]), row[name], int(row[brand]),
                            int(row[category]), _ids(row[features]))
                    for row in rows]

    with open(path / "interactions.tsv", newline="") as handle:
        rows, (user, item, mentioned) = _table(
            handle, "user_id", "item_id", "mentioned_feature_ids")
        interactions = [Interaction(int(row[user]), int(row[item]), _ids(row[mentioned]))
                        for row in rows]

    with open(path / "item_relations.tsv", newline="") as handle:
        rows, (source, target, relation) = _table(
            handle, "source_item_id", "target_item_id", "relation")
        item_relations = [ItemRelation(int(row[source]), int(row[target]), row[relation])
                          for row in rows]

    dataset = InteractionDataset(
        name=meta["name"],
        num_users=int(meta["num_users"]),
        products=products,
        interactions=interactions,
        item_relations=item_relations,
        brand_names=list(meta["brand_names"]),
        feature_names=list(meta["feature_names"]),
        category_names=list(meta["category_names"]),
    )
    dataset.validate()
    return dataset


def _table(handle: TextIO, *columns: str) -> Tuple[Iterator[List[str]], List[int]]:
    """The non-blank rows of a TSV after its header, and the named columns'
    positions in that header."""
    reader = csv.reader(handle, delimiter="\t")
    header = next(reader, [])
    missing = [column for column in columns if column not in header]
    if missing:
        raise ValueError(f"{handle.name} lacks columns {missing}")
    return filter(None, reader), [header.index(column) for column in columns]


def _ids(field: str) -> Tuple[int, ...]:
    """A comma-separated id list (empty pieces skipped) as a tuple of ints."""
    return tuple(map(int, filter(None, field.split(","))))
