"""Consistent-hash shard routing: a user-keyed ring with virtual nodes.

Sharding by ``user_entity % num_shards`` would remap almost every user
whenever a shard is added or removed, invalidating every per-shard cache at
once.  The classic consistent-hash ring bounds that churn: each shard owns
``virtual_nodes`` pseudo-random points on a 64-bit circle and a key belongs
to the first point at or after its own hash, so adding one shard to an
``n``-shard ring only remaps an expected ``1/(n+1)`` of the keys — all of
them *to* the new shard — and removing a shard only remaps the keys it owned.

Hashes are ``blake2b`` over stable strings (never Python's randomised
``hash``), so the same ``(shard ids, virtual_nodes, seed)`` triple produces
the identical ring in every process — a prerequisite for the deterministic
cluster replays of :mod:`repro.simulate`.

:meth:`ConsistentHashRing.replicas` walks the ring clockwise from a key's
point collecting *distinct* shards, so the R-way replica set of a key is the
primary followed by R-1 deterministic, pairwise-distinct backups.

A key's chain is a pure function of the ring's membership, so ``replicas``
memoises it: the first lookup of a ``(key, count)`` pair hashes the key and
walks the ring, and every later lookup is one dict read until
:meth:`~ConsistentHashRing.add_shard` or
:meth:`~ConsistentHashRing.remove_shard` changes the membership and clears
the memo.  The memo therefore holds at most one chain per distinct key (and
count) looked up since the last membership change.  ``primary`` and the
diagnostics walk the ring directly and leave the memo alone.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Sequence, Tuple


def stable_hash64(text: str) -> int:
    """A process-independent 64-bit hash (``blake2b``, not ``hash()``)."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashRing:
    """A consistent-hash ring over integer shard ids.

    Parameters
    ----------
    shard_ids:
        The initial shard set (distinct integers, typically ``range(n)``).
    virtual_nodes:
        Points per shard on the ring.  More points smooth the key balance
        across shards at the cost of a larger (still tiny) sorted table.
    seed:
        Folded into every hash, so two rings with different seeds place both
        shards and keys differently — workload-independent ring identity.
    """

    def __init__(self, shard_ids: Iterable[int], virtual_nodes: int = 64,
                 seed: int = 0) -> None:
        shards = list(shard_ids)
        if not shards:
            raise ValueError("ring needs at least one shard")
        if len(set(shards)) != len(shards):
            raise ValueError("shard ids must be distinct")
        if virtual_nodes <= 0:
            raise ValueError("virtual_nodes must be positive")
        self.virtual_nodes = virtual_nodes
        self.seed = seed
        # Parallel sorted structure: _points[i] is the ring position owned by
        # _owners[i].  Ties (astronomically rare with 64-bit hashes) break by
        # shard id because insertion keeps (point, shard) pairs sorted.
        self._entries: List[Tuple[int, int]] = []
        self._shards: set = set()
        # (key, count) → replica chain, valid for the current membership.
        self._chains: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        for shard in shards:
            self.add_shard(shard)

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #
    @property
    def shards(self) -> Tuple[int, ...]:
        """The current shard set, sorted."""
        return tuple(sorted(self._shards))

    def __len__(self) -> int:
        return len(self._shards)

    def add_shard(self, shard_id: int) -> None:
        """Insert a shard's virtual nodes (stable for every other shard)."""
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id} is already on the ring")
        for vnode in range(self.virtual_nodes):
            point = stable_hash64(f"{self.seed}:shard:{shard_id}:{vnode}")
            bisect.insort(self._entries, (point, shard_id))
        self._shards.add(shard_id)
        self._chains.clear()

    def remove_shard(self, shard_id: int) -> None:
        """Drop a shard; only keys it owned are remapped."""
        if shard_id not in self._shards:
            raise ValueError(f"shard {shard_id} is not on the ring")
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        self._entries = [entry for entry in self._entries if entry[1] != shard_id]
        self._shards.discard(shard_id)
        self._chains.clear()

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def key_point(self, key: int) -> int:
        """Where a routing key lands on the ring."""
        return stable_hash64(f"{self.seed}:key:{key}")

    def primary(self, key: int) -> int:
        """The shard owning ``key`` (first ring point at or after its hash)."""
        return self._walk(key, 1)[0]

    def replicas(self, key: int, count: int) -> Tuple[int, ...]:
        """The first ``count`` *distinct* shards clockwise from ``key``.

        Index 0 is the primary; the rest are the deterministic backup order a
        router retries in.  ``count`` is capped at the shard population.  The
        chain is memoised until the next membership change.
        """
        chain = self._chains.get((key, count))
        if chain is None:
            chain = self._chains[(key, count)] = self._walk(key, count)
        return chain

    def _walk(self, key: int, count: int) -> Tuple[int, ...]:
        if count <= 0:
            raise ValueError("replica count must be positive")
        count = min(count, len(self._shards))
        start = bisect.bisect_left(self._entries, (self.key_point(key), -1))
        chosen: List[int] = []
        seen: set = set()
        total = len(self._entries)
        for offset in range(total):
            shard = self._entries[(start + offset) % total][1]
            if shard not in seen:
                seen.add(shard)
                chosen.append(shard)
                if len(chosen) == count:
                    break
        return tuple(chosen)

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def assignment(self, keys: Sequence[int]) -> dict:
        """key → primary shard for a key population (test/balance helper)."""
        return {key: self.primary(key) for key in keys}

    def load_balance(self, keys: Sequence[int]) -> dict:
        """shard → fraction of ``keys`` it owns."""
        counts = {shard: 0 for shard in self._shards}
        for key in keys:
            counts[self.primary(key)] += 1
        total = max(1, len(keys))
        return {shard: counts[shard] / total for shard in sorted(counts)}

    def keys_for_shard(self, keys: Sequence[int], shard_id: int) -> Tuple[int, ...]:
        """The subset of ``keys`` whose *primary* is ``shard_id``, sorted.

        The inverse lookup hot-key adversaries need: given a candidate key
        population, which keys land on one chosen shard.  Sorted so callers
        indexing into it with a seeded rng stay deterministic.
        """
        if shard_id not in self._shards:
            raise ValueError(f"shard {shard_id} is not on the ring")
        return tuple(sorted(key for key in keys
                            if self.primary(key) == shard_id))
