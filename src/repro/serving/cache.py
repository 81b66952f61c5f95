"""LRU + TTL result cache for the online serving layer.

Keys are the full request identity ``(user_entity, top_k, frozenset(exclude))``
so two requests only share a cached result when they would have produced the
same answer.  Expired entries are *kept* until LRU capacity evicts them: the
fallback tier deliberately serves them as stale results when a request's
latency budget rules out a fresh beam search.

Beside the answers, the cache owns a :class:`SearchStore`: each user's full
search outcome (every path the exclusion-free beam search found, best
first), from which ``PathRecommender.recommend_requests`` derives any
``(top_k, exclude)`` answer without searching again.  The store is bounded by
the same capacity, touches no counter, never migrates, and is dropped
wherever answers are (``clear``, ``invalidate*``).  An outcome is only valid
for the tables that computed it, so a live generation flip that carries the
answers over drops the store (``ClusterService.replace_shard_service``).
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from collections.abc import MutableMapping
from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, Iterable, Iterator, List, Optional, Tuple

CacheKey = Tuple[int, int, FrozenSet[int]]


@dataclass(frozen=True)
class ExportedEntry:
    """One cache entry lifted out of a :class:`ResultCache` for migration.

    Carries the absolute ``expires_at`` deadline rather than a remaining TTL:
    migrating an entry between shards must not refresh its expiry.
    """

    key: CacheKey
    value: Any
    expires_at: float


@dataclass
class CacheStats:
    """Counters exposed through the telemetry snapshot."""

    hits: int = 0
    misses: int = 0
    stale_hits: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fresh-hit rate over all lookups (NaN before any traffic).

        A cache that has never been consulted has no hit rate; reporting 0.0
        would read as "everything missed" to telemetry consumers (and to any
        scaling policy watching it), so the undefined case is NaN — the same
        convention ``ClusterTelemetry.cache_totals`` uses.
        """
        total = self.hits + self.misses
        return self.hits / total if total else math.nan


@dataclass
class _Entry:
    value: Any
    expires_at: float


class SearchStore(MutableMapping):
    """LRU-bounded ``{user_entity: search outcome}`` map.

    Reading an outcome (``store[user]``, ``get``) refreshes its recency;
    ``in``, iteration and ``items()`` do not.  Writing beyond ``capacity``
    evicts the least recently used outcome, silently: the store has no
    counters.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._outcomes: "OrderedDict[int, Any]" = OrderedDict()

    def __getitem__(self, user_entity: int) -> Any:
        outcome = self._outcomes[user_entity]
        self._outcomes.move_to_end(user_entity)
        return outcome

    def __setitem__(self, user_entity: int, outcome: Any) -> None:
        self._outcomes[user_entity] = outcome
        self._outcomes.move_to_end(user_entity)
        while len(self._outcomes) > self.capacity:
            self._outcomes.popitem(last=False)

    def __delitem__(self, user_entity: int) -> None:
        del self._outcomes[user_entity]

    def __contains__(self, user_entity: object) -> bool:
        return user_entity in self._outcomes

    def __iter__(self) -> Iterator[int]:
        return iter(self._outcomes)

    def __len__(self) -> int:
        return len(self._outcomes)

    def items(self):
        return self._outcomes.items()

    def clear(self) -> None:
        self._outcomes.clear()

    def invalidate_entities(self, touched: set) -> None:
        """Drop every outcome whose user or any found item is in ``touched``:
        exactly the outcomes some answer derived from them would be dropped
        for (an answer's items are a subset of its outcome's)."""
        doomed = [user for user, outcome in self.items()
                  if user in touched
                  or not touched.isdisjoint(path.item_entity for path in outcome)]
        for user in doomed:
            del self._outcomes[user]


class ResultCache:
    """Bounded LRU cache whose entries additionally expire after a TTL.

    ``clock`` is injectable so tests can advance time explicitly; it must be a
    monotonic seconds counter.
    """

    def __init__(self, capacity: int = 1024, ttl_seconds: float = 300.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        if ttl_seconds <= 0:
            raise ValueError("cache TTL must be positive")
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        self.stats = CacheStats()
        #: Full search outcomes per user (see the module docstring).
        self.searches = SearchStore(capacity)

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def get(self, key: CacheKey) -> Optional[Any]:
        """Fresh lookup: the value if present and unexpired, else ``None``.

        An expired entry counts as a miss but stays cached for :meth:`get_stale`.
        """
        entry = self._entries.get(key)
        if entry is None or entry.expires_at <= self._clock():
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry.value

    def get_stale(self, key: CacheKey) -> Optional[Any]:
        """Staleness-tolerant lookup used by the over-budget fallback tier."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self.stats.stale_hits += 1
        return entry.value

    def has(self, key: CacheKey) -> bool:
        """Fresh-presence peek that does not touch counters or LRU order."""
        entry = self._entries.get(key)
        return entry is not None and entry.expires_at > self._clock()

    def has_stale(self, key: CacheKey) -> bool:
        """Presence peek ignoring expiry (again counter/LRU neutral)."""
        return key in self._entries

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def put(self, key: CacheKey, value: Any) -> None:
        self._entries[key] = _Entry(value=value, expires_at=self._clock() + self.ttl_seconds)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(self, key: CacheKey) -> bool:
        """Drop one entry (and its user's search outcome); returns whether
        the entry existed."""
        self.searches.pop(key[0], None)
        if self._entries.pop(key, None) is not None:
            self.stats.invalidations += 1
            return True
        return False

    def invalidate_user(self, user_entity: int) -> int:
        """Drop every cached result and the search outcome of one user (e.g.
        after a new interaction)."""
        self.searches.pop(user_entity, None)
        doomed = [key for key in self._entries if key[0] == user_entity]
        for key in doomed:
            del self._entries[key]
        self.stats.invalidations += len(doomed)
        return len(doomed)

    def invalidate_entities(self, entities) -> int:
        """Drop every entry *touched* by the given entity set; keep the rest.

        An entry is touched when its user is in ``entities`` or any of its
        cached items is (cached values expose an ``items`` sequence; opaque
        values are matched on the user only).  This is the scoped alternative
        to a whole-cache flush on artifact change: a streaming delta affects a
        handful of entities, and every untouched entry survives *in its
        existing eviction order* — deleting from an ``OrderedDict`` never
        reorders the survivors.  Search outcomes go by the same rule.
        """
        touched = set(entities)
        if not touched:
            return 0
        self.searches.invalidate_entities(touched)
        doomed = []
        for key, entry in self._entries.items():
            if key[0] in touched:
                doomed.append(key)
                continue
            items = getattr(entry.value, "items", None)
            if items is None or callable(items):
                # Opaque value (or a mapping, whose bound ``.items`` method is
                # not an item list): match on the user key only.
                continue
            try:
                if not touched.isdisjoint(items):
                    doomed.append(key)
            except TypeError:
                # ``items`` exists but is not an iterable of hashables —
                # treat the value as opaque rather than blow up invalidation.
                continue
        for key in doomed:
            del self._entries[key]
        self.stats.invalidations += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        """Drop every answer and every search outcome."""
        self._entries.clear()
        self.searches.clear()

    # ------------------------------------------------------------------ #
    # migration (shard warm hand-off)
    # ------------------------------------------------------------------ #
    def export_entries(self, match: Optional[Callable[[CacheKey], bool]] = None
                       ) -> List[ExportedEntry]:
        """Copy out matching entries in eviction order (oldest first).

        Counter- and LRU-neutral: exporting is observation, not traffic.
        ``match`` defaults to everything; expired entries are included because
        the stale tier can still serve them on the receiving shard.  Search
        outcomes never migrate: the receiving shard searches for itself.
        """
        return [ExportedEntry(key=key, value=entry.value, expires_at=entry.expires_at)
                for key, entry in self._entries.items()
                if match is None or match(key)]

    def extract_entries(self, match: Callable[[CacheKey], bool]) -> List[ExportedEntry]:
        """Remove and return matching entries in eviction order.

        Used when a key range remaps to another shard: the displaced entries
        leave this cache (without counting as invalidations — nothing about
        their contents became wrong) and are handed to the new owner via
        :meth:`absorb`.
        """
        exported = self.export_entries(match)
        for entry in exported:
            del self._entries[entry.key]
        return exported

    def absorb(self, entries: Iterable[ExportedEntry]) -> int:
        """Adopt migrated entries, preserving their original expiry deadlines.

        Entries the cache already holds are skipped (the local copy is at
        least as fresh — it was written under this shard's traffic), as are
        entries that would land already-evictable into a full cache.  Returns
        the number actually adopted; capacity eviction applies as usual.
        """
        adopted = 0
        for entry in entries:
            if entry.key in self._entries:
                continue
            self._entries[entry.key] = _Entry(value=entry.value, expires_at=entry.expires_at)
            self._entries.move_to_end(entry.key)
            adopted += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return adopted
