"""Cluster telemetry: exact cluster-wide aggregates over per-shard windows.

Averaging per-shard percentiles produces statistically meaningless numbers
(the p99 of a cluster is not the mean of shard p99s), so
:class:`ClusterTelemetry` pools the *raw* rolling windows every
:class:`repro.serving.ServingTelemetry` exports
(:meth:`~repro.serving.ServingTelemetry.export_state`) and recomputes
percentiles and QPS over the merged sample set — the same numbers one giant
telemetry instance observing all shards would have produced.

Counters (tier mix, cache statistics) are plain sums; hit *rates* are
recomputed from the summed counters, never averaged.  All undefined fields
follow the repository-wide NaN convention.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

from ..serving.telemetry import (
    PERCENTILES,
    latency_percentiles_of,
    qps_of,
)

#: Per-shard result-cache counters summed into the cluster view.
_CACHE_COUNTERS = ("hits", "misses", "stale_hits", "evictions", "invalidations")


def merge_telemetry_states(states: Sequence[Dict[str, Any]],
                           percentiles: Sequence[float] = PERCENTILES
                           ) -> Dict[str, Any]:
    """Merge ``ServingTelemetry.export_state()`` payloads into one snapshot.

    The merged samples are ordered by timestamp, so the pooled QPS spans the
    earliest-to-latest observation across every contributing window.
    """
    samples: List[Tuple[float, float]] = []
    tiers: Counter = Counter()
    cache_hits = 0
    requests = 0
    for state in states:
        samples.extend(state["samples"])
        tiers.update(state["tier_counts"])
        cache_hits += state["cache_hits"]
        requests += state["requests"]
    samples.sort(key=lambda sample: sample[0])
    return {
        "requests": requests,
        "qps": qps_of([timestamp for timestamp, _ in samples]),
        "latency_ms": latency_percentiles_of(
            [latency for _, latency in samples], percentiles),
        "cache_hit_rate": (cache_hits / requests if requests else float("nan")),
        "tiers": dict(tiers),
    }


class ClusterTelemetry:
    """The cluster-wide view over a set of shard workers.

    Computed on demand from the live per-shard telemetry/cache state — there
    is no double bookkeeping to drift out of sync with the shards.  The
    worker sequence is held *by reference* (not copied): an elastic cluster
    adds and removes shards mid-replay, and the merged view must always
    cover the current membership.
    """

    def __init__(self, workers: Sequence, percentiles: Sequence[float] = PERCENTILES) -> None:
        self._workers = workers
        self.percentiles = tuple(percentiles)

    # ------------------------------------------------------------------ #
    def merged(self) -> Dict[str, Any]:
        """The pooled telemetry snapshot (percentiles/QPS/tier mix)."""
        return merge_telemetry_states(
            [worker.service.telemetry.export_state() for worker in self._workers],
            self.percentiles)

    def cache_totals(self) -> Dict[str, Any]:
        """Summed result-cache statistics with a recomputed hit rate."""
        totals: Dict[str, Any] = {counter: 0 for counter in _CACHE_COUNTERS}
        totals["size"] = totals["searches"] = totals["derived"] = 0
        for worker in self._workers:
            cache = worker.service.cache
            totals["size"] += len(cache)
            for counter in _CACHE_COUNTERS:
                totals[counter] += getattr(cache.stats, counter)
            totals["searches"] += worker.service.search_stats.searches
            totals["derived"] += worker.service.search_stats.derived
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = (totals["hits"] / lookups if lookups
                              else float("nan"))
        return totals

    def snapshot(self) -> Dict[str, Any]:
        """Cluster aggregate plus the untouched per-shard snapshots."""
        snapshot = self.merged()
        snapshot["cache"] = self.cache_totals()
        snapshot["shards"] = {
            str(worker.shard_id): worker.service.telemetry_snapshot()
            for worker in self._workers}
        return snapshot
