"""Serving telemetry: rolling latency percentiles, QPS and tier usage.

A fixed-size rolling window (default: the last 512 requests) keeps the
percentile and QPS estimates responsive to the current traffic mix without
unbounded memory; tier and cache counters are cumulative since start/reset.

Two conventions matter to consumers:

* **Undefined is NaN, not 0.0** — an empty window has no percentiles, no QPS
  and no hit rate; every such field reads ``nan`` so dashboards and tests
  can't mistake "no traffic yet" for "blazingly fast".
* **Snapshots are mergeable** — :meth:`ServingTelemetry.export_state` hands
  out the raw window samples plus the cumulative counters, so an aggregator
  (:class:`repro.cluster.ClusterTelemetry`) can pool several instances and
  compute *exact* cluster-wide percentiles/QPS instead of averaging
  per-shard percentiles (which is statistically meaningless).
"""

from __future__ import annotations

import time
from collections import Counter, deque
from typing import Any, Callable, Deque, Dict, Sequence, Tuple

import numpy as np

#: Default latency percentiles; p99.9 is included because tail latency is what
#: capacity planning actually budgets for.
PERCENTILES = (50.0, 95.0, 99.0, 99.9)


def percentile_label(percentile: float) -> str:
    """Canonical snapshot key for a percentile: ``p50``, ``p99``, ``p99.9``."""
    return f"p{percentile:g}"


def latency_percentiles_of(samples_ms: Sequence[float],
                           percentiles: Sequence[float] = PERCENTILES
                           ) -> Dict[str, float]:
    """Percentile dict over raw latencies; uniformly NaN when empty."""
    if len(samples_ms) == 0:
        return {percentile_label(p): float("nan") for p in percentiles}
    values = np.percentile(np.asarray(samples_ms, dtype=np.float64),
                           list(percentiles))
    return {percentile_label(p): float(v)
            for p, v in zip(percentiles, values)}


def qps_of(timestamps: Sequence[float]) -> float:
    """Requests/second across a sample timeline; NaN when undefined.

    Fewer than two samples (or a zero span — e.g. a frozen virtual clock)
    carry no rate information, so the answer is NaN rather than a fake 0.0.
    """
    if len(timestamps) < 2:
        return float("nan")
    span = timestamps[-1] - timestamps[0]
    if span <= 0.0:
        return float("nan")
    return (len(timestamps) - 1) / span


class ServingTelemetry:
    """Aggregates per-request observations into a snapshot dict."""

    def __init__(self, window: int = 512,
                 clock: Callable[[], float] = time.monotonic,
                 percentiles: Sequence[float] = PERCENTILES) -> None:
        if window <= 1:
            raise ValueError("telemetry window must be at least 2 requests")
        if not percentiles or any(not 0.0 < p <= 100.0 for p in percentiles):
            raise ValueError("percentiles must be non-empty and lie in (0, 100]")
        self.window = window
        self.percentiles = tuple(percentiles)
        self._clock = clock
        self._samples: Deque[Tuple[float, float]] = deque(maxlen=window)
        self._tier_counts: Counter = Counter()
        self._cache_hits = 0
        self._requests = 0

    # ------------------------------------------------------------------ #
    def record(self, latency_ms: float, tier: Any, cache_hit: bool = False) -> None:
        """Record one served request (``tier`` is a ``ServingTier`` or string)."""
        self._samples.append((self._clock(), float(latency_ms)))
        self._tier_counts[getattr(tier, "value", tier)] += 1
        if cache_hit:
            self._cache_hits += 1
        self._requests += 1

    # ------------------------------------------------------------------ #
    def latency_percentiles(self) -> Dict[str, float]:
        """Configured latency percentiles (ms) over the window; NaN when empty."""
        return latency_percentiles_of([latency for _, latency in self._samples],
                                      self.percentiles)

    def qps(self) -> float:
        """Requests per second across the rolling window (NaN if undefined)."""
        return qps_of([timestamp for timestamp, _ in self._samples])

    @property
    def requests(self) -> int:
        return self._requests

    def cache_hit_rate(self) -> float:
        """Cumulative hit rate; NaN before any traffic (empty ≠ 0% hits)."""
        if not self._requests:
            return float("nan")
        return self._cache_hits / self._requests

    def tier_counts(self) -> Dict[str, int]:
        return dict(self._tier_counts)

    # ------------------------------------------------------------------ #
    def export_state(self) -> Dict[str, Any]:
        """The mergeable representation: raw window + cumulative counters.

        ``samples`` is the rolling window as ``(timestamp, latency_ms)``
        pairs in arrival order; the counters are cumulative since reset.
        Aggregators pool several states and recompute exact percentiles/QPS
        over the union (see :class:`repro.cluster.ClusterTelemetry`).
        """
        return {
            "samples": tuple(self._samples),
            "tier_counts": dict(self._tier_counts),
            "cache_hits": self._cache_hits,
            "requests": self._requests,
        }

    def snapshot(self) -> Dict[str, Any]:
        """One dict with everything a dashboard (or a test) wants to scrape."""
        return {
            "requests": self._requests,
            "qps": self.qps(),
            "latency_ms": self.latency_percentiles(),
            "cache_hit_rate": self.cache_hit_rate(),
            "tiers": self.tier_counts(),
        }

    def reset(self) -> None:
        self._samples.clear()
        self._tier_counts.clear()
        self._cache_hits = 0
        self._requests = 0
