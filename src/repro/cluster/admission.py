"""Admission control: per-shard queue bounds with shed-don't-stall semantics.

The cluster dispatches traffic in synchronous bursts (one
``ClusterService.serve_many`` call), so a shard's "queue depth" is the number
of requests the current burst has already assigned to it.  The
:class:`AdmissionController` bounds that depth: once a shard is full, further
requests for its keys overflow to their replicas, and when every replica is
saturated the router *sheds* the request into the shard's cheap fallback tier
chain (stale cache → embedding top-k) instead of deepening the queue — the
same backpressure shape a real cluster applies, made deterministic because
admission depends only on request order within the burst.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class AdmissionStats:
    """Cumulative admission counters since construction."""

    admitted: int = 0
    rejected: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"admitted": self.admitted, "rejected": self.rejected}


class AdmissionController:
    """Per-burst, per-shard admission bookkeeping.

    ``max_queue_per_shard`` is the largest number of requests one burst may
    assign to a single shard; :meth:`begin_burst` resets the per-shard loads
    (the cumulative :class:`AdmissionStats` survive across bursts).
    """

    def __init__(self, max_queue_per_shard: int = 256) -> None:
        if max_queue_per_shard <= 0:
            raise ValueError("max_queue_per_shard must be positive")
        self.max_queue_per_shard = max_queue_per_shard
        self._loads: Dict[int, int] = {}
        self._peaks: Dict[int, int] = {}
        self.stats = AdmissionStats()

    def begin_burst(self) -> None:
        """Start a fresh dispatch burst: every shard's queue is empty again."""
        self._loads.clear()

    def load(self, shard_id: int) -> int:
        """Requests assigned to a shard within the current burst."""
        return self._loads.get(shard_id, 0)

    def try_admit(self, shard_id: int) -> bool:
        """Reserve one queue slot on the shard if its bound allows it."""
        load = self._loads.get(shard_id, 0)
        if load >= self.max_queue_per_shard:
            self.stats.rejected += 1
            return False
        self._loads[shard_id] = load + 1
        if load + 1 > self._peaks.get(shard_id, 0):
            self._peaks[shard_id] = load + 1
        self.stats.admitted += 1
        return True

    def drain_peaks(self) -> Dict[int, int]:
        """Per-shard peak burst queue depth since the last drain, then reset.

        The autoscaler reads this each tick: peaks (not averages) are what
        predict shedding, because admission rejects on the burst maximum.
        """
        peaks = dict(self._peaks)
        self._peaks.clear()
        return peaks

    def forget_shard(self, shard_id: int) -> None:
        """Drop all bookkeeping for a decommissioned shard."""
        self._loads.pop(shard_id, None)
        self._peaks.pop(shard_id, None)
