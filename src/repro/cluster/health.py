"""Shard health: deterministic status tracking and seeded failure injection.

Failover only stays replayable if *when* a shard fails is part of the
experiment's inputs.  The :class:`HealthModel` therefore never observes
anything — shards are marked ``DEGRADED``/``DOWN`` either explicitly
(``fail`` / ``degrade`` / ``recover``), through a scripted
:class:`HealthEvent` schedule applied against an injectable clock (a
:class:`repro.simulate.TraceClock` during virtual-time replays), or through
:func:`random_schedule`, which derives a reproducible event list from a seed.

The router treats anything other than ``HEALTHY`` as unavailable: a degraded
shard stops receiving traffic entirely rather than serving with unknown
quality, and its keys fail over to their replicas.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


class ShardStatus(str, Enum):
    """Serving eligibility of one shard."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DOWN = "down"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, order=True)
class HealthEvent:
    """One scheduled status transition, ordered by trace time.

    Events sharing the same ``at_s`` apply in *scheduling order* (the order
    the event list gave them to :meth:`HealthModel.schedule`), not in the
    dataclass field order — so a ``[fail@t, recover@t]`` script
    deterministically ends recovered.
    """

    at_s: float
    shard_id: int
    status: ShardStatus


class HealthModel:
    """Status registry for a fixed shard population.

    ``clock`` enables scheduled events: each availability query first applies
    every event whose timestamp the clock has passed, so a replay driving a
    shared :class:`~repro.simulate.TraceClock` sees shards fail and recover
    at exact trace times — identically on every run.
    """

    def __init__(self, shard_ids: Iterable[int],
                 clock: Optional[Callable[[], float]] = None) -> None:
        self._status: Dict[int, ShardStatus] = {
            shard: ShardStatus.HEALTHY for shard in shard_ids}
        if not self._status:
            raise ValueError("health model needs at least one shard")
        self._clock = clock
        # (at_s, scheduling seq, event): the seq tie-breaks equal timestamps
        # so simultaneous events apply in the order they were scheduled —
        # sorting bare HealthEvents would silently re-order same-instant
        # ticks by shard id and status string instead.
        self._pending: List[Tuple[float, int, HealthEvent]] = []
        self._scheduled = 0

    # ------------------------------------------------------------------ #
    # direct control
    # ------------------------------------------------------------------ #
    def _require_shard(self, shard_id: int) -> None:
        if shard_id not in self._status:
            raise KeyError(f"unknown shard {shard_id}")

    def set_status(self, shard_id: int, status: ShardStatus) -> None:
        self._require_shard(shard_id)
        self._status[shard_id] = ShardStatus(status)

    def fail(self, shard_id: int) -> None:
        """Mark a shard ``DOWN`` (hard failure — no traffic at all)."""
        self.set_status(shard_id, ShardStatus.DOWN)

    def degrade(self, shard_id: int) -> None:
        """Mark a shard ``DEGRADED`` (soft failure — drained until recovery)."""
        self.set_status(shard_id, ShardStatus.DEGRADED)

    def recover(self, shard_id: int) -> None:
        self.set_status(shard_id, ShardStatus.HEALTHY)

    # ------------------------------------------------------------------ #
    # elastic membership
    # ------------------------------------------------------------------ #
    def add_shard(self, shard_id: int,
                  status: ShardStatus = ShardStatus.HEALTHY) -> None:
        """Register a new shard (autoscale scale-up), healthy by default."""
        if shard_id in self._status:
            raise ValueError(f"shard {shard_id} already registered")
        self._status[shard_id] = ShardStatus(status)

    def remove_shard(self, shard_id: int) -> None:
        """Forget a decommissioned shard and any events still scheduled for it."""
        self._require_shard(shard_id)
        if len(self._status) == 1:
            raise ValueError("cannot remove the last shard from the health model")
        del self._status[shard_id]
        self._pending = [entry for entry in self._pending
                         if entry[2].shard_id != shard_id]

    # ------------------------------------------------------------------ #
    # scheduled events
    # ------------------------------------------------------------------ #
    def schedule(self, event: HealthEvent) -> None:
        """Queue one future transition (requires a clock to ever apply).

        Events due at the same instant apply in scheduling order (a
        monotonic sequence number breaks the tie), so event-list order is
        the documented, deterministic simultaneous-event semantics.
        """
        self._require_shard(event.shard_id)
        if self._clock is None:
            raise RuntimeError("scheduled health events need a clock; "
                               "construct HealthModel(..., clock=...)")
        bisect.insort(self._pending, (event.at_s, self._scheduled, event))
        self._scheduled += 1

    def _apply_due(self) -> None:
        if self._clock is None or not self._pending:
            return
        now = self._clock()
        while self._pending and self._pending[0][0] <= now:
            event = self._pending.pop(0)[2]
            self._status[event.shard_id] = event.status

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def status(self, shard_id: int) -> ShardStatus:
        self._apply_due()
        self._require_shard(shard_id)
        return self._status[shard_id]

    def is_available(self, shard_id: int) -> bool:
        """Whether the router may send traffic to the shard.

        The router asks this for every shard it considers, so it reads the
        status directly and applies scheduled events only while some are
        pending.
        """
        if self._pending:
            self._apply_due()
        try:
            return self._status[shard_id] is ShardStatus.HEALTHY
        except KeyError:
            raise KeyError(f"unknown shard {shard_id}") from None

    def available_shards(self) -> Tuple[int, ...]:
        """Healthy shards in ascending id order (the last-resort scan order)."""
        self._apply_due()
        return tuple(shard for shard in sorted(self._status)
                     if self._status[shard] is ShardStatus.HEALTHY)

    def snapshot(self) -> Dict[str, str]:
        """shard id (as string, JSON-friendly) → status value."""
        self._apply_due()
        return {str(shard): self._status[shard].value
                for shard in sorted(self._status)}


def random_schedule(shard_ids: Sequence[int], seed: int, horizon_s: float,
                    failures: int = 1, mean_outage_s: float = 5.0,
                    degraded_fraction: float = 0.5) -> List[HealthEvent]:
    """A reproducible failure/recovery script for chaos-style replays.

    Draws ``failures`` outages from one seeded generator: each picks a shard,
    a start time within ``horizon_s``, an exponential outage length and
    whether the shard goes ``DEGRADED`` (with ``degraded_fraction``
    probability) or hard ``DOWN``.  The same arguments always produce the
    identical event list, so a chaos replay is as replayable as a clean one.
    """
    if not shard_ids:
        raise ValueError("need at least one shard to schedule failures for")
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    if failures < 0:
        raise ValueError("failures must be non-negative")
    rng = np.random.default_rng(seed)
    shards = np.asarray(shard_ids, dtype=np.int64)
    events: List[HealthEvent] = []
    for _ in range(failures):
        shard = int(shards[rng.integers(shards.size)])
        start = float(rng.uniform(0.0, horizon_s))
        outage = float(rng.exponential(mean_outage_s))
        status = (ShardStatus.DEGRADED if rng.random() < degraded_fraction
                  else ShardStatus.DOWN)
        events.append(HealthEvent(at_s=start, shard_id=shard, status=status))
        events.append(HealthEvent(at_s=start + outage, shard_id=shard,
                                  status=ShardStatus.HEALTHY))
    return sorted(events)
