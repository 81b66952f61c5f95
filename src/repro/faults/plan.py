"""Fault plans: declarative, JSON-round-trippable scripts of failures.

A :class:`FaultPlan` is an ordered tuple of fault events.  Events that happen
*in trace time* (exceptions, latency, shards going down) carry an ``at_s``
on the virtual clock; structural events (artifact corruption, crash mid-swap,
torn log appends) key on the lifecycle step they sabotage instead (which
generation save, which swap, which append).  Plan order is significant: the
injector checks events in plan order, so two events eligible at the same
instant fire in the order the plan lists them.

The JSON schema (``version`` 1)::

    {
      "version": 1,
      "timebase": "seconds",            # or "fraction" (of the trace span)
      "events": [
        {"kind": "shard_exception", "at_s": 0.4, "shard_id": 1, "count": 3},
        {"kind": "latency", "at_s": 0.5, "shard_id": 2,
         "duration_s": 0.6, "added_ms": 400.0},
        {"kind": "shard_down", "at_s": 0.1, "shard_id": 3, "duration_s": null},
        {"kind": "artifact_corruption", "generation": 1,
         "stage": "embed", "name": "transe.npz", "offset": 64, "xor_mask": 255},
        {"kind": "crash_mid_swap", "swap_index": 0, "after_shards": 2},
        {"kind": "torn_log", "append_index": 2, "drop_bytes": 7}
      ]
    }

With ``"timebase": "fraction"`` every ``at_s``/``duration_s`` is a fraction
of the replayed trace's span and :meth:`FaultPlan.resolve` turns it into
absolute seconds — committed plans stay meaningful whatever the trace length.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..canonical import canonical_sha256

PLAN_VERSION = 1

TIMEBASES = ("seconds", "fraction")


@dataclass(frozen=True)
class ShardExceptionFault:
    """The shard's next ``count`` serve attempts at/after ``at_s`` raise."""

    at_s: float
    shard_id: int
    count: int = 1
    kind: str = "shard_exception"


@dataclass(frozen=True)
class LatencyFault:
    """The shard answers ``added_ms`` slower during the window.

    Spikes at/above the injector's stall timeout are *stalls*: the serve
    attempt raises (the caller would have timed out), driving retries and the
    circuit breaker.  Sub-timeout spikes only inflate the reported latency.
    ``duration_s=None`` means "until the end of the trace".
    """

    at_s: float
    shard_id: int
    added_ms: float
    duration_s: Optional[float] = None
    kind: str = "latency"


@dataclass(frozen=True)
class ShardDownFault:
    """Every serve attempt on the shard raises during the window.

    Under ``repro simulate --faults/--chaos-seed``, ``--fail-shard K`` joins
    the plan as ``ShardDownFault(at_s=0.0, shard_id=K)``; without a plan it
    keeps its boot-time meaning (``ClusterConfig.failed_shards``, the health
    model marks the shard DOWN).  Unlike that health-model hook, here the
    *routing layer* discovers the outage the hard way — through failures,
    retries and the breaker — which is the point.
    """

    at_s: float
    shard_id: int
    duration_s: Optional[float] = None
    kind: str = "shard_down"


@dataclass(frozen=True)
class ArtifactCorruptionFault:
    """Flip bytes in a persisted artifact file right after it is saved.

    Fires when the live session persists generation ``generation`` (``None``
    matches any generation): byte ``offset`` (modulo the file size) of
    ``<stage>/<name>`` is XOR-ed with ``xor_mask``.  Verification should then
    quarantine the generation before any shard serves from it.
    """

    stage: str
    name: str
    generation: Optional[int] = None
    offset: int = 0
    xor_mask: int = 0xFF
    kind: str = "artifact_corruption"


@dataclass(frozen=True)
class CrashMidSwapFault:
    """Kill the ``swap_index``-th generation swap after ``after_shards`` flips.

    Models a coordinator crash between per-shard flips: some shards serve the
    new generation, the rest still serve the old one, and recovery must
    finish the flip without double-applying it.
    """

    swap_index: int = 0
    after_shards: int = 1
    kind: str = "crash_mid_swap"


@dataclass(frozen=True)
class TornLogFault:
    """Truncate the tail of the ``append_index``-th update-log append.

    Drops the final ``drop_bytes`` bytes of the JSONL file — a torn write —
    so recovery must detect the invalid tail record and truncate back to the
    last valid one.
    """

    append_index: int = 0
    drop_bytes: int = 7
    kind: str = "torn_log"


FaultEvent = Union[ShardExceptionFault, LatencyFault, ShardDownFault,
                   ArtifactCorruptionFault, CrashMidSwapFault, TornLogFault]

_EVENT_TYPES: Dict[str, type] = {
    "shard_exception": ShardExceptionFault,
    "latency": LatencyFault,
    "shard_down": ShardDownFault,
    "artifact_corruption": ArtifactCorruptionFault,
    "crash_mid_swap": CrashMidSwapFault,
    "torn_log": TornLogFault,
}


def fault_from_dict(payload: Dict) -> FaultEvent:
    """Rebuild one fault event from its JSON dict (``kind`` selects the type)."""
    data = dict(payload)
    kind = data.pop("kind", None)
    cls = _EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown fault kind {kind!r} "
                         f"(choose from {sorted(_EVENT_TYPES)})")
    try:
        return cls(**data)
    except TypeError as error:
        raise ValueError(f"bad {kind} fault spec {payload!r}: {error}") from error


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, serialisable script of fault events."""

    events: Tuple[FaultEvent, ...] = ()
    timebase: str = "seconds"

    def __post_init__(self) -> None:
        if self.timebase not in TIMEBASES:
            raise ValueError(f"timebase must be one of {TIMEBASES}")
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def resolve(self, duration_s: float) -> "FaultPlan":
        """An absolute-seconds plan (fractional timings scaled by the span)."""
        if self.timebase == "seconds":
            return self
        if not np.isfinite(duration_s) or duration_s < 0:
            raise ValueError("resolve needs a finite non-negative trace span")
        events = []
        for event in self.events:
            updates = {}
            if hasattr(event, "at_s"):
                updates["at_s"] = event.at_s * duration_s
            if getattr(event, "duration_s", None) is not None:
                updates["duration_s"] = event.duration_s * duration_s
            events.append(replace(event, **updates) if updates else event)
        return FaultPlan(events=tuple(events), timebase="seconds")

    # ------------------------------------------------------------------ #
    # serialisation & identity
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        return {"version": PLAN_VERSION, "timebase": self.timebase,
                "events": [asdict(event) for event in self.events]}

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultPlan":
        version = payload.get("version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise ValueError(f"unsupported fault-plan version {version!r}")
        return cls(events=tuple(fault_from_dict(entry)
                                for entry in payload.get("events", ())),
                   timebase=payload.get("timebase", "seconds"))

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())

    def signature(self) -> str:
        """SHA-256 over the canonical serialisation — plan identity in one line."""
        return canonical_sha256(self.to_dict())


def chaos_plan(seed: int, *, num_shards: int, duration_s: float,
               events: int = 6, include_live: bool = False) -> FaultPlan:
    """A seeded random fault plan — ``--chaos-seed N`` in one call.

    Draws ``events`` trace-time faults (transient exceptions, latency spikes
    and stalls, one possible shard-down window) from a generator seeded with
    ``seed``; with ``include_live`` it also sabotages the live pipeline (one
    artifact corruption, one crash-mid-swap, one torn append).  Same seed,
    same topology, same span → bit-identical plan.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    if events < 0:
        raise ValueError("events must be non-negative")
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(events):
        at_s = float(rng.uniform(0.0, max(duration_s, 1e-9)))
        shard_id = int(rng.integers(num_shards))
        roll = rng.random()
        if roll < 0.45:
            drawn.append(ShardExceptionFault(
                at_s=at_s, shard_id=shard_id, count=int(rng.integers(1, 4))))
        elif roll < 0.85:
            drawn.append(LatencyFault(
                at_s=at_s, shard_id=shard_id,
                added_ms=float(rng.choice((50.0, 150.0, 400.0, 1200.0))),
                duration_s=float(rng.uniform(0.05, 0.35)) * max(duration_s, 1e-9)))
        else:
            drawn.append(ShardDownFault(
                at_s=at_s, shard_id=shard_id,
                duration_s=float(rng.uniform(0.1, 0.4)) * max(duration_s, 1e-9)))
    if include_live:
        drawn.append(ArtifactCorruptionFault(
            stage="embed", name="transe.npz",
            offset=int(rng.integers(0, 4096))))
        drawn.append(CrashMidSwapFault(
            swap_index=0, after_shards=max(1, num_shards // 2)))
        drawn.append(TornLogFault(append_index=int(rng.integers(0, 3))))
    drawn.sort(key=lambda event: getattr(event, "at_s", float("inf")))
    return FaultPlan(events=tuple(drawn))
