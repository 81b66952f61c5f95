"""The fault injector: fires plan events through shims, ledgers everything.

The :class:`FaultInjector` holds a resolved :class:`~repro.faults.plan.FaultPlan`
and the replay's virtual clock.  The serving stack calls its hooks at the
choke points faults can enter through:

* ``before_shard_serve(shard_id)`` — once per serve *attempt* on a shard
  (batched group or retry).  Raises :class:`InjectedException` for transient
  exception / shard-down events, :class:`InjectedStall` for latency spikes at
  or above the stall timeout.
* ``latency_penalty_ms(shard_id)`` — sub-timeout latency spikes, charged to
  the reported latency of requests served in the window.
* ``on_swap_begin()`` / ``on_shard_flip(...)`` — called by the epoch-swap
  coordinator; raises :class:`InjectedCrash` mid-swap per the plan.
* ``after_generation_saved(store, generation)`` — byte-level corruption of
  just-persisted artifacts.
* ``after_log_append(path)`` — torn-tail truncation of the update log.

Every firing appends a :class:`LedgerEntry` with ``source="plan"``; the
defenses (breaker transitions, retries, sheds, quarantines, recoveries)
append ``source="defense"`` entries through :meth:`record_defense`.  The
ledger is strictly ordered (a ``seq`` counter), so a same-seed replay
produces a bit-identical ledger — checkable via :meth:`FaultLedger.signature`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..canonical import canonical_sha256
from .plan import (
    ArtifactCorruptionFault,
    CrashMidSwapFault,
    FaultPlan,
    LatencyFault,
    ShardDownFault,
    ShardExceptionFault,
    TornLogFault,
)


class FaultError(RuntimeError):
    """Base class of every injected failure."""


class InjectedException(FaultError):
    """A transient (or shard-down) serve failure injected by the plan."""


class InjectedStall(FaultError):
    """A latency spike past the stall timeout — the caller would give up."""

    def __init__(self, message: str, added_ms: float) -> None:
        super().__init__(message)
        self.added_ms = added_ms


class InjectedCrash(FaultError):
    """A simulated process crash (only ever raised mid generation swap)."""


@dataclass(frozen=True)
class LedgerEntry:
    """One ordered ledger record: a fault firing or a defense action."""

    seq: int
    at_s: float
    source: str          # "plan" | "defense"
    kind: str            # e.g. "shard_exception", "breaker_open", "retry"
    target: str          # shard id, stage/file, swap index... as text
    detail: str = ""

    def to_dict(self) -> Dict:
        return {"seq": self.seq, "at_s": self.at_s, "source": self.source,
                "kind": self.kind, "target": self.target, "detail": self.detail}


class FaultLedger:
    """Strictly-ordered record of every fault firing and defense action."""

    def __init__(self) -> None:
        self.entries: List[LedgerEntry] = []

    def record(self, *, at_s: float, source: str, kind: str, target: str,
               detail: str = "") -> LedgerEntry:
        entry = LedgerEntry(seq=len(self.entries), at_s=at_s, source=source,
                            kind=kind, target=target, detail=detail)
        self.entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self.entries)

    def kinds(self) -> List[str]:
        """Distinct entry kinds, sorted (deterministic summaries)."""
        return sorted({entry.kind for entry in self.entries})

    def count(self, kind: str) -> int:
        return sum(1 for entry in self.entries if entry.kind == kind)

    def as_dicts(self) -> List[Dict]:
        return [entry.to_dict() for entry in self.entries]

    def signature(self) -> str:
        """SHA-256 over the canonical entry list — ledger identity in one line."""
        return canonical_sha256(self.as_dicts())


class FaultInjector:
    """Fires one resolved :class:`FaultPlan` against the serving stack.

    ``stall_timeout_ms`` divides latency faults into stalls (the serve
    attempt raises) and spikes (latency inflation only).  The injector is
    stateful — exception budgets, swap/append counters — so one injector
    serves exactly one replay; build a fresh one per run.
    """

    def __init__(self, plan: FaultPlan, clock: Callable[[], float], *,
                 stall_timeout_ms: float = 250.0) -> None:
        if plan.timebase != "seconds":
            raise ValueError("resolve() the plan against the trace span first")
        self.plan = plan
        self._clock = clock
        self.stall_timeout_ms = stall_timeout_ms
        self.ledger = FaultLedger()
        self._exception_budget: Dict[int, int] = {
            index: event.count for index, event in enumerate(plan.events)
            if isinstance(event, ShardExceptionFault)}
        self._swaps_begun = 0
        self._appends_seen = 0

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def install(self, cluster) -> "FaultInjector":
        """Attach to a :class:`~repro.cluster.ClusterService` (and its breaker)."""
        cluster.injector = self
        breaker = getattr(cluster, "breaker", None)
        if breaker is not None:
            breaker.on_transition = self._on_breaker_transition
        return self

    def _on_breaker_transition(self, transition) -> None:
        self.ledger.record(at_s=transition.at_s, source="defense",
                           kind=f"breaker_{transition.state}",
                           target=f"shard:{transition.shard_id}",
                           detail=transition.detail)

    # ------------------------------------------------------------------ #
    # trace-time hooks (cluster serve path)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _in_window(event, now: float) -> bool:
        if now < event.at_s:
            return False
        duration = getattr(event, "duration_s", None)
        return duration is None or now < event.at_s + duration

    def before_shard_serve(self, shard_id: int) -> None:
        """May raise: one fault firing per serve attempt, in plan order."""
        now = self._clock()
        for index, event in enumerate(self.plan.events):
            if getattr(event, "shard_id", None) != shard_id:
                continue
            if isinstance(event, ShardExceptionFault):
                if now >= event.at_s and self._exception_budget.get(index, 0) > 0:
                    self._exception_budget[index] -= 1
                    self.ledger.record(at_s=now, source="plan",
                                       kind="shard_exception",
                                       target=f"shard:{shard_id}",
                                       detail=f"event {index}")
                    raise InjectedException(
                        f"injected transient exception on shard {shard_id}")
            elif isinstance(event, ShardDownFault):
                if self._in_window(event, now):
                    self.ledger.record(at_s=now, source="plan",
                                       kind="shard_down",
                                       target=f"shard:{shard_id}",
                                       detail=f"event {index}")
                    raise InjectedException(
                        f"injected outage on shard {shard_id}")
            elif isinstance(event, LatencyFault):
                if (event.added_ms >= self.stall_timeout_ms
                        and self._in_window(event, now)):
                    self.ledger.record(at_s=now, source="plan",
                                       kind="latency_stall",
                                       target=f"shard:{shard_id}",
                                       detail=f"+{event.added_ms:g}ms")
                    raise InjectedStall(
                        f"injected {event.added_ms:g}ms stall on shard "
                        f"{shard_id}", added_ms=event.added_ms)

    def latency_penalty_ms(self, shard_id: int) -> float:
        """Sub-stall latency inflation active on the shard right now."""
        now = self._clock()
        penalty = 0.0
        for event in self.plan.events:
            if (isinstance(event, LatencyFault)
                    and event.shard_id == shard_id
                    and event.added_ms < self.stall_timeout_ms
                    and self._in_window(event, now)):
                penalty += event.added_ms
        if penalty > 0.0:
            self.ledger.record(at_s=now, source="plan", kind="latency_spike",
                               target=f"shard:{shard_id}",
                               detail=f"+{penalty:g}ms")
        return penalty

    # ------------------------------------------------------------------ #
    # lifecycle hooks (swap coordinator, artifact store, update log)
    # ------------------------------------------------------------------ #
    def on_swap_begin(self) -> int:
        """Called by the coordinator at the start of each swap; returns its index."""
        index = self._swaps_begun
        self._swaps_begun += 1
        return index

    def on_shard_flip(self, swap_index: int, flipped: int, total: int) -> None:
        """May raise :class:`InjectedCrash` after the ``flipped``-th flip."""
        for event in self.plan.events:
            if (isinstance(event, CrashMidSwapFault)
                    and event.swap_index == swap_index
                    and event.after_shards == flipped
                    and flipped < total):
                self.ledger.record(at_s=self._clock(), source="plan",
                                   kind="crash_mid_swap",
                                   target=f"swap:{swap_index}",
                                   detail=f"after {flipped}/{total} shards")
                raise InjectedCrash(
                    f"injected crash in swap {swap_index} after "
                    f"{flipped}/{total} shard flips")

    def after_generation_saved(self, store, generation: int) -> None:
        """Corrupt just-persisted artifact bytes per the plan."""
        for event in self.plan.events:
            if not isinstance(event, ArtifactCorruptionFault):
                continue
            if event.generation is not None and event.generation != generation:
                continue
            path = store.stage_dir(event.stage) / event.name
            if not path.is_file():
                continue
            data = bytearray(path.read_bytes())
            if not data:
                continue
            offset = event.offset % len(data)
            data[offset] ^= (event.xor_mask & 0xFF) or 0xFF
            path.write_bytes(bytes(data))
            self.ledger.record(at_s=self._clock(), source="plan",
                               kind="artifact_corruption",
                               target=f"generation:{generation}",
                               detail=f"{event.stage}/{event.name}@{offset}")

    def after_log_append(self, path) -> None:
        """Tear the tail of the JSONL update log per the plan."""
        index = self._appends_seen
        self._appends_seen += 1
        for event in self.plan.events:
            if (isinstance(event, TornLogFault)
                    and event.append_index == index):
                with open(path, "rb") as handle:
                    data = handle.read()
                keep = max(0, len(data) - max(1, event.drop_bytes))
                with open(path, "wb") as handle:
                    handle.write(data[:keep])
                self.ledger.record(at_s=self._clock(), source="plan",
                                   kind="torn_log", target=f"append:{index}",
                                   detail=f"dropped {len(data) - keep} bytes")

    # ------------------------------------------------------------------ #
    # defense recording
    # ------------------------------------------------------------------ #
    def record_defense(self, kind: str, target: str, detail: str = "") -> None:
        """Ledger a defense action (retry, shed, quarantine, recovery...)."""
        self.ledger.record(at_s=self._clock(), source="defense", kind=kind,
                           target=target, detail=detail)
