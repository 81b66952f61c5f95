"""Per-shard circuit breakers: stop routing to a shard that keeps failing.

The :class:`CircuitBreaker` implements the classic three-state machine,
deterministically, on the injected clock:

* **closed** — the shard serves normally; consecutive serve failures are
  counted and a success resets the count.
* **open** — after ``failure_threshold`` consecutive failures the breaker
  trips: the router stops offering the shard traffic for ``cooldown_s``
  seconds of (virtual) time, failing its keys over to replicas *before* the
  health model would ever notice.
* **half-open** — once the cooldown elapses the breaker admits a single probe
  request; a success closes the breaker again, a failure re-opens it for
  another full cooldown.

Determinism: transitions depend only on the order of recorded
successes/failures and on the injected clock, both of which are replay
inputs — so a same-seed fault replay trips and recovers the exact same
breakers at the exact same virtual times.  Every transition is recorded (and
forwarded to an optional listener, e.g. the fault ledger).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass
class BreakerConfig:
    """Thresholds of the per-shard breaker state machine."""

    failure_threshold: int = 3     # consecutive failures that trip the breaker
    cooldown_s: float = 0.25       # open → half-open delay on the injected clock

    def validate(self) -> None:
        if self.failure_threshold <= 0:
            raise ValueError("failure_threshold must be positive")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")


@dataclass(frozen=True)
class BreakerTransition:
    """One recorded state change of one shard's breaker."""

    at_s: float
    shard_id: int
    state: str            # the state entered
    detail: str = ""


@dataclass
class _ShardBreaker:
    """Mutable per-shard breaker state (internal)."""

    state: str = CLOSED
    consecutive_failures: int = 0
    opened_at_s: float = 0.0
    probe_in_flight: bool = False


class CircuitBreaker:
    """Deterministic per-shard circuit breakers over one injected clock.

    ``on_transition`` (settable after construction) receives every
    :class:`BreakerTransition`; the fault injector uses it to ledger breaker
    activity alongside the faults that caused it.
    """

    def __init__(self, clock: Callable[[], float], *,
                 config: Optional[BreakerConfig] = None) -> None:
        self.config = config or BreakerConfig()
        self.config.validate()
        self._clock = clock
        self._shards: Dict[int, _ShardBreaker] = {}
        self.transitions: List[BreakerTransition] = []
        self.on_transition: Optional[Callable[[BreakerTransition], None]] = None

    def _shard(self, shard_id: int) -> _ShardBreaker:
        breaker = self._shards.get(shard_id)
        if breaker is None:
            breaker = self._shards[shard_id] = _ShardBreaker()
        return breaker

    def _enter(self, shard_id: int, breaker: _ShardBreaker, state: str,
               detail: str) -> None:
        breaker.state = state
        transition = BreakerTransition(at_s=self._clock(), shard_id=shard_id,
                                       state=state, detail=detail)
        self.transitions.append(transition)
        if self.on_transition is not None:
            self.on_transition(transition)

    # ------------------------------------------------------------------ #
    # routing surface
    # ------------------------------------------------------------------ #
    def state(self, shard_id: int) -> str:
        """The shard's current breaker state (cooldown-aware)."""
        breaker = self._shards.get(shard_id)
        if breaker is None:
            return CLOSED
        if (breaker.state == OPEN
                and self._clock() - breaker.opened_at_s >= self.config.cooldown_s):
            self._enter(shard_id, breaker, HALF_OPEN, "cooldown elapsed")
            breaker.probe_in_flight = False
        return breaker.state

    def allows(self, shard_id: int) -> bool:
        """Whether the router may offer this shard a request right now.

        A half-open breaker admits exactly one probe per cooldown window;
        ``allows`` is a pure check — the router calls :meth:`arm_probe` once
        it actually dispatches to the shard, and further ``allows`` calls say
        no until the probe's outcome is recorded.
        """
        state = self.state(shard_id)
        if state == CLOSED:
            return True
        if state == OPEN:
            return False
        return not self._shard(shard_id).probe_in_flight

    def arm_probe(self, shard_id: int) -> None:
        """Mark the half-open shard's single probe as dispatched."""
        breaker = self._shard(shard_id)
        if breaker.state == HALF_OPEN:
            breaker.probe_in_flight = True

    # ------------------------------------------------------------------ #
    # outcome recording
    # ------------------------------------------------------------------ #
    def record_success(self, shard_id: int) -> None:
        breaker = self._shard(shard_id)
        breaker.consecutive_failures = 0
        if breaker.state == HALF_OPEN:
            breaker.probe_in_flight = False
            self._enter(shard_id, breaker, CLOSED, "probe succeeded")
        elif breaker.state == OPEN:
            # A success can only come from an explicitly bypassed serve (e.g.
            # the shed path); it does not short-circuit the cooldown.
            return

    def record_failure(self, shard_id: int, detail: str = "") -> None:
        breaker = self._shard(shard_id)
        breaker.consecutive_failures += 1
        if breaker.state == HALF_OPEN:
            breaker.probe_in_flight = False
            breaker.opened_at_s = self._clock()
            self._enter(shard_id, breaker, OPEN,
                        f"probe failed: {detail}" if detail else "probe failed")
        elif (breaker.state == CLOSED
              and breaker.consecutive_failures >= self.config.failure_threshold):
            breaker.opened_at_s = self._clock()
            self._enter(shard_id, breaker, OPEN,
                        f"{breaker.consecutive_failures} consecutive failures"
                        + (f": {detail}" if detail else ""))

    # ------------------------------------------------------------------ #
    # membership & observability
    # ------------------------------------------------------------------ #
    def forget_shard(self, shard_id: int) -> None:
        """Drop state for a decommissioned shard (ids are never reused)."""
        self._shards.pop(shard_id, None)

    def snapshot(self) -> Dict[str, str]:
        """Shard id (as str, JSON-friendly) → current state."""
        return {str(shard_id): self.state(shard_id)
                for shard_id in sorted(self._shards)}
