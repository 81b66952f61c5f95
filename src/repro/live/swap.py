"""Generation-versioned shard swap: flip a live cluster to new artifacts.

The :class:`EpochSwapCoordinator` moves a running
:class:`repro.cluster.ClusterService` from generation N to generation N+1
one shard at a time:

1. **Build** a fresh :class:`repro.serving.RecommendationService` over the
   new generation's frozen tables (own recommender, cold milestone/action
   caches) — the expensive part, done entirely off the serving path;
2. **Flip** the shard via ``ClusterService.replace_shard_service``, carrying
   its result cache and telemetry across the generation boundary — serving
   history survives the swap;
3. **Invalidate, scoped**: only cache entries touching updated entities are
   dropped (``invalidate_entities``), so the carried cache keeps serving hits
   for everything the deltas did not reach, in its original eviction order.

Swaps are **zero-downtime by construction** under the deterministic replay
model: the coordinator runs between serving bursts (the live session fires
it before dispatching a batch), every shard always has *some* complete
generation installed, and mid-swap the cluster simply serves mixed
generations — each answer internally consistent with the generation that
produced it (the generation-scoped oracles check exactly this).  No request
is ever shed because of a swap; the CI smoke test asserts
``routing.shed == 0`` across a full ingest-and-swap replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from .refresh import GenerationBundle


class SwapInterrupted(RuntimeError):
    """A swap died mid-flip (injected crash): the cluster serves mixed
    generations until :meth:`EpochSwapCoordinator.swap_to` is re-run with
    ``skip_shards`` set to the shards that already flipped.

    Carries everything the recovery path needs: the ``bundle`` being
    installed, the ``flipped`` shard ids that already serve it, and the
    underlying ``cause``.
    """

    def __init__(self, message: str, *, bundle: GenerationBundle,
                 flipped: Tuple[int, ...], cause: BaseException) -> None:
        super().__init__(message)
        self.bundle = bundle
        self.flipped = flipped
        self.cause = cause


@dataclass
class SwapReport:
    """What one generation swap did, shard by shard."""

    generation: int                     # the generation swapped *to*
    flip_order: Tuple[int, ...]         # shard ids in flip sequence
    touched_entities: int               # scope of the cache invalidation
    invalidated_entries: int            # cache entries dropped across shards
    preserved_entries: int              # cache entries that survived
    started_at_s: float
    completed_at_s: float

    @property
    def duration_s(self) -> float:
        return self.completed_at_s - self.started_at_s

    def as_dict(self) -> Dict:
        return {"generation": self.generation,
                "flip_order": list(self.flip_order),
                "touched_entities": self.touched_entities,
                "invalidated_entries": self.invalidated_entries,
                "preserved_entries": self.preserved_entries,
                "duration_s": self.duration_s}


class EpochSwapCoordinator:
    """Flips a cluster's shards to a new :class:`GenerationBundle`.

    ``clock`` should be the same clock the cluster's services run on (a
    :class:`repro.simulate.TraceClock` in deterministic replays) so the
    report's timestamps live on the serving timeline.
    """

    def __init__(self, cluster, clock: Optional[Callable[[], float]] = None,
                 injector=None) -> None:
        if not hasattr(cluster, "replace_shard_service"):
            raise TypeError("cluster must expose replace_shard_service() "
                            "(a repro.cluster.ClusterService)")
        self.cluster = cluster
        self.clock = clock
        self.injector = injector
        self.reports: List[SwapReport] = []

    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        if self.clock is not None:
            return self.clock()
        reference = self.cluster.workers[0].service
        return reference._clock()

    def swap_to(self, bundle: GenerationBundle,
                touched_entities: Set[int],
                skip_shards: FrozenSet[int] = frozenset()) -> SwapReport:
        """Install ``bundle`` on every shard, lowest shard id first.

        Each shard's replacement service is built *before* its flip, keeps
        the outgoing shard's cache and telemetry, and then drops exactly the
        cache entries whose user or items the generation's deltas touched.

        ``skip_shards`` resumes an interrupted swap: shards already flipped
        by a crashed attempt (the :class:`SwapInterrupted` exception names
        them) keep their installed service and are not flipped twice.

        With a fault injector attached, an :class:`InjectedCrash` fired
        between flips surfaces as :class:`SwapInterrupted` — the flips
        already made stay in place (exactly like a real crash would leave
        them), and the caller re-runs ``swap_to`` with ``skip_shards`` to
        finish the rollout.
        """
        started = self._now()
        touched = set(touched_entities)
        workers = [worker
                   for worker in sorted(self.cluster.workers,
                                        key=lambda w: w.shard_id)
                   if worker.shard_id not in skip_shards]
        swap_index = (self.injector.on_swap_begin()
                      if self.injector is not None else -1)
        flip_order: List[int] = []
        invalidated = 0
        preserved = 0
        for worker in workers:
            outgoing = worker.service
            incoming = bundle.build_service(
                serving_config=outgoing.config,
                clock=outgoing._clock,
                name=f"{self.cluster.name}/shard-{worker.shard_id}"
                     f"@gen{bundle.generation}")
            self.cluster.replace_shard_service(worker.shard_id, incoming)
            invalidated += incoming.invalidate_entities(touched)
            preserved += len(incoming.cache)
            flip_order.append(worker.shard_id)
            if self.injector is not None:
                try:
                    self.injector.on_shard_flip(swap_index, len(flip_order),
                                                len(workers))
                except Exception as crash:  # repro: ignore[EXC001] an injected mid-swap crash must surface as SwapInterrupted carrying the flipped set, so the session can resume the rollout deterministically
                    flipped = tuple(sorted(set(skip_shards) | set(flip_order)))
                    raise SwapInterrupted(
                        f"swap to generation {bundle.generation} interrupted "
                        f"after shards {flipped}",
                        bundle=bundle, flipped=flipped, cause=crash) from crash
        report = SwapReport(
            generation=bundle.generation,
            flip_order=tuple(flip_order),
            touched_entities=len(touched),
            invalidated_entries=invalidated,
            preserved_entries=preserved,
            started_at_s=started,
            completed_at_s=self._now(),
        )
        self.reports.append(report)
        return report
