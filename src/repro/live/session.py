"""The live session: streaming ingestion and generation swaps around serving.

:class:`LiveSession` wraps a running :class:`repro.cluster.ClusterService`
and manages the whole zero-downtime update loop:

* a **staging graph** — a private structural copy
  (:meth:`repro.kg.KnowledgeGraph.copy`) of the serving generation's graph
  that ingestion mutates.  The serving generation's graph object is never
  touched, so every in-flight and cached answer stays internally consistent;
  the two share only immutable records and the read-only CSR view they start
  from, and the staging graph's view is kept fresh *incrementally*
  (:func:`repro.kg.patch_adjacency` folds each burst into a new view instead
  of recompiling from scratch);
* an **update log** recording every ingested delta in replayable order;
* **scheduled events** on the serving clock: :class:`IngestEvent` (apply a
  delta burst — given explicitly or synthesized from a seed) and
  :class:`SwapEvent` (warm-start refresh → persist → flip the cluster).
  Events fire at the top of ``serve_many``/``serve`` once their timestamp is
  due, so under a :class:`repro.simulate.TraceClock` replay the whole
  timeline — bursts, refreshes, flips — is a pure function of the trace and
  the seeds;
* the **generation ledger** (``bundles``): every generation ever served,
  kept addressable so the generation-scoped oracles can re-derive any answer
  against the exact tables that produced it.

The session itself quacks like a service (``serve``/``serve_many`` plus the
reference attributes oracles read), so :class:`repro.simulate.ReplayDriver`
drives it unchanged.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence, Set,
                    Tuple, Union)

from ..pipeline.artifacts import ArtifactStore
from ..pipeline.errors import ArtifactError
from .log import AppliedDelta, PathLike, UpdateDelta, UpdateLog, synthesize_deltas
from .refresh import GenerationBundle, RefreshConfig, refresh_generation, save_generation
from .swap import EpochSwapCoordinator, SwapInterrupted, SwapReport


@dataclass(frozen=True)
class IngestEvent:
    """A delta burst due at ``at_s`` on the serving clock.

    Provide explicit ``deltas``, or a ``count``/``seed`` pair to synthesize
    them against the staging graph *at fire time* (deterministic: the staging
    graph's state at any event time is itself a pure function of the trace).
    """

    at_s: float
    deltas: Tuple[UpdateDelta, ...] = ()
    count: int = 0
    seed: int = 0


@dataclass(frozen=True)
class SwapEvent:
    """A refresh-and-flip due at ``at_s`` on the serving clock."""

    at_s: float


LiveEvent = Union[IngestEvent, SwapEvent]


class LiveSession:
    """Zero-downtime streaming updates over a running cluster."""

    def __init__(self, cluster, base: GenerationBundle, *,
                 clock: Optional[Callable[[], float]] = None,
                 log: Optional[UpdateLog] = None,
                 refresh_config: Optional[RefreshConfig] = None,
                 schedule: Sequence[LiveEvent] = (),
                 store: Optional[ArtifactStore] = None,
                 injector=None,
                 log_path: Optional[PathLike] = None) -> None:
        self.cluster = cluster
        self.log = log if log is not None else UpdateLog()
        self.refresh_config = refresh_config or RefreshConfig()
        self.store = store
        self.clock = clock
        self.injector = injector
        #: Optional JSONL write-ahead log: every ingested delta is appended
        #: here before serving resumes, and a torn tail (crash mid-append)
        #: is detected and re-synced from the in-memory log on the next burst.
        self.log_path = None if log_path is None else Path(log_path)
        self.coordinator = EpochSwapCoordinator(cluster, clock=clock,
                                                injector=injector)
        #: Every generation ever served, by number (the oracle ledger).
        self.bundles: Dict[int, GenerationBundle] = {base.generation: base}
        self.current = base
        self._staging = base.graph.copy()
        self._touched: Set[int] = set()
        self._pending = sorted(schedule, key=lambda event: event.at_s)
        if self._pending and clock is None:
            raise ValueError("a scheduled live session needs an explicit "
                             "clock (e.g. the replay's TraceClock)")
        self.applied: List[AppliedDelta] = []
        #: Degraded-serving provenance stamped on responses ("quarantined"
        #: after a rejected generation, "swap_interrupted" while a crashed
        #: swap awaits resume); cleared by the next completed swap.
        self._fault_note: Optional[str] = None
        #: Sticky marker: once a generation is quarantined the session has
        #: skipped a rung of the rollout ladder for good — cache warm-state
        #: and generation numbering diverge from the fault-free replay for
        #: the rest of the run, even after later swaps succeed.  Unlike
        #: ``_fault_note`` this never clears.
        self._degraded: Optional[str] = None
        self._interrupted: Optional[Tuple[GenerationBundle, FrozenSet[int],
                                          FrozenSet[int]]] = None
        if self.log_path is not None:
            self.log.save_jsonl(self.log_path)

    # ------------------------------------------------------------------ #
    # the serving facade (ReplayDriver-compatible)
    # ------------------------------------------------------------------ #
    def serve_many(self, requests):
        self._recover_interrupted()
        self._fire_due_events()
        return self._stamp_fault(self.cluster.serve_many(requests))

    def serve(self, request):
        self._recover_interrupted()
        self._fire_due_events()
        return self._stamp_fault([self.cluster.serve(request)])[0]

    def _stamp_fault(self, responses):
        """Mark answers served under a degraded live plane with provenance.

        While a quarantine keeps the session on an older generation, or a
        crashed swap leaves the cluster serving mixed generations, every
        answer that is not already fault-stamped by the routing layer carries
        the live plane's note — the fault-tolerance oracle matches it against
        the ledger instead of demanding bit-identity with the clean replay.
        """
        note = self._fault_note or self._degraded
        if note is not None:
            for response in responses:
                if response.fault is None:
                    response.fault = note
        return responses

    # reference surface (oracles, reports) ------------------------------ #
    @property
    def graph(self):
        return self.cluster.graph

    @property
    def recommender(self):
        return self.cluster.recommender

    @property
    def tiers(self):
        return self.cluster.tiers

    @property
    def generation(self) -> int:
        return self.current.generation

    # ------------------------------------------------------------------ #
    # the update loop
    # ------------------------------------------------------------------ #
    def _fire_due_events(self) -> None:
        if not self._pending:
            return
        now = self.clock()
        while self._pending and self._pending[0].at_s <= now:
            event = self._pending.pop(0)
            if isinstance(event, IngestEvent):
                deltas = list(event.deltas)
                if event.count:
                    deltas.extend(synthesize_deltas(
                        self._staging, event.count, seed=event.seed))
                self.ingest(deltas)
            elif isinstance(event, SwapEvent):
                self.swap()
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown live event {type(event).__name__}")

    def ingest(self, deltas: Sequence[UpdateDelta]) -> AppliedDelta:
        """Append ``deltas`` to the log and fold them into the staging graph.

        Serving is untouched: the current generation keeps answering from its
        frozen tables.  The staging graph's CSR view is refreshed via the
        incremental delta patch, so repeated small bursts stay cheap.
        """
        offset = len(self.log)
        self.log.extend(deltas)
        applied = self.log.apply(self._staging, offset)
        self._touched |= applied.touched_entities | applied.new_entities
        self._staging.adjacency()  # fold the burst into the CSR view now
        self.applied.append(applied)
        if self.log_path is not None:
            self._sync_wal(offset)
        return applied

    def _sync_wal(self, offset: int) -> None:
        """Append the new burst to the JSONL write-ahead log.

        If an earlier append was torn (the file does not end in a newline —
        a crash mid-write), heal it first: truncate to the last valid record
        and re-append everything the in-memory log holds past it, so the WAL
        always ends the burst holding the full log, bit for bit.
        """
        start = offset
        path = self.log_path
        if path.exists() and path.stat().st_size > 0:
            with open(path, "rb") as handle:
                handle.seek(-1, 2)
                torn = handle.read(1) != b"\n"
            if torn:
                recovered = UpdateLog.load_jsonl(path, recover=True)
                start = len(recovered.events)
                if self.injector is not None:
                    self.injector.record_defense(
                        "torn_log_recovery", f"log:{path.name}",
                        f"re-synced {offset - start} torn record(s)")
        self.log.append_jsonl(path, self.log.events[start:])
        if self.injector is not None:
            self.injector.after_log_append(path)

    def swap(self) -> Optional[SwapReport]:
        """Refresh to generation N+1 from the staged deltas and flip the cluster.

        A no-op (returns ``None``) when nothing was ingested since the last
        swap — serving behaviour must stay bit-identical across a vacuous
        refresh.  Otherwise: warm-start refresh off the serving path, persist
        the generation (when a store is attached), **verify every persisted
        byte against its manifest checksum before any shard flips**, then
        flip every shard with scoped cache invalidation.

        Two degraded outcomes (both return ``None`` and stamp subsequent
        answers with fault provenance):

        * verification fails → the generation is quarantined on disk, the
          cluster keeps serving the current generation, and the staged
          deltas stay staged for a later retry (``fault`` = ``quarantined``);
        * an injected crash lands mid-flip → the already-flipped shards keep
          the new generation (exactly what a real crash leaves behind) and
          :meth:`serve_many` resumes the rollout on its next call
          (``fault`` = ``swap_interrupted`` until then).
        """
        bundle = refresh_generation(self.current, self._staging,
                                    log_offset=len(self.log),
                                    config=self.refresh_config)
        if bundle is self.current:
            return None
        if self.store is not None:
            generation = bundle.generation
            # Quarantined generation numbers are burned, never reused: a
            # retry after a rejected generation persists under the next
            # free number so the quarantined bytes stay put for forensics.
            while self.store.generation_store(generation).is_quarantined:
                generation += 1
            if generation != bundle.generation:
                bundle = dataclasses.replace(bundle, generation=generation)
            gen_store = save_generation(self.store, bundle, self.log)
            if self.injector is not None:
                self.injector.after_generation_saved(gen_store,
                                                     bundle.generation)
            try:
                gen_store.verify_files()
            except ArtifactError as error:
                gen_store.quarantine(str(error))
                if self.injector is not None:
                    self.injector.record_defense(
                        "quarantine", f"generation:{bundle.generation}",
                        error.message)
                self._fault_note = "quarantined"
                self._degraded = "quarantined"
                return None
        try:
            report = self.coordinator.swap_to(bundle, self._touched)
        except SwapInterrupted as interrupt:
            # Some shards already serve the new generation: register the
            # bundle so oracles can address it, remember what recovery needs.
            self.bundles[bundle.generation] = bundle
            self._interrupted = (bundle, frozenset(self._touched),
                                 frozenset(interrupt.flipped))
            self._fault_note = "swap_interrupted"
            return None
        self._finalize_swap(bundle)
        return report

    def _finalize_swap(self, bundle: GenerationBundle) -> None:
        self.bundles[bundle.generation] = bundle
        self.current = bundle
        self._staging = bundle.graph.copy()
        self._touched = set()
        self._fault_note = None

    def _recover_interrupted(self) -> None:
        """Resume a crashed swap: flip the shards the crash left behind.

        Runs at the top of every serve call, so recovery is deterministic on
        the trace timeline — the first burst after the crash completes the
        rollout (skipping the shards that already flipped) before any of its
        requests dispatch.  A crash during the resume re-enters the same
        interrupted state and the next burst tries again.
        """
        if self._interrupted is None:
            return
        bundle, touched, flipped = self._interrupted
        self._interrupted = None
        try:
            report = self.coordinator.swap_to(bundle, set(touched),
                                              skip_shards=flipped)
        except SwapInterrupted as interrupt:
            self._interrupted = (bundle, touched, frozenset(interrupt.flipped))
            return
        self._finalize_swap(bundle)
        if self.injector is not None:
            self.injector.record_defense(
                "swap_recovery", f"generation:{bundle.generation}",
                f"resumed past shards {sorted(flipped)}; "
                f"completed {list(report.flip_order)}")

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def generation_views(self) -> Dict[int, object]:
        """A fresh single-shard view service per generation ever served.

        These are *off-path* reconstructions for the generation-scoped
        oracles: same frozen tables and search hyper-parameters as the
        services that answered, but private caches — deriving an answer
        through a view never perturbs the live cluster.
        """
        clock = self.clock or self.cluster.workers[0].service._clock
        return {generation: bundle.build_service(
                    serving_config=self.cluster.workers[0].service.config,
                    clock=clock, name=f"view@gen{generation}")
                for generation, bundle in sorted(self.bundles.items())}

    def telemetry_snapshot(self) -> Dict:
        snapshot = self.cluster.telemetry_snapshot()
        snapshot["live"] = {
            "generation": self.current.generation,
            "generations_served": sorted(self.bundles),
            "log_length": len(self.log),
            "log_signature": self.log.signature(),
            "pending_events": len(self._pending),
            "staged_deltas": len(self.log) - self.current.log_offset,
            "staging_compile_stats": self._staging.adjacency_compile_stats(),
            "swaps": [report.as_dict() for report in self.coordinator.reports],
            "fault_note": self._fault_note or self._degraded,
            "interrupted_swap": (self._interrupted is not None),
        }
        return snapshot
