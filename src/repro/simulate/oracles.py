"""Correctness oracles: replayed results checked against ground truth.

Serving a request can legitimately answer from four tiers, and "correct" means
something different per tier.  Each oracle re-derives the expected answer for
the tiers it understands and reports mismatches as :class:`OracleFinding`\\ s.
Every answer is stamped with the artifact generation that computed it, and
the first two oracles check it against *that* generation's tables — a plain
service is the one-generation ledger ``{0: service}``, a live session's
:meth:`~repro.live.LiveSession.generation_views` holds every generation it
served.  An answer stamped with a generation outside the ledger is a finding.

* :class:`FullSearchOracle` — responses whose payload was computed by the full
  beam search (``source_tier == FULL``, i.e. fresh full searches *and* cache
  hits on them) must match a direct ``PathRecommender.recommend`` call on
  their generation exactly, item for item and in order.
* :class:`FallbackValidityOracle` — every response must satisfy the universal
  invariants (unique items, at most ``top_k`` of them, exclusions respected,
  only item entities *of its generation* — an item a later generation
  introduced proves a torn answer — and paths that end at their item and
  respect ``min_path_length``); embedding-tier payloads must additionally
  reproduce the deterministic fallback ranking, and tier choice must match
  policy (cold users never get the full search, unconstrained warm misses
  always do, shed requests never do).
* :class:`StaleConsistencyOracle` — a stale response must replay, verbatim,
  the most recent non-stale answer served for the same cache key earlier in
  the trace.
* :class:`ScalingOracle` — scale events may change provenance, never answers.
* :class:`FaultToleranceOracle` — under an injected fault plan, every request
  is still answered, and every answer is either bit-identical (items) to the
  fault-free same-seed replay or carries degraded ``fault`` provenance that a
  fault-ledger entry explains.  Divergence without provenance, and provenance
  without a matching ledgered cause, are both findings.

:func:`repro.simulate.audit` picks the battery that matches a stack's planes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

import numpy as np

from ..serving.fallback import ServingTier
from .replay import RequestRecord


@dataclass(frozen=True)
class OracleFinding:
    """One violated expectation, anchored to a trace index."""

    oracle: str
    index: int
    user_entity: int
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"[{self.oracle}] request #{self.index} "
                f"(user {self.user_entity}): {self.message}")


@dataclass
class OracleReport:
    """Outcome of one oracle pass over a record list."""

    oracle: str
    checked: int = 0
    findings: List[OracleFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def mismatches(self) -> int:
        return len(self.findings)

    def add(self, record: RequestRecord, message: str) -> None:
        self.findings.append(OracleFinding(oracle=self.oracle, index=record.index,
                                           user_entity=record.user_entity,
                                           message=message))

    def summary(self) -> str:
        status = "ok" if self.ok else f"{self.mismatches} mismatches"
        return f"{self.oracle}: checked {self.checked} requests, {status}"


class _GenerationScoped:
    """An oracle over a generation ledger: generation number → view.

    A view is anything service-like (``.graph``, ``.recommender``,
    ``.tiers``) over exactly one generation's frozen tables.
    """

    def __init__(self, views: Mapping[int, object]) -> None:
        if not views:
            raise ValueError("the oracle needs at least one generation view")
        self.views = dict(views)

    def _view(self, record: RequestRecord, report: OracleReport):
        """The view of the record's generation; a finding if there is none."""
        view = self.views.get(record.generation)
        if view is None:
            report.add(record, f"answer stamped with unknown generation "
                               f"{record.generation} (ledger has "
                               f"{sorted(self.views)})")
        return view


class FullSearchOracle(_GenerationScoped):
    """Exact-match oracle for payloads produced by the full beam search."""

    name = "full_search_oracle"

    def check(self, records: Sequence[RequestRecord],
              sample_size: Optional[int] = None, seed: int = 0) -> OracleReport:
        """Recompute a (sampled) set of FULL-provenance answers and compare.

        ``sample_size`` bounds the number of re-searches across all
        generations (they cost a full beam search each); ``None`` checks
        every eligible record.
        """
        report = OracleReport(oracle=self.name)
        eligible = [record for record in records
                    if record.source_tier is ServingTier.FULL]
        if sample_size is not None and sample_size < len(eligible):
            rng = np.random.default_rng(seed)
            chosen = rng.choice(len(eligible), size=sample_size, replace=False)
            eligible = [eligible[i] for i in sorted(chosen)]
        # Records sharing a generation and cache key share one expected
        # answer — memoise so a Zipf-skewed trace (many cache hits per key)
        # costs one beam search per distinct key instead of one per record.
        expected_by_key: dict = {}
        for record in eligible:
            report.checked += 1
            view = self._view(record, report)
            if view is None:
                continue
            key = (record.generation, record.cache_key())
            expected_items = expected_by_key.get(key)
            if expected_items is None:
                expected = view.recommender.recommend(
                    record.user_entity, exclude_items=set(record.exclude_items),
                    top_k=record.top_k)
                expected_items = tuple(path.item_entity for path in expected)
                expected_by_key[key] = expected_items
            if record.items != expected_items:
                report.add(record, f"served items {list(record.items)} != "
                                   f"generation {record.generation} direct "
                                   f"search {list(expected_items)}")
        return report


class FallbackValidityOracle(_GenerationScoped):
    """Universal invariants plus relaxed per-tier checks for degraded answers."""

    name = "fallback_validity_oracle"

    def check(self, records: Sequence[RequestRecord]) -> OracleReport:
        report = OracleReport(oracle=self.name)
        expected_by_key: dict = {}
        for record in records:
            report.checked += 1
            view = self._view(record, report)
            if view is None:
                continue
            self._check_universal(record, view, report)
            if record.source_tier is ServingTier.EMBEDDING:
                self._check_embedding(record, view, report, expected_by_key)
            self._check_tier_policy(record, view, report)
        return report

    # ------------------------------------------------------------------ #
    def _check_universal(self, record: RequestRecord, view,
                         report: OracleReport) -> None:
        items = record.items
        if len(items) > record.top_k:
            report.add(record, f"{len(items)} items exceed top_k={record.top_k}")
        if len(set(items)) != len(items):
            report.add(record, f"duplicate items in {list(items)}")
        leaked = set(items) & set(record.exclude_items)
        if leaked:
            report.add(record, f"excluded items served: {sorted(leaked)}")
        # The generation-scoped item check: entity ids beyond this
        # generation's tables (or non-item ids) prove a torn answer.
        torn = [entity for entity in items
                if entity not in view.graph.entities
                or not view.graph.entities.is_item(entity)]
        if torn:
            report.add(record, f"items invalid for generation "
                               f"{record.generation}: {torn}")
        for path in record.paths:
            if path.item_entity != (path.hops[-1][1] if path.hops else None):
                report.add(record, f"path does not end at its item: {path}")
            if path.length < view.recommender.config.min_path_length:
                report.add(record, f"path shorter than min_path_length: {path}")

    def _check_embedding(self, record: RequestRecord, view,
                         report: OracleReport, expected_by_key: dict) -> None:
        """Embedding answers are deterministic — recompute (once per key) and compare."""
        key = (record.generation, record.cache_key())
        expected = expected_by_key.get(key)
        if expected is None:
            expected = tuple(view.tiers.fallback_items(record))
            expected_by_key[key] = expected
        if record.items != expected:
            report.add(record, f"embedding items {list(record.items)} != "
                               f"recomputed ranking {list(expected)}")

    def _check_tier_policy(self, record: RequestRecord, view,
                           report: OracleReport) -> None:
        cold = view.tiers.is_cold(record.user_entity)
        if cold and record.source_tier is ServingTier.FULL:
            report.add(record, "cold user served a full-search payload")
        if (not cold and not record.cache_hit
                and record.latency_budget_ms is None
                and not record.shed
                and record.tier is not ServingTier.FULL):
            # Shed answers are exempt: cluster backpressure legitimately
            # degrades an unconstrained request into the fallback chain, and
            # the record says so explicitly.
            report.add(record, f"unconstrained warm miss served from "
                               f"'{record.tier.value}' instead of full search")
        if record.shed and record.tier is ServingTier.FULL:
            # A shed request may still hit the shard's fresh cache (free and
            # full quality), but it must never run the full search it was
            # shed to avoid.
            report.add(record, "shed request ran the full beam search "
                               "instead of the fallback tier chain")


class StaleConsistencyOracle:
    """Stale answers must replay an earlier answer for the same cache key."""

    name = "stale_consistency_oracle"

    def __init__(self, service) -> None:
        self.service = service

    def check(self, records: Sequence[RequestRecord],
              strict: bool = False) -> OracleReport:
        """Compare each stale answer to the last in-window cached answer.

        A cache entry may legitimately predate ``records`` (``warm_up()``, a
        previous replay against the same service), in which case the oracle
        has nothing to compare against; such stale answers are counted as
        checked but only flagged under ``strict=True`` — use strict mode when
        ``records`` is known to span the service's whole serving history.
        """
        report = OracleReport(oracle=self.name)
        last_cached: dict = {}
        for record in records:
            key = record.cache_key()
            if record.tier is ServingTier.STALE:
                report.checked += 1
                earlier = last_cached.get(key)
                if earlier is None:
                    if strict:
                        report.add(record, "stale answer with no earlier "
                                           "cached result for its cache key")
                elif record.items != earlier:
                    report.add(record, f"stale items {list(record.items)} != "
                                       f"cached answer {list(earlier)}")
            elif self._updates_cache(record):
                last_cached[key] = record.items
        return report

    def _updates_cache(self, record: RequestRecord) -> bool:
        """Which responses reflect the cache content for their key.

        Full searches and cold-user embedding answers are written to the
        cache; cache hits echo its current content.  Warm over-budget
        embedding answers are deliberately *not* cached by the service, so
        they must not count as the entry a later stale hit will replay.
        """
        if record.tier in (ServingTier.FULL, ServingTier.CACHE):
            return True
        return (record.tier is ServingTier.EMBEDDING
                and self.service.tiers.is_cold(record.user_entity))


class ScalingOracle:
    """Scale events may change provenance, never answers.

    Runs over an autoscaled replay (``autoscaler`` is a
    :class:`repro.cluster.Autoscaler`) and checks two families of invariants:

    * **event-chain structure** — the recorded :class:`~repro.cluster.ScaleEvent`
      sequence must be a walk of ±1 steps starting at the autoscaler's initial
      shard count, staying inside ``[min_shards, max_shards]``, with strictly
      increasing tick indices and non-decreasing trace times;
    * **answer stability across scaling** — every shard serves the same frozen
      tables, so two answers computed by the same tier for the same cache key
      must be identical no matter which shard (pre- or post-scaling) produced
      them; and a fresh cache hit must echo the latest computed answer for its
      key — if warm migration handed the entry to a new owner, the payload must
      have survived the move bit-for-bit.  (Like the stale oracle, hits whose
      entry predates the record list — ``warm_up()``, an earlier replay — have
      nothing in-trace to compare against and are only counted.)
    """

    name = "scaling_oracle"

    def __init__(self, autoscaler) -> None:
        self.autoscaler = autoscaler

    def check(self, records: Sequence[RequestRecord]) -> OracleReport:
        report = OracleReport(oracle=self.name)
        self._check_events(report)
        self._check_records(records, report)
        return report

    # ------------------------------------------------------------------ #
    def _structural(self, report: OracleReport, message: str) -> None:
        """A finding about the event ledger itself, not any one request."""
        report.findings.append(OracleFinding(
            oracle=self.name, index=-1, user_entity=-1, message=message))

    def _check_events(self, report: OracleReport) -> None:
        config = self.autoscaler.config
        shards = self.autoscaler.initial_shards
        last_tick = 0
        last_at = float("-inf")
        for event in self.autoscaler.events:
            if event.action not in ("up", "down"):
                self._structural(report, f"unknown action {event.action!r} "
                                         f"at tick {event.tick}")
                continue
            step = 1 if event.action == "up" else -1
            if event.from_shards != shards:
                self._structural(report,
                                 f"tick {event.tick}: event starts from "
                                 f"{event.from_shards} shards but the chain "
                                 f"stands at {shards}")
            if event.to_shards != event.from_shards + step:
                self._structural(report,
                                 f"tick {event.tick}: scale-{event.action} "
                                 f"went {event.from_shards} → "
                                 f"{event.to_shards}, not a ±1 step")
            if not config.min_shards <= event.to_shards <= config.max_shards:
                self._structural(report,
                                 f"tick {event.tick}: {event.to_shards} shards "
                                 f"violates [{config.min_shards}, "
                                 f"{config.max_shards}]")
            if event.tick <= last_tick:
                self._structural(report,
                                 f"tick {event.tick} not after tick {last_tick}")
            if event.at_s < last_at:
                self._structural(report,
                                 f"tick {event.tick}: trace time {event.at_s} "
                                 f"moved backwards")
            shards = event.to_shards
            last_tick = event.tick
            last_at = event.at_s
        if self.autoscaler.num_shards != shards:
            self._structural(report,
                             f"event chain ends at {shards} shards but the "
                             f"cluster has {self.autoscaler.num_shards}")

    def _check_records(self, records: Sequence[RequestRecord],
                       report: OracleReport) -> None:
        stable: dict = {}        # (source tier, cache key) -> first answer
        computed: dict = {}      # cache key -> latest computed answer
        for record in records:
            report.checked += 1
            key = record.cache_key()
            identity = (record.source_tier.value, key)
            earlier = stable.get(identity)
            if earlier is None:
                stable[identity] = record.items
            elif record.items != earlier:
                report.add(record,
                           f"{record.source_tier.value} answer changed across "
                           f"scaling: {list(earlier)} then "
                           f"{list(record.items)}")
            if record.tier is ServingTier.CACHE:
                expected = computed.get(key)
                if expected is not None and record.items != expected:
                    report.add(record,
                               f"cache hit {list(record.items)} != latest "
                               f"computed answer {list(expected)} (entry "
                               f"corrupted in flight?)")
            elif record.tier is ServingTier.FULL or (
                    record.tier is ServingTier.EMBEDDING
                    and self.autoscaler.tiers.is_cold(record.user_entity)):
                # The responses the service writes to the cache — what any
                # later fresh hit (possibly on another shard, post-migration)
                # must reproduce.
                computed[key] = record.items


class FaultToleranceOracle:
    """Self-healing audit: a faulted replay against its fault-free twin.

    ``baseline_records`` come from a same-seed replay of the identical stack
    with no faults injected; ``ledger`` is the run's
    :class:`repro.faults.FaultLedger` (anything exposing ``kinds()``).  The
    oracle enforces the fault-tolerance contract:

    * **100% answered** — the faulted replay serves exactly as many requests
      as the clean one (faults may degrade answers, never drop them);
    * **explained divergence only** — an answer whose items differ from the
      clean replay must carry ``fault`` provenance, and that provenance must
      map to at least one ledgered fault kind that can cause it;
    * **no phantom provenance** — a ``fault`` stamp whose explaining fault
      kind never fired (per the ledger) is itself a finding.

    Items are the identity: a retried answer may legitimately come off a
    replica with different tier/cache placement, but the *payload* must match
    the clean replay unless provenance says otherwise.
    """

    name = "fault_tolerance_oracle"

    #: fault provenance value → ledger entry kinds that explain it.
    PROVENANCE_EXPLANATIONS = {
        "circuit_open": frozenset({"breaker_open"}),
        "retried": frozenset({"retry"}),
        "retry_exhausted": frozenset({"shard_exception", "latency_stall",
                                      "shard_down"}),
        "quarantined": frozenset({"quarantine"}),
        "swap_interrupted": frozenset({"crash_mid_swap"}),
    }

    def __init__(self, baseline_records: Sequence[RequestRecord],
                 ledger=None) -> None:
        self.baseline = list(baseline_records)
        self.ledger = ledger

    def check(self, records: Sequence[RequestRecord]) -> OracleReport:
        report = OracleReport(oracle=self.name)
        if len(records) != len(self.baseline):
            report.findings.append(OracleFinding(
                oracle=self.name, index=len(records), user_entity=-1,
                message=f"faulted replay answered {len(records)} requests, "
                        f"clean replay answered {len(self.baseline)} — every "
                        f"request must be answered under faults"))
        ledger_kinds = (set(self.ledger.kinds())
                        if self.ledger is not None else set())
        for record, base in zip(records, self.baseline):
            report.checked += 1
            if record.fault is None:
                if record.items != base.items:
                    report.add(record,
                               f"items {list(record.items)} diverge from the "
                               f"fault-free replay's {list(base.items)} with "
                               f"no fault provenance")
                continue
            explains = self.PROVENANCE_EXPLANATIONS.get(record.fault)
            if explains is None:
                report.add(record,
                           f"unknown fault provenance {record.fault!r}")
            elif not explains & ledger_kinds:
                report.add(record,
                           f"fault provenance {record.fault!r} but no "
                           f"explaining fault in the ledger (needs one of "
                           f"{sorted(explains)}; ledger has "
                           f"{sorted(ledger_kinds)})")
        return report
