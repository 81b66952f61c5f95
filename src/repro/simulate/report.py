"""Report layer: turn replay records into a summary dict and a text report.

The latency/QPS/tier aggregation reuses :class:`repro.serving.ServingTelemetry`
— the records are fed into a fresh telemetry instance whose clock follows the
trace's arrival times, so the replay report and the live service dashboards
speak the same schema (``latency_ms.p50/p95/p99``, ``tiers``, hit rates).
Percentage formatting reuses :func:`repro.eval.metrics.as_percentages`, the
same helper the paper-table code uses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..eval.metrics import as_percentages
from ..serving.telemetry import ServingTelemetry
from .oracles import OracleReport
from .replay import ReplayResult, TraceClock


def replay_telemetry(result: ReplayResult) -> ServingTelemetry:
    """Feed the replay records into a fresh telemetry over trace time."""
    clock = TraceClock()
    telemetry = ServingTelemetry(window=max(2, len(result.records)), clock=clock)
    for record in result.records:
        clock.advance_to(record.arrival_s)
        telemetry.record(record.latency_ms, record.tier, cache_hit=record.cache_hit)
    return telemetry


def summarize(result: ReplayResult,
              oracle_reports: Optional[Sequence[OracleReport]] = None) -> Dict:
    """One dict with everything a test or a dashboard wants to scrape."""
    telemetry = replay_telemetry(result)
    snapshot = telemetry.snapshot()
    total = max(1, len(result.records))
    summary = {
        "requests": len(result.records),
        "distinct_users": len({record.user_entity for record in result.records}),
        "trace_duration_s": result.workload.duration_s,
        "trace_qps": snapshot["qps"],
        "wall_seconds": result.wall_seconds,
        "replay_qps": result.replay_qps(),
        "latency_ms": snapshot["latency_ms"],
        "cache_hit_rate": result.cache_hit_rate(),
        "tier_mix": {tier: count / total
                     for tier, count in sorted(result.tier_counts().items())},
        "source_tier_mix": {tier: count / total
                            for tier, count in sorted(result.source_tier_counts().items())},
    }
    if oracle_reports is not None:
        summary["oracles"] = {report.oracle: {"checked": report.checked,
                                              "mismatches": report.mismatches}
                              for report in oracle_reports}
    return summary


def render_report(summary: Dict) -> str:
    """Human-readable report (percentages via the Table-I formatting helper)."""
    lines: List[str] = ["=== replay report ==="]
    lines.append(f"requests            {summary['requests']:>8d} "
                 f"({summary['distinct_users']} distinct users)")
    lines.append(f"trace duration      {summary['trace_duration_s']:>8.2f}s "
                 f"({summary['trace_qps']:.0f} QPS offered)")
    lines.append(f"replay wall time    {summary['wall_seconds']:>8.2f}s "
                 f"({summary['replay_qps']:.0f} QPS served)")
    latency = summary["latency_ms"]
    rendered_latency = "  ".join(f"{label}={value:.2f}"
                                 for label, value in latency.items())
    lines.append(f"latency ms          {rendered_latency}")
    lines.append(f"cache hit rate      {100.0 * summary['cache_hit_rate']:>7.1f}%")
    for title, key in (("tier mix", "tier_mix"), ("source tiers", "source_tier_mix")):
        shares = as_percentages(summary[key])
        rendered = "  ".join(f"{tier}={share:.1f}%" for tier, share in shares.items())
        lines.append(f"{title:<19s} {rendered}")
    for oracle, outcome in summary.get("oracles", {}).items():
        status = ("ok" if outcome["mismatches"] == 0
                  else f"{outcome['mismatches']} MISMATCHES")
        lines.append(f"oracle              {oracle}: "
                     f"checked {outcome['checked']}, {status}")
    lines.extend(_render_planes(summary))
    return "\n".join(lines)


def _render_planes(summary: Dict) -> List[str]:
    """The cluster, live, autoscale and fault sections a CLI summary adds."""
    lines: List[str] = []
    if "routing" in summary:
        lines.append("routing             " + "  ".join(
            f"{key}={value}" for key, value in summary["routing"].items()))
    if "breaker" in summary:
        lines.append("breaker             " + "  ".join(
            f"{shard}={state}"
            for shard, state in sorted(summary["breaker"].items())))
    if "live" in summary:
        live = summary["live"]
        lines.append(f"live                generation={live['generation']}  "
                     + "  ".join(f"gen{generation}={count}" for generation, count
                                 in live["records_by_generation"].items()))
        for swap in live["swaps"]:
            lines.append(f"  swap → gen {swap['generation']}: "
                         f"flipped shards {swap['flip_order']}, "
                         f"{swap['invalidated_entries']} cache entries "
                         f"invalidated ({swap['preserved_entries']} preserved), "
                         f"{swap['touched_entities']} entities touched")
    if "autoscale" in summary:
        scaling = summary["autoscale"]
        lines.append(f"autoscale           shards={scaling['current_shards']} "
                     f"(started {scaling['initial_shards']}, range "
                     f"[{scaling['min_shards']}, {scaling['max_shards']}], "
                     f"tick {scaling['tick_interval_s']:.3f}s)  "
                     f"ups={scaling['scale_ups']}  "
                     f"downs={scaling['scale_downs']}  "
                     f"shard_ticks={scaling['shard_ticks']}  "
                     f"migrated={scaling['migrated_entries']}")
        for event in scaling["events"]:
            lines.append(f"  t={event['at_s']:7.2f}s scale-{event['action']}: "
                         f"{event['from_shards']} → {event['to_shards']} "
                         f"shards (shard {event['shard_id']}, "
                         f"{event['reason']}, {event['migrated_entries']} "
                         f"entries migrated)")
    if "faults" in summary:
        faults = summary["faults"]
        lines.append(f"fault ledger        {faults['ledger_entries']} entries: "
                     + "  ".join(f"{kind}={count}" for kind, count
                                 in faults["ledger_kinds"].items()))
        lines.append(f"faulted answers     {faults['faulted_answers']} of "
                     f"{faults['answered']} carry fault provenance")
    if "replay_signature" in summary:
        lines.append(f"replay signature    "
                     f"{summary['replay_signature'][:32]}…")
    return lines
