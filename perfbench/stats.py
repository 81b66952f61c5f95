"""Metric math of the benchmark: percentiles, lateness, failures and units.

Everything here is pure and unit-tested (``test_stats.py``); the workloads
only collect raw samples and hand them to these helpers.

* :func:`percentile` is the nearest-rank percentile, refused unless at least
  ten samples lie beyond it — a p99 needs 1000 samples, a p50 twenty.
* :func:`latency_ms` measures a request from its *due* time, so a stall is
  charged to every request queued behind it, or from its send time (service
  time); :func:`lateness_ms` is how late the send was.
* :func:`failure_frac` counts failed operations against attempted ones.
* :data:`END_TO_END` and :data:`PER_LAYER` attach a unit to every metric the
  benchmark prints; :func:`result_line` refuses a metric set that is not
  exactly the one a mode promises.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "pipeline_s": "s",
    "ndcg_at_10": "%",
    "hr_at_10": "%",
    "service_p99_ms": "ms",
    "capacity_qps": "req/s",
    "full_answer_frac": "fraction",
    "update_visible_s": "s",
    "peak_rss_mb": "MB",
}

#: Pipeline stages as the per-layer metric names spell them.
STAGES = ("data", "kg", "embed", "cggnn", "train", "eval", "serve_check")

#: Layers whose self time is reported (span-name prefixes).
LAYERS = ("pipeline", "darl", "nn", "embeddings", "cggnn", "cluster",
          "serving", "inference", "live")

_TRAIN = "pipeline_s on train-paper"
_DARL = "pipeline_s on train-paper; no serve workload"
_EMBED = "pipeline_s on train-paper; update_visible_s on both"
_ROUTE = "capacity_qps on serve-live and train-paper"
_SEARCH = "service_p99_ms and capacity_qps on both"
_INGEST = "service_p99_ms on serve-live"
_SWAP = "update_visible_s on serve-live"
_NONE = "none: checks the measurement itself"

#: Per-layer metrics (``--trace 1``): name -> (unit, better, the end-to-end
#: metric and workload a change to this layer should move).  A layer a
#: workload does not exercise reads 0 there.
LAYER_METRICS: Dict[str, Tuple[str, str, str]] = {
    **{f"pipeline.{stage}_s": ("s", "lower", _TRAIN) for stage in STAGES},
    "pipeline.stage_sum_s": ("s", "lower", _TRAIN),
    "darl.episodes": ("count", "lower", _DARL),
    "darl.rollout_s": ("s", "lower", _DARL),
    "darl.backward_s": ("s", "lower", _DARL),
    "darl.optim_s": ("s", "lower", _DARL),
    "darl.train_share": ("fraction", "lower", _DARL),
    "nn.tensors": ("count", "lower", _DARL),
    "embeddings.transe_s": ("s", "lower", _EMBED),
    "embeddings.transe_epochs": ("count", "lower", _EMBED),
    "cggnn.train_s": ("s", "lower", _EMBED),
    "cggnn.epochs": ("count", "lower", _EMBED),
    "cluster.route_us": ("us", "lower", _ROUTE),
    "cluster.primary": ("count", "higher", _ROUTE),
    "cluster.failover": ("count", "lower", _ROUTE),
    "cluster.overflow": ("count", "lower", _ROUTE),
    "cluster.shed": ("count", "lower", _ROUTE),
    "serving.shard_serve_ms": ("ms", "lower", _ROUTE),
    "serving.batch_size": ("count", "higher", _ROUTE),
    "serving.cache_lookups": ("count", "lower", _ROUTE),
    "serving.cache_hit_frac": ("fraction", "higher", _ROUTE),
    "serving.tier_full_frac": ("fraction", "lower", _ROUTE),
    "serving.tier_cache_frac": ("fraction", "higher", _ROUTE),
    "serving.tier_stale_frac": ("fraction", "lower", _ROUTE),
    "serving.tier_embedding_frac": ("fraction", "lower", _ROUTE),
    "serving.fallback_ms": ("ms", "lower", _ROUTE),
    "inference.searches": ("count", "lower", _SEARCH),
    "inference.search_ms": ("ms", "lower", _SEARCH),
    "inference.milestone_ms": ("ms", "lower", _SEARCH),
    "live.ingest_ms": ("ms", "lower", _INGEST),
    "live.refresh_s": ("s", "lower", _SWAP),
    "live.flip_ms": ("ms", "lower", _SWAP),
    "live.invalidated_entries": ("count", "lower", _INGEST),
    "bench.generator_lag_ms": ("ms", "lower", _NONE),
    "bench.trace_overhead_frac": ("fraction", "lower", _NONE),
    "layer.pipeline.self_s": ("s", "lower", _TRAIN),
    "layer.darl.self_s": ("s", "lower", _DARL),
    "layer.nn.self_s": ("s", "lower", _DARL),
    "layer.embeddings.self_s": ("s", "lower", _EMBED),
    "layer.cggnn.self_s": ("s", "lower", _EMBED),
    "layer.cluster.self_s": ("s", "lower", _ROUTE),
    "layer.serving.self_s": ("s", "lower", _ROUTE),
    "layer.inference.self_s": ("s", "lower", _SEARCH),
    "layer.live.self_s": ("s", "lower", _SWAP),
}

#: Per-layer metrics: name -> unit.
PER_LAYER: Dict[str, str] = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}


class UnsupportedPercentile(ValueError):
    """Too few samples lie beyond the requested percentile to report it."""


def _rank(count: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``count`` samples.

    Exact rational arithmetic: ``0.99 * 1000`` must give rank 990, not 991.
    """
    rank = math.ceil(Fraction(str(q)) * count / 100)
    return min(max(rank, 1), count)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` sorted samples lie strictly past the q-th rank."""
    if count <= 0:
        return 0
    return count - _rank(count, q)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, refused with fewer than 10 samples beyond it."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q}")
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_BEYOND:
        raise UnsupportedPercentile(
            f"p{q} of {len(values)} samples has only {beyond} beyond it; "
            f"at least {MIN_BEYOND} are required")
    return sorted(values)[_rank(len(values), q) - 1]


def latency_ms(due_s: float, done_s: float) -> float:
    """Request latency measured from when it was due, not when it was sent."""
    return (done_s - due_s) * 1000.0


def lateness_ms(due_s: float, sent_s: float) -> float:
    """How late the generator sent a request (never negative)."""
    return max(0.0, sent_s - due_s) * 1000.0


def failure_frac(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones."""
    if attempted <= 0:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for no samples (a layer that did no work)."""
    values = list(values)
    return math.fsum(values) / len(values) if values else 0.0


def metric_block(values: Mapping[str, float], units: Mapping[str, str]
                 ) -> Dict[str, Dict[str, float]]:
    """``{name: {"value", "unit"}}`` for exactly the metrics of ``units``."""
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise KeyError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    block = {}
    for name, unit in units.items():
        value = float(values[name])
        block[name] = {"value": value if math.isfinite(value) else None,
                       "unit": unit}
    return block


def result_line(*, correct: bool, attempted: int, failed: int,
                values: Mapping[str, float], trace: bool) -> str:
    """The single JSON line the benchmark ends its output with."""
    failure_frac(failed, attempted)  # validates the counts
    units = PER_LAYER if trace else END_TO_END
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed),
                       "metrics": metric_block(values, units)})


def format_table(values: Mapping[str, float], units: Mapping[str, str]) -> List[str]:
    """Human-readable ``name value unit`` lines, in declaration order."""
    return [f"  {name:<28} {values[name]:>14.6g} {unit}"
            for name, unit in units.items()]
