"""Reproduction of CADRL (ICDE 2025): category-aware dual-agent RL for
explainable recommendations over knowledge graphs.

Public API highlights
---------------------
* :mod:`repro.data` — synthetic Amazon-style datasets and presets.
* :mod:`repro.kg` — the knowledge graph and category graph substrates.
* :mod:`repro.embeddings` — TransE pre-training.
* :mod:`repro.cggnn` — the category-aware gated graph neural network.
* :mod:`repro.darl` — the dual-agent RL framework (CADRL proper).
* :mod:`repro.baselines` — the comparison methods from Table I/III.
* :mod:`repro.eval` — ranking metrics, timing and explanation tooling.
* :mod:`repro.experiments` — one module per paper table/figure.
* :mod:`repro.pipeline` — the unified stage-based pipeline: a typed,
  JSON-round-trippable :class:`~repro.pipeline.RunConfig`, dependency-ordered
  stages with fingerprint caching, and on-disk artifact persistence
  (``save_pipeline`` / ``load_pipeline``) behind the ``python -m repro`` CLI.
* :mod:`repro.serving` — the online serving subsystem: a
  :class:`~repro.serving.RecommendationService` facade over the trained
  artifacts with result caching, batched inference, tiered fallbacks
  (full beam search → stale cache → embedding top-k) and rolling telemetry.
* :mod:`repro.simulate` — deterministic traffic simulation: seeded workload
  traces (Zipf popularity, cold-start, bursty arrivals), an open/closed-loop
  replay driver and correctness oracles over the serving stack.
* :mod:`repro.cluster` — sharded, replicated multi-worker serving: a
  consistent-hash router over N shard workers with R-way replication,
  deterministic failover, admission control (overflow → replicas, saturation
  → shed) and exact cluster-wide telemetry, behind the same
  ``serve``/``serve_many`` facade as a single service.
* :mod:`repro.perf` — the performance rail: seeded benchmarks
  (``python -m repro bench``), frozen scalar reference implementations of the
  vectorised hot paths, and the baseline-JSON regression gate.
* :mod:`repro.analysis` — the AST-based invariant linter
  (``python -m repro lint``): a pluggable rule battery enforcing the repo's
  determinism, clock-injection and NaN-measurement conventions statically,
  with inline suppressions and a committed baseline.
* :mod:`repro.live` — zero-downtime streaming updates: an append-only
  replayable update log, incremental CSR adjacency patching, warm-started
  few-epoch TransE/CGGNN refreshes producing generation-versioned artifacts,
  and shard-by-shard cluster swaps with scoped cache invalidation.

Subpackages are imported lazily: ``import repro; repro.serving`` works without
eagerly paying for the heavier training imports.
"""

import importlib

__version__ = "0.1.0"

#: Subpackages exposed as lazy attributes of :mod:`repro`.
_SUBPACKAGES = (
    "analysis",
    "baselines",
    "cggnn",
    "cluster",
    "darl",
    "data",
    "embeddings",
    "eval",
    "experiments",
    "kg",
    "live",
    "nn",
    "perf",
    "pipeline",
    "rl",
    "serving",
    "simulate",
)

__all__ = ["__version__", *_SUBPACKAGES]


def __getattr__(name: str):
    """Import subpackages on first attribute access (PEP 562)."""
    if name in _SUBPACKAGES:
        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module  # cache: later accesses skip __getattr__
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
