"""Deterministic traffic simulation and load replay for the serving stack.

The package turns "does the serving stack survive load?" into a scripted,
seeded experiment:

* :mod:`~repro.simulate.workload` — seeded workload generation: Zipf-skewed
  user popularity, cold-start fractions and uniform/Poisson/bursty arrival
  processes, serialised as replayable :class:`Workload` traces with a content
  ``signature()`` for determinism checks.
* :mod:`~repro.simulate.replay` — the :class:`ReplayDriver` feeds a trace
  through a :class:`repro.serving.RecommendationService` (open- or
  closed-loop) and collects per-request :class:`RequestRecord`\\ s.
* :mod:`~repro.simulate.oracles` — correctness oracles replaying served
  answers against direct ``PathRecommender`` searches on the generation that
  computed them (exact for full-search payloads, relaxed validity invariants
  for the fallback tiers).
* :mod:`~repro.simulate.stack` — replay stacks: a frozen :class:`StackSpec`,
  :func:`build_stack` (the one place a service is wrapped in fault,
  autoscale and live planes) and :func:`audit` (the oracle battery that
  matches a stack's planes).
* :mod:`~repro.simulate.report` — summary + text report built on the
  existing serving telemetry types.

Typical use, over a trained :class:`repro.pipeline.PipelineResult`::

    stack = build_stack(result, StackSpec(workload_seed=7))
    replay = stack.replay()
    reports = audit(stack.front, replay.records, full_search_sample=50, seed=0)
    print(render_report(summarize(replay, reports)))
"""

from .oracles import (
    FallbackValidityOracle,
    FaultToleranceOracle,
    FullSearchOracle,
    OracleFinding,
    OracleReport,
    ScalingOracle,
    StaleConsistencyOracle,
)
from .replay import ReplayConfig, ReplayDriver, ReplayResult, RequestRecord, TraceClock
from .report import render_report, replay_telemetry, summarize
from .stack import (Stack, StackSpec, audit, build_stack, run_live_oracles,
                    run_oracles)
from .workload import (
    ARRIVAL_PROCESSES,
    SimulatedRequest,
    UserPopulation,
    Workload,
    WorkloadConfig,
    WorkloadSchemaError,
    generate_workload,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "FallbackValidityOracle",
    "FaultToleranceOracle",
    "FullSearchOracle",
    "OracleFinding",
    "OracleReport",
    "ReplayConfig",
    "ReplayDriver",
    "ReplayResult",
    "RequestRecord",
    "ScalingOracle",
    "SimulatedRequest",
    "Stack",
    "StackSpec",
    "StaleConsistencyOracle",
    "TraceClock",
    "UserPopulation",
    "Workload",
    "WorkloadConfig",
    "WorkloadSchemaError",
    "audit",
    "build_stack",
    "generate_workload",
    "render_report",
    "replay_telemetry",
    "run_live_oracles",
    "run_oracles",
    "summarize",
]
