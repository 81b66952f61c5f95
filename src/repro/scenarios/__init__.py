"""repro.scenarios — composable adversarial & lifelike workloads + explorer.

The scenario layer turns :mod:`repro.simulate`'s single-shape traces into an
experiment grid: :class:`Scenario` pipelines of seeded, JSON round-trippable
workload transforms (phase schedules, diurnal cycles, flash crowds, user
cohorts, cache-busting adversaries, shard-targeted hot keys), a named
registry with committed specs under ``examples/scenarios/``, and an
:class:`Explorer` that sweeps scenarios × cluster configs through k seeded
episodes each and emits a deterministic :class:`ComparisonMatrix`.
"""

from .combinators import (CacheBuster, CohortCorrelation, DiurnalModulation,
                          FlashCrowd, HotShardTargeting, Phase, PhaseSchedule,
                          Scenario, ScenarioContext, ScenarioError,
                          transform_from_dict)
from .explorer import (ComparisonMatrix, EpisodeStats, CellResult, Explorer,
                       ExplorerConfig, column_name, render_matrix)
from .registry import (get_scenario, load_scenario, register, scenario_names)

__all__ = [
    "CacheBuster", "CohortCorrelation", "DiurnalModulation", "FlashCrowd",
    "HotShardTargeting", "Phase", "PhaseSchedule", "Scenario",
    "ScenarioContext", "ScenarioError", "transform_from_dict",
    "ComparisonMatrix", "EpisodeStats", "CellResult", "Explorer",
    "ExplorerConfig", "column_name", "render_matrix",
    "get_scenario", "load_scenario", "register", "scenario_names",
]
