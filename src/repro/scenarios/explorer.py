"""The Explorer: k seeded episodes per (scenario × cluster config) cell.

One replay is an anecdote.  The :class:`Explorer` turns the repo's rails into
an experiment grid: for every cell of ``scenarios × cluster configs`` it runs
``episodes`` independent seeded episodes — generate a trace, transform it
through the scenario, replay it in virtual time through a fresh cluster via
the existing :class:`~repro.simulate.replay.ReplayDriver`, audit it with the
oracle battery — and accumulates per-episode statistics (shed rate, p95/p99,
cache hit rate, tier mix, peak-shard load share, oracle findings) into a
:class:`ComparisonMatrix` with a text and JSON report.

Everything runs in virtual time off seeded generators, so the matrix is a
pure function of ``(scenarios, configs, ExplorerConfig)``:
:meth:`ComparisonMatrix.signature` hashes the canonical JSON and two runs
with the same inputs must produce bit-identical signatures — the property
the CI ``scenario-matrix`` job asserts.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..canonical import canonical_sha256
from ..cluster.config import ClusterConfig
from ..simulate.replay import ReplayConfig
from ..simulate.report import replay_telemetry
from ..simulate.stack import StackSpec, audit, build_stack
from ..simulate.workload import (UserPopulation, Workload, WorkloadConfig,
                                 generate_workload)
from .combinators import Scenario, ScenarioContext


def _mean(values: Sequence[float]) -> float:
    """Plain mean; NaN when there is nothing to average (never 0.0)."""
    finite = [value for value in values if math.isfinite(value)]
    if not finite:
        return float("nan")
    return sum(finite) / len(finite)


def column_name(config: ClusterConfig) -> str:
    """The matrix column a cluster config fills: ``"<num_shards>-shard"``."""
    return f"{config.num_shards}-shard"


@dataclass
class ExplorerConfig:
    """How many episodes per cell, and the shape of each episode's trace."""

    episodes: int = 3
    seed: int = 0
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    replay: ReplayConfig = field(default_factory=ReplayConfig)
    #: Exact-replay oracle sample per episode (None checks every full-search
    #: record — expensive; CI uses a small sample).
    full_search_sample: Optional[int] = 25

    def validate(self) -> None:
        if self.episodes <= 0:
            raise ValueError("episodes must be positive")
        self.workload.validate()
        self.replay.validate()

    def episode_seed(self, episode: int) -> int:
        """Workload seed for one episode — base seed plus episode index."""
        return self.seed + self.workload.seed + episode


@dataclass(frozen=True)
class EpisodeStats:
    """Everything measured about one seeded episode of one cell."""

    episode: int
    seed: int
    requests: int
    answered: int
    shed: int
    shed_rate: float
    cache_hit_rate: float
    p95_ms: float
    p99_ms: float
    tier_mix: Dict[str, float]
    peak_shard_share: float
    oracle_mismatches: int
    workload_signature: str
    replay_signature: str


@dataclass
class CellResult:
    """One (scenario × cluster config) cell: its episodes plus aggregates."""

    scenario: str
    spec: str
    episodes: List[EpisodeStats] = field(default_factory=list)

    def aggregates(self) -> Dict[str, float]:
        return {
            "episodes": float(len(self.episodes)),
            "mean_shed_rate": _mean([e.shed_rate for e in self.episodes]),
            "mean_cache_hit_rate": _mean([e.cache_hit_rate
                                          for e in self.episodes]),
            "mean_p95_ms": _mean([e.p95_ms for e in self.episodes]),
            "mean_p99_ms": _mean([e.p99_ms for e in self.episodes]),
            "mean_peak_shard_share": _mean([e.peak_shard_share
                                            for e in self.episodes]),
            "oracle_mismatches": float(sum(e.oracle_mismatches
                                           for e in self.episodes)),
        }


@dataclass
class ComparisonMatrix:
    """The full grid: scenario rows × cluster-config columns."""

    scenarios: Tuple[str, ...]
    specs: Tuple[str, ...]
    cells: List[CellResult] = field(default_factory=list)

    def cell(self, scenario: str, spec: str) -> CellResult:
        for candidate in self.cells:
            if candidate.scenario == scenario and candidate.spec == spec:
                return candidate
        raise KeyError(f"no cell ({scenario!r}, {spec!r})")

    def total_oracle_mismatches(self) -> int:
        return sum(episode.oracle_mismatches
                   for cell in self.cells for episode in cell.episodes)

    def total_shed(self) -> int:
        return sum(episode.shed
                   for cell in self.cells for episode in cell.episodes)

    def all_answered(self) -> bool:
        """Every request of every episode got an answer (shed counts too —
        shedding degrades provenance, it never drops the request)."""
        return all(episode.answered == episode.requests
                   for cell in self.cells for episode in cell.episodes)

    # ------------------------------------------------------------------ #
    # serialisation & identity
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        return {
            "scenarios": list(self.scenarios),
            "specs": list(self.specs),
            "cells": [{
                "scenario": cell.scenario,
                "spec": cell.spec,
                "aggregates": cell.aggregates(),
                "episodes": [asdict(episode) for episode in cell.episodes],
            } for cell in self.cells],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def signature(self) -> str:
        """SHA-256 over the canonical matrix — bit-identical across same-seed
        runs because nothing in the cells reads the wall clock."""
        return canonical_sha256(self.to_dict())


def render_matrix(matrix: ComparisonMatrix) -> str:
    """The comparison matrix as an aligned text table (one row per cell)."""
    header = (f"{'scenario':<14} {'cluster':<12} {'shed%':>7} {'hit%':>7} "
              f"{'p95ms':>8} {'peak-shard%':>12} {'oracle':>7}")
    lines = ["=== scenario × cluster comparison matrix ===", header,
             "-" * len(header)]
    for cell in matrix.cells:
        stats = cell.aggregates()
        mismatches = int(stats["oracle_mismatches"])
        lines.append(
            f"{cell.scenario:<14} {cell.spec:<12} "
            f"{100.0 * stats['mean_shed_rate']:>6.1f}% "
            f"{100.0 * stats['mean_cache_hit_rate']:>6.1f}% "
            f"{stats['mean_p95_ms']:>8.2f} "
            f"{100.0 * stats['mean_peak_shard_share']:>11.1f}% "
            f"{'ok' if mismatches == 0 else f'{mismatches} BAD':>7}")
    lines.append(f"signature {matrix.signature()}")
    return "\n".join(lines)


class Explorer:
    """Sweeps scenarios × cluster configs, k seeded episodes per cell.

    Every episode builds a fresh virtual-time stack over ``result`` (a
    trained :class:`repro.pipeline.PipelineResult`) through
    :func:`repro.simulate.build_stack`, with ``spec`` (cache capacity, …)
    and the cell's cluster config.  A fresh stack per episode keeps
    episodes independent: no cache state or telemetry leaks between cells,
    which is what makes the matrix order-insensitive and bit-reproducible.
    Traces draw from every user of the trained graph.
    """

    def __init__(self, result, *, spec: Optional[StackSpec] = None,
                 config: Optional[ExplorerConfig] = None) -> None:
        self.result = result
        self.spec = spec or StackSpec()
        self.graph = result.graph
        self.population = UserPopulation.from_graph(self.graph)
        self.config = config or ExplorerConfig()
        self.config.validate()

    # ------------------------------------------------------------------ #
    def run(self, scenarios: Sequence[Scenario],
            configs: Sequence[ClusterConfig],
            progress: Optional[Callable[[str], None]] = None) -> ComparisonMatrix:
        """Sweep every scenario over every cluster config.

        Each config fills the column :func:`column_name` names, so two
        configs with the same shard count are rejected (``ValueError``).
        """
        names = [column_name(config) for config in configs]
        if len(set(names)) != len(names):
            raise ValueError(f"cluster configs share a column name: {names}")
        matrix = ComparisonMatrix(
            scenarios=tuple(scenario.name for scenario in scenarios),
            specs=tuple(names))
        for scenario in scenarios:
            for config, name in zip(configs, names):
                cell = CellResult(scenario=scenario.name, spec=name)
                for episode in range(self.config.episodes):
                    cell.episodes.append(
                        self.run_episode(scenario, config, episode))
                matrix.cells.append(cell)
                if progress is not None:
                    stats = cell.aggregates()
                    progress(f"{scenario.name} × {name}: "
                             f"shed {100 * stats['mean_shed_rate']:.1f}%, "
                             f"hit {100 * stats['mean_cache_hit_rate']:.1f}%, "
                             f"{int(stats['oracle_mismatches'])} oracle "
                             f"mismatches")
        return matrix

    def run_episode(self, scenario: Scenario, config: ClusterConfig,
                    episode: int) -> EpisodeStats:
        """One seeded episode: generate → transform → replay → audit."""
        seed = self.config.episode_seed(episode)

        def shaped(service) -> Workload:
            workload = generate_workload(
                self.population, replace(self.config.workload, seed=seed),
                self.graph)
            return scenario.apply(workload, ScenarioContext(
                graph=self.graph, population=self.population,
                ring=getattr(service, "ring", None)))

        stack = build_stack(self.result,
                            replace(self.spec, cluster_config=config,
                                    workload_seed=seed),
                            workload=shaped)
        result = stack.replay(self.config.replay)
        reports = audit(stack.front, result.records,
                        full_search_sample=self.config.full_search_sample,
                        seed=seed)
        return self._stats(stack.service, stack.workload, result, reports,
                           episode, seed)

    # ------------------------------------------------------------------ #
    def _stats(self, service, workload: Workload, result, reports,
               episode: int, seed: int) -> EpisodeStats:
        records = result.records
        shed = sum(record.shed for record in records)
        total = max(1, len(records))
        latency = replay_telemetry(result).snapshot()["latency_ms"]
        return EpisodeStats(
            episode=episode, seed=seed,
            requests=len(workload), answered=len(records), shed=shed,
            shed_rate=shed / total,
            cache_hit_rate=result.cache_hit_rate(),
            p95_ms=latency["p95"], p99_ms=latency["p99"],
            tier_mix={tier: count / total
                      for tier, count in sorted(result.tier_counts().items())},
            peak_shard_share=self._peak_shard_share(service, len(records)),
            oracle_mismatches=sum(report.mismatches for report in reports),
            workload_signature=workload.signature(),
            replay_signature=result.signature())

    @staticmethod
    def _peak_shard_share(service, served: int) -> float:
        """Largest per-shard share of the episode's served requests.

        Reads each shard worker's cumulative request counter (the service is
        fresh per episode, so the counters are this episode's).  NaN for
        non-cluster services or empty episodes — share of nothing is not 0.
        """
        workers = getattr(service, "workers", None)
        if not workers or served <= 0:
            return float("nan")
        counts = [worker.service.telemetry.requests for worker in workers]
        return max(counts) / served
