"""Pipeline execution: dependency-ordered stages with fingerprint caching.

``Pipeline(config, store_dir).run()`` walks the stage DAG (``data`` → ``kg``
→ ``embed`` → ``cggnn`` → ``train`` → ``eval`` / ``serve-check``); a stage
whose output already exists in the artifact store *under the current
fingerprint* is restored from disk instead of recomputed, so re-running the
same :class:`RunConfig` is (nearly) free and editing one stage's knobs only
re-runs that stage and its dependants.  A :class:`StageMemo` does the same
in memory: stacks that share a prefix of the chain (the ablation variants of
one dataset, say) share that prefix's outputs instead of retraining it.

``save_pipeline`` / ``load_pipeline`` are the first-class persistence API: a
trained stack round-trips through a plain directory, and a fresh process can
boot a :class:`repro.serving.RecommendationService` from it without running
any training code (see ``RecommendationService.from_artifacts``).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from .artifacts import ArtifactStore
from .config import STAGE_DEPENDENCIES, STAGE_NAMES, RunConfig
from .errors import PipelineError
from .stages import ALL_STAGES, PipelineContext, Stage, boot_service

PathLike = Union[str, Path]

#: Most stage outputs a :class:`StageMemo` holds before it evicts the least
#: recently used one.
MEMO_CAPACITY = 64


class StageMemo:
    """In-memory stage outputs keyed by each stage's own fingerprint.

    The fingerprints chain through the stage DAG, so a hit on ``cggnn``
    implies identical data, KG and TransE inputs.  Bounded by
    :data:`MEMO_CAPACITY` with least-recently-used eviction.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[str, tuple]" = OrderedDict()

    def get(self, fingerprint: str) -> Optional[tuple]:
        values = self._entries.get(fingerprint)
        if values is not None:
            self._entries.move_to_end(fingerprint)
        return values

    def put(self, fingerprint: str, values: tuple) -> None:
        self._entries[fingerprint] = values
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > MEMO_CAPACITY:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


@dataclass
class PipelineResult:
    """Everything a pipeline run produced, plus per-stage provenance.

    ``statuses`` maps stage name → ``"ran"`` (computed fresh), ``"cached"``
    (restored from the artifact store or the memo) or ``"skipped"`` (not
    requested).  ``seconds`` maps every stage the run reached to the time
    its ``run`` — or, for a cached stage, its ``load`` or memo recall —
    took on the pipeline's clock.
    """

    config: RunConfig
    context: PipelineContext
    statuses: Dict[str, str] = field(default_factory=dict)
    seconds: Dict[str, float] = field(default_factory=dict)

    # convenience accessors over the context ---------------------------- #
    @property
    def dataset(self):
        return self.context.dataset

    @property
    def split(self):
        return self.context.split

    @property
    def graph(self):
        return self.context.graph

    @property
    def cadrl(self):
        return self.context.cadrl

    @property
    def transe(self):
        return self.context.transe

    @property
    def representations(self):
        return self.context.representations

    @property
    def eval_metrics(self) -> Optional[Dict]:
        return self.context.eval_metrics

    @property
    def serve_report(self) -> Optional[Dict]:
        return self.context.serve_report

    @property
    def artifacts_dir(self) -> Optional[Path]:
        return self.context.store.root if self.context.store else None

    def service(self, serving_config=None, **kwargs):
        """The serving facade the run's cluster spec asks for (see
        :func:`repro.pipeline.stages.boot_service`)."""
        if self.cadrl is None:
            raise PipelineError("pipeline did not reach the train stage")
        return boot_service(self.cadrl, self.transe, self.config,
                            serving_config=serving_config, **kwargs)

    def cluster_service(self, cluster_config=None, serving_config=None, **kwargs):
        """A :class:`repro.cluster.ClusterService` over the trained stack.

        ``cluster_config`` overrides the run's persisted cluster spec (e.g.
        to replay the same artifacts under a different topology).
        """
        from ..cluster import ClusterService

        if self.cadrl is None:
            raise PipelineError("pipeline did not reach the train stage")
        return ClusterService.from_cadrl(
            self.cadrl, transe=self.transe,
            config=cluster_config or self.config.cluster,
            serving_config=serving_config or self.config.serving, **kwargs)

    def summary(self) -> str:
        """One line per stage: status, seconds (``-`` if skipped) and fingerprint prefix."""
        fingerprints = self.config.stage_fingerprints()
        lines = []
        for name in STAGE_NAMES:
            status = self.statuses.get(name, "skipped")
            seconds = self.seconds.get(name)
            if seconds is None:
                took = "-"
            elif seconds >= 1.0:
                took = f"{seconds:.2f}s"
            else:  # a restore takes milliseconds
                took = f"{1e3 * seconds:.1f}ms"
            lines.append(f"{name:<12} {status:<8} {took:>8}  {fingerprints[name][:12]}")
        return "\n".join(lines)


class Pipeline:
    """Executes the stage DAG for one :class:`RunConfig`.

    Parameters
    ----------
    config:
        The declarative run description.
    store:
        Artifact directory (or an :class:`ArtifactStore`).  ``None`` runs
        fully in memory with no persistence and no caching.
    force:
        Recompute every requested stage even when a matching artifact exists.
    memo:
        A :class:`StageMemo` to restore stages from and record computed
        stages in: the in-memory alternative to ``store`` (pass at most one).
    clock:
        Seconds source that times each stage's ``run``, ``load`` or recall
        (injectable, e.g. a fake clock in tests).
    """

    def __init__(self, config: RunConfig,
                 store: Optional[Union[PathLike, ArtifactStore]] = None,
                 force: bool = False, memo: Optional[StageMemo] = None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        config.validate()
        if store is not None and memo is not None:
            raise ValueError("pass an artifact store or a stage memo, not both")
        self.config = config
        if store is None or isinstance(store, ArtifactStore):
            self.store = store
        else:
            self.store = ArtifactStore(store)
        self.force = force
        self.memo = memo
        self.clock = clock
        self.stages: Dict[str, Stage] = {cls.name: cls() for cls in ALL_STAGES}

    # ------------------------------------------------------------------ #
    def resolve(self, until: Optional[Sequence[str]] = None) -> List[str]:
        """Stage names to execute, in dependency order.

        ``until`` selects target stages (default: all); dependencies are
        pulled in automatically.
        """
        targets = list(until) if until else list(STAGE_NAMES)
        unknown = [name for name in targets if name not in STAGE_DEPENDENCIES]
        if unknown:
            raise PipelineError(f"unknown stages {unknown}; "
                                f"available: {list(STAGE_NAMES)}")
        needed = set()

        def visit(name: str) -> None:
            if name in needed:
                return
            for dep in STAGE_DEPENDENCIES[name]:
                visit(dep)
            needed.add(name)

        for name in targets:
            visit(name)
        return [name for name in STAGE_NAMES if name in needed]

    # ------------------------------------------------------------------ #
    def run(self, until: Optional[Sequence[str]] = None,
            require_cached: bool = False) -> PipelineResult:
        """Execute (or restore) the requested stages.

        With ``require_cached=True`` a stage that would have to recompute
        raises :class:`PipelineError` instead — the load-only mode backing
        :func:`load_pipeline`.
        """
        context = PipelineContext(config=self.config, store=self.store)
        fingerprints = self.config.stage_fingerprints()
        statuses: Dict[str, str] = {}
        seconds: Dict[str, float] = {}

        for name in self.resolve(until):
            stage = self.stages[name]
            fingerprint = fingerprints[name]
            start = self.clock()
            if not self.force and self._restore(stage, context, fingerprint):
                statuses[name] = "cached"
                seconds[name] = self.clock() - start
                continue
            if require_cached:
                recorded = self.store.fingerprint_of(name) if self.store else None
                reason = ("fingerprint mismatch: the artifacts were produced by a "
                          f"different configuration (recorded {recorded!r})"
                          if recorded else "stage artifact missing")
                raise PipelineError(
                    f"cannot load stage {name!r} from "
                    f"{self.store.root if self.store else '<memory>'}: {reason}")
            start = self.clock()
            stage.run(context)
            seconds[name] = self.clock() - start
            if self.store is not None:
                self.store.begin(name)
                metadata = stage.save(context)
                self.store.complete(name, fingerprint, metadata)
            if self.memo is not None:
                self.memo.put(fingerprint, tuple(getattr(context, output)
                                                 for output in stage.outputs))
            statuses[name] = "ran"
        # The config is recorded only once the requested stages completed: an
        # interrupted run under a *new* config must not clobber the record of
        # the config that produced the artifacts already on disk.  Load-only
        # runs never write (a mismatched config passed to load_pipeline would
        # corrupt the store).
        if self.store is not None and not require_cached:
            self.store.write_config(self.config.to_json() + "\n")
        return PipelineResult(config=self.config, context=context,
                              statuses=statuses, seconds=seconds)

    def _restore(self, stage: Stage, context: PipelineContext,
                 fingerprint: str) -> bool:
        """Fill the context from the memo or the store; ``False`` on a miss."""
        if self.memo is not None:
            values = self.memo.get(fingerprint)
            if values is not None:
                stage.recall(context, values)
            return values is not None
        if (self.store is not None and self.store.is_complete(stage.name, fingerprint)
                and stage.loadable(self.store)):
            stage.load(context)
            return True
        return False


# --------------------------------------------------------------------------- #
# first-class persistence API
# --------------------------------------------------------------------------- #
def save_pipeline(result: PipelineResult, path: PathLike) -> Path:
    """Persist a finished pipeline run into ``path`` (idempotent).

    If the run already used an artifact store at ``path`` this only fills the
    gaps; otherwise every stage the run produced is written out, so an
    in-memory run can be saved after the fact.
    """
    store = ArtifactStore(path)
    fingerprints = result.config.stage_fingerprints()
    store.write_config(result.config.to_json() + "\n")
    context = result.context
    previous_store, context.store = context.store, store
    try:
        for cls in ALL_STAGES:
            stage = cls()
            name = stage.name
            if result.statuses.get(name) is None:
                continue  # stage never ran in this result
            if store.is_complete(name, fingerprints[name]) and stage.loadable(store):
                continue
            store.begin(name)
            metadata = stage.save(context)
            store.complete(name, fingerprints[name], metadata)
    finally:
        context.store = previous_store
    return store.root


def load_pipeline(path: PathLike, until: Optional[Sequence[str]] = None,
                  config: Optional[RunConfig] = None,
                  generation: Optional[int] = None) -> PipelineResult:
    """Restore a persisted pipeline from ``path`` without any training.

    Reads the directory's ``config.json`` (unless an explicit ``config`` is
    given), then loads every requested stage from the artifact store.  A
    missing or fingerprint-mismatched stage raises :class:`PipelineError`
    instead of silently retraining.

    ``generation`` selects one artifact generation of a live-refreshed store
    (default: the latest; pre-generation stores only have generation 0).  A
    generation store falls back to the root ``config.json`` when it has none
    of its own — refreshes change arrays, not configuration.

    By default only the model stack (through ``train``) is restored — the
    typical serving boot path; pass ``until=("eval", "serve-check")`` to also
    restore persisted reports.
    """
    root_store = ArtifactStore(path)
    # A restore only reads, so the root manifest is parsed once for it.
    with root_store.pinned_manifest():
        store = root_store.load(generation=generation)
        if store.root != root_store.root:
            # A live-refreshed generation: its nested store holds only the
            # delta slice and refreshed arrays, so the live loader rebuilds
            # it on top of the base artifacts (deferred import — pipeline
            # stays live-free).
            from ..live.refresh import load_generation_result

            return load_generation_result(root_store, store, until=until,
                                          config=config)
        if config is None:
            config_path = (store.config_path if store.config_path.exists()
                           else root_store.config_path)
            if not config_path.exists():
                raise PipelineError(f"{root_store.root} has no config.json; "
                                    "not a pipeline artifact directory")
            config = RunConfig.from_json(config_path.read_text())
        pipeline = Pipeline(config, store=store)
        return pipeline.run(until=until or ("train",), require_cached=True)
