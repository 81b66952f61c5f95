"""Zero-downtime streaming updates: ingest, refresh, swap — while serving.

The live stack turns the frozen, generation-0 serving story into a loop:

* :mod:`repro.live.log` — the append-only, replayable :class:`UpdateLog` of
  typed graph deltas (new interactions, items, relations);
* :mod:`repro.live.refresh` — :class:`GenerationBundle` and
  :func:`refresh_generation`: few-epoch warm-started TransE/CGGNN refreshes
  that derive artifact generation N+1 from N plus a log slice, persisted via
  :func:`save_generation` into nested generation stores;
* :mod:`repro.live.swap` — :class:`EpochSwapCoordinator`: shard-by-shard
  cluster flips with carried caches, carried telemetry and scoped
  invalidation;
* :mod:`repro.live.session` — :class:`LiveSession`: the serving-facade
  orchestrator that fires scheduled ingest/swap events on the replay clock
  and keeps the generation ledger the generation-scoped oracles audit.
"""

from .log import (
    AppliedDelta,
    InteractionDelta,
    ItemDelta,
    NewItemInteraction,
    RelationDelta,
    TornLogError,
    UpdateDelta,
    UpdateLog,
    delta_from_dict,
    synthesize_deltas,
)
from .refresh import (
    GenerationBundle,
    RefreshConfig,
    load_generation_result,
    refresh_generation,
    save_generation,
)
from .session import IngestEvent, LiveEvent, LiveSession, SwapEvent
from .swap import EpochSwapCoordinator, SwapInterrupted, SwapReport

__all__ = [
    "AppliedDelta",
    "EpochSwapCoordinator",
    "SwapInterrupted",
    "TornLogError",
    "GenerationBundle",
    "IngestEvent",
    "InteractionDelta",
    "ItemDelta",
    "LiveEvent",
    "LiveSession",
    "NewItemInteraction",
    "RefreshConfig",
    "RelationDelta",
    "SwapEvent",
    "SwapReport",
    "UpdateDelta",
    "UpdateLog",
    "delta_from_dict",
    "load_generation_result",
    "refresh_generation",
    "save_generation",
    "synthesize_deltas",
]
