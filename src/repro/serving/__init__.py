"""Online recommendation serving for the trained CADRL artifacts.

The paper's efficiency study (Table III) times a bare inference loop; this
package is the deployment counterpart the ROADMAP asks for — a service facade
with result caching, batched inference, tiered fallbacks and telemetry:

* :class:`RecommendationService` — the facade: ``serve_many`` plans a burst
  (dedup, cache hits, tiers) and answers all its full-search misses with one
  batched ``PathRecommender.recommend_requests`` call; ``serve`` is a burst
  of one.  Requests and responses are typed
  (:class:`RecommendationRequest` / :class:`RecommendationResponse`); every
  response carries per-request provenance (``tier``, ``source_tier``,
  ``cache_hit``) so load-replay oracles can assert correctness per request.
* :class:`ResultCache` — LRU + TTL result cache with explicit invalidation.
* :class:`TieredRanker` — full beam search → stale cache → embedding top-k,
  chosen per request from its latency budget and the user's history.
* :class:`ServingTelemetry` — rolling p50/p95/p99 latency, QPS, hit rates.
"""

from .cache import CacheKey, CacheStats, ResultCache
from .fallback import (
    FallbackRanker,
    RepresentationFallbackRanker,
    ServingTier,
    TieredRanker,
    TransEFallbackRanker,
)
from .service import (
    CachedResult,
    RecommendationRequest,
    RecommendationResponse,
    RecommendationService,
    ServingConfig,
)
from .telemetry import ServingTelemetry

__all__ = [
    "CacheKey",
    "CacheStats",
    "CachedResult",
    "FallbackRanker",
    "RecommendationRequest",
    "RecommendationResponse",
    "RecommendationService",
    "RepresentationFallbackRanker",
    "ResultCache",
    "ServingConfig",
    "ServingTelemetry",
    "ServingTier",
    "TieredRanker",
    "TransEFallbackRanker",
]
