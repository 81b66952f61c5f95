"""Wall-clock efficiency measurement (Table III).

The paper reports (a) the time to produce recommendations for 1k users and
(b) the time to generate 10k recommendation paths.  At our reduced scale the
harness measures the same two workloads for a configurable number of users /
paths and linearly extrapolates to the paper's units so the rows stay
comparable in spirit (the extrapolated and the raw numbers are both reported).
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass
from typing import List, Protocol, Sequence


class PathProducingRecommender(Protocol):
    """A recommender that can also enumerate raw paths (RL/path-based models)."""

    name: str

    def recommend_items(self, user_id: int, top_k: int = 10) -> List[int]:
        ...

    def find_paths(self, user_id: int, num_paths: int) -> Sequence:
        ...


@dataclass
class TimingResult:
    """Efficiency numbers for one model on one dataset."""

    model_name: str
    recommendation_seconds: float        # measured
    recommendation_users: int
    pathfinding_seconds: float           # measured
    paths_found: int

    def recommendation_per_1k_users(self) -> float:
        """Extrapolated seconds per 1 000 users (the paper's unit).

        NaN when no users were measured — extrapolating from an empty workload
        would otherwise report a misleading ``0.0``.
        """
        if self.recommendation_users == 0:
            return float("nan")
        return 1000.0 * self.recommendation_seconds / self.recommendation_users

    def pathfinding_per_10k_paths(self) -> float:
        """Extrapolated seconds per 10 000 paths (NaN when none were found)."""
        if self.paths_found == 0:
            return float("nan")
        return 10000.0 * self.pathfinding_seconds / self.paths_found

    @staticmethod
    def _format_seconds(value: float) -> str:
        return f"{'n/a':>9s} " if math.isnan(value) else f"{value:9.2f}s"

    def summary_row(self) -> str:
        return (f"{self.model_name:<22s} "
                f"Rec(1k users)={self._format_seconds(self.recommendation_per_1k_users())}  "
                f"Find(10k paths)={self._format_seconds(self.pathfinding_per_10k_paths())}")


def time_recommendations(model, users: Sequence[int], top_k: int = 10) -> float:
    """Seconds spent producing top-k recommendations for ``users``.

    A serving facade (anything exposing ``serve_many`` + ``build_requests``,
    i.e. :class:`repro.serving.RecommendationService`) is timed through one
    batched call — caching and batching are part of its deployment cost,
    so Table III can report served next to raw numbers.
    """
    # Garbage left by earlier work (other models, other tests in the process)
    # must not be collected on this model's clock: every timed region starts
    # from the same collector state, so the models of one table compare.
    gc.collect()
    start = time.perf_counter()
    if hasattr(model, "serve_many") and hasattr(model, "build_requests"):
        model.serve_many(model.build_requests(users, top_k=top_k))
    else:
        for user_id in users:
            model.recommend_items(user_id, top_k)
    return time.perf_counter() - start


def time_pathfinding(model, users: Sequence[int], paths_per_user: int) -> tuple[float, int]:
    """Seconds spent enumerating paths, plus the number of paths produced."""
    gc.collect()
    start = time.perf_counter()
    total_paths = 0
    for user_id in users:
        total_paths += len(model.find_paths(user_id, paths_per_user))
    return time.perf_counter() - start, total_paths


def measure_efficiency(model, users: Sequence[int], top_k: int = 10,
                       paths_per_user: int = 20) -> TimingResult:
    """Run both Table III workloads for one model."""
    recommendation_seconds = time_recommendations(model, users, top_k)
    if hasattr(model, "find_paths"):
        pathfinding_seconds, paths_found = time_pathfinding(model, users, paths_per_user)
    else:
        pathfinding_seconds, paths_found = 0.0, 0
    return TimingResult(
        model_name=getattr(model, "name", type(model).__name__),
        recommendation_seconds=recommendation_seconds,
        recommendation_users=len(users),
        pathfinding_seconds=pathfinding_seconds,
        paths_found=paths_found,
    )
