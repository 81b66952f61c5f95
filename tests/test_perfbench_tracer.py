"""The outside-in benchmark's tracer still installs over the program.

``perfbench/workloads.py:instrument`` patches each layer's entry points by
name (``recommend_many``, ``warm_milestones``, ``serve_many``,
``fallback_items``, …).  Renaming one would otherwise break
``perfbench/run.py --trace 1`` only when the benchmark runs; this test
catches it in the tier-1 suite.
"""

import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _function(attribute):
    return attribute.__func__ if isinstance(attribute, staticmethod) else attribute


def test_instrument_wraps_every_entry_point_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from spans import Tracer

    tracer = Tracer()
    try:
        workloads.instrument(tracer)
        patched = list(tracer._originals)
        for owner, attr, original in patched:
            wrapper = _function(inspect.getattr_static(owner, attr))
            assert wrapper is not _function(original), (owner, attr)
            assert wrapper.__wrapped__ is _function(original), (owner, attr)
    finally:
        tracer.uninstall()

    names = {(getattr(owner, "__name__", owner), attr) for owner, attr, _ in patched}
    assert {("PathRecommender", "recommend"), ("PathRecommender", "recommend_many"),
            ("PathRecommender", "recommend_requests"),
            ("PathRecommender", "warm_milestones"),
            ("RecommendationService", "serve_many"), ("ClusterService", "serve_many"),
            ("TieredRanker", "fallback_items")} <= names
    for owner, attr, original in patched:
        assert inspect.getattr_static(owner, attr) is original, (owner, attr)
