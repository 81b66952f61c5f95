"""Performance rail: seeded benchmarks, frozen scalar references, regression gate.

``python -m repro bench`` is the CLI entry point; :mod:`repro.perf.bench`
holds the harness and :mod:`repro.perf.reference` the pre-vectorisation
implementations (and the autograd DARL episode and CGGNN step) that serve as
equivalence oracles and in-run baselines.
"""

from ..blas import set_blas_threads
from .bench import (
    GATED_METRICS,
    PROFILES,
    BenchProfile,
    Regression,
    build_stack,
    compare_with_baseline,
    default_baseline_path,
    load_baseline,
    render_report,
    run_bench,
    write_bench_json,
)
from .reference import (
    ReferenceCGGNNTrainer,
    ReferenceDARLTrainer,
    ScalarPathRecommender,
    train_transe_reference,
)

__all__ = [
    "GATED_METRICS",
    "PROFILES",
    "BenchProfile",
    "ReferenceCGGNNTrainer",
    "ReferenceDARLTrainer",
    "Regression",
    "ScalarPathRecommender",
    "build_stack",
    "compare_with_baseline",
    "default_baseline_path",
    "load_baseline",
    "render_report",
    "run_bench",
    "set_blas_threads",
    "train_transe_reference",
    "write_bench_json",
]
