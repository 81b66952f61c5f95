"""Tests of the benchmark's metric math.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import stats  # noqa: E402


# --------------------------------------------------------------------------- #
# percentiles and the ten-beyond rule
# --------------------------------------------------------------------------- #
def test_p99_needs_ten_samples_beyond():
    values = list(range(1, 1001))  # 1..1000
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.percentile(values, 99) == 990
    with pytest.raises(stats.UnsupportedPercentile):
        stats.percentile(values[:999], 99)


def test_median_needs_twenty_samples():
    assert stats.percentile(list(range(20)), 50) == 9
    with pytest.raises(stats.UnsupportedPercentile):
        stats.percentile(list(range(19)), 50)


def test_percentile_is_order_independent_nearest_rank():
    values = [5.0, 1.0, 3.0] * 10 + [100.0] * 10
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(list(reversed(values)), 50) == 3.0


@pytest.mark.parametrize("q", [0, 100, -1, 101])
def test_percentile_rejects_out_of_range(q):
    with pytest.raises(ValueError):
        stats.percentile(list(range(5000)), q)


# --------------------------------------------------------------------------- #
# lateness and latency from the due time
# --------------------------------------------------------------------------- #
def test_latency_is_measured_from_due_time():
    assert stats.latency_ms(due_s=1.0, done_s=1.25) == pytest.approx(250.0)
    assert stats.lateness_ms(due_s=1.0, sent_s=1.2) == pytest.approx(200.0)
    assert stats.lateness_ms(due_s=1.0, sent_s=0.9) == 0.0


def _fake_workload(arrivals):
    entries = [SimpleNamespace(index=i, arrival_s=a, user_entity=i, top_k=10,
                               exclude_items=(), latency_budget_ms=None,
                               allow_stale=True, to_request=lambda i=i: i)
               for i, a in enumerate(arrivals)]
    return SimpleNamespace(requests=entries)


class _StallingService:
    """Answers instantly except for a 60 ms stall on the first burst."""

    def __init__(self):
        self.bursts = []

    def serve_many(self, requests):
        self.bursts.append(list(requests))
        if len(self.bursts) == 1:
            time.sleep(0.06)
        return [SimpleNamespace(tier=None, source_tier=None, cache_hit=False,
                                latency_ms=0.0, items=[], paths=[], shed=False,
                                generation=0, fault=None) for _ in requests]


def test_open_loop_charges_a_stall_to_requests_queued_behind_it():
    workloads = pytest.importorskip("workloads")
    service = _StallingService()
    drive = workloads.drive(service, _fake_workload([0.0, 0.01, 0.02]),
                            open_loop=True)
    # Requests 1 and 2 fell due during the stall: sent late, one at a time.
    assert service.bursts == [[0], [1], [2]]
    assert drive.lags_ms[1] >= 60.0 - 10.0
    assert drive.lags_ms[2] >= 60.0 - 20.0
    assert drive.latencies_ms[1] >= drive.lags_ms[1]
    assert drive.latencies_ms[1] - drive.latencies_ms[2] >= 10.0 - 1.0
    # Service time leaves the queueing out: only the first burst was slow.
    assert drive.service_ms[0] >= 60.0
    assert max(drive.service_ms[1:]) < 10.0


def test_a_pause_is_charged_to_no_request():
    workloads = pytest.importorskip("workloads")
    service = _StallingService()
    service.bursts.append([])  # no stall on the first burst
    ran = []
    drive = workloads.drive(
        service, _fake_workload([0.0, 0.01, 0.02]), open_loop=True,
        pauses=[(0.01, lambda: (ran.append(1), time.sleep(0.06)))])
    assert ran == [1]
    assert service.bursts[1:] == [[0], [1], [2]]  # nothing queued behind it
    assert max(drive.latencies_ms) < 30.0
    assert drive.wall_s < 0.06  # the schedule resumed where it paused


def test_closed_loop_due_time_is_the_previous_answer():
    workloads = pytest.importorskip("workloads")
    service = _StallingService()
    drive = workloads.drive(service, _fake_workload([0.0, 5.0, 9.0]),
                            open_loop=False)
    assert service.bursts == [[0], [1], [2]]
    assert drive.latencies_ms[0] >= 60.0
    assert max(drive.latencies_ms[1:]) < 60.0  # no arrival-time sleeping
    assert drive.wall_s < 1.0


# --------------------------------------------------------------------------- #
# failures against attempts
# --------------------------------------------------------------------------- #
def test_failure_fraction_counts_against_attempts():
    assert stats.failure_frac(0, 10) == 0.0
    assert stats.failure_frac(3, 12) == 0.25
    with pytest.raises(ValueError):
        stats.failure_frac(0, 0)
    with pytest.raises(ValueError):
        stats.failure_frac(11, 10)


def _report(*indices):
    return SimpleNamespace(findings=[SimpleNamespace(index=i) for i in indices])


def test_failures_count_each_request_once():
    workloads = pytest.importorskip("workloads")
    records = [SimpleNamespace(index=i, shed=(i == 2)) for i in range(5)]
    drive = workloads.Pass(records=records, errors=1)
    reports = [(0, _report(2, 3)), (0, _report(3, -1))]
    # 1 raised + records {2 (shed and flagged), 3 (flagged twice)} + 1 structural
    assert workloads.failures([drive], reports) == 4


def test_failures_are_keyed_by_pass():
    workloads = pytest.importorskip("workloads")
    # Two passes replay the same trace, so their trace indices coincide.
    first = workloads.Pass(records=[SimpleNamespace(index=i, shed=(i == 1))
                                    for i in range(4)])
    second = workloads.Pass(records=[SimpleNamespace(index=i, shed=(i == 3))
                                     for i in range(4)])
    reports = [(0, _report(1, 2)), (1, _report(2, 3)), (1, _report(3))]
    # pass 0: {1 (shed and flagged), 2}; pass 1: {2, 3 (shed, flagged twice)}
    assert workloads.failures([first, second], reports) == 4


# --------------------------------------------------------------------------- #
# units attached to every metric
# --------------------------------------------------------------------------- #
def test_result_line_attaches_units_and_requires_exact_metric_set():
    values = {name: 1.5 for name in stats.END_TO_END}
    line = json.loads(stats.result_line(correct=True, attempted=4, failed=0,
                                        values=values, trace=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["service_p99_ms"] == {"value": 1.5, "unit": "ms"}
    assert line["metrics"]["capacity_qps"]["unit"] == "req/s"
    with pytest.raises(KeyError):
        stats.result_line(correct=True, attempted=4, failed=0,
                          values={**values, "extra": 1.0}, trace=False)
    missing = dict(values)
    del missing["setup_s"]
    with pytest.raises(KeyError):
        stats.result_line(correct=True, attempted=4, failed=0,
                          values=missing, trace=False)
    with pytest.raises(KeyError):  # end-to-end values are not per-layer ones
        stats.result_line(correct=True, attempted=4, failed=0,
                          values=values, trace=True)


def test_non_finite_values_are_not_emitted_as_numbers():
    values = {name: 1.0 for name in stats.END_TO_END}
    values["service_p99_ms"] = math.inf
    line = json.loads(stats.result_line(correct=False, attempted=2, failed=1,
                                        values=values, trace=False))
    assert line["metrics"]["service_p99_ms"]["value"] is None


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == stats.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in stats.LAYER_METRICS.items()}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
