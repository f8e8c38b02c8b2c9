"""Checks of the benchmark's own arithmetic on synthetic data.

    python3 -m pytest bench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from stats import TAIL_LADDER, Coverage, beyond, percentile, share, tail  # noqa: E402


@pytest.mark.parametrize("n, q", [
    (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, q):
    values = list(range(1, n + 1))
    assert tail(values) == (q, percentile(values, q))
    assert beyond(n, q) >= 10
    higher = [p for p in TAIL_LADDER if p > q]
    assert all(beyond(n, p) < 10 for p in higher)


def test_tail_needs_twenty_samples():
    assert tail(list(range(19))) is None


def test_percentile_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20  # 100 samples, 20 of each
    assert percentile(values, 50.0) == 3.0
    assert percentile(values, 90.0) == 5.0
    assert percentile(list(range(1, 101)), 90.0) == 90


def test_share_denominators():
    assert share(0, 0) is None
    assert share(3, 12) == 0.25
    ops = [workloads.Outcome(seconds=1.0, attempted=12, failed=11),
           workloads.Outcome(seconds=1.0, attempted=12, failed=0)]
    assert workloads._fail_share(ops) == pytest.approx(11 / 24)
    judged = [workloads.Outcome(seconds=1.0, data={"judged": 3, "agree": 2}),
              workloads.Outcome(seconds=1.0, data={})]
    assert workloads._sign_figures(judged)["sign_agree_share"][0] == pytest.approx(2 / 3)
    assert workloads._sign_figures(judged[1:])["sign_agree_share"][0] is None


def test_coverage_is_union_length():
    cover = Coverage()
    for start, end in [(0.0, 4.0), (2.0, 6.0), (3.0, 5.0), (8.0, 9.0)]:
        cover.add(start, end)
    assert cover.covered == pytest.approx(7.0)


def test_self_time_subtracts_union_of_children(monkeypatch):
    """parent [0, 10] holds child [1, 3] (itself holding [1.5, 2.5]) and child [4, 7]."""
    clock = iter([0.0, 1.0, 1.5, 2.5, 3.0, 4.0, 7.0, 10.0])
    monkeypatch.setattr(spans, "perf_counter", lambda: next(clock))
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: None)
    inner = tracer.wrap("inner", lambda: leaf())
    other = tracer.wrap("other", lambda: None)

    def body():
        inner()
        other()

    tracer.wrap("parent", body)()
    spans_ = tracer.spans
    assert spans_["parent"].total == pytest.approx(10.0)
    assert spans_["parent"].own == pytest.approx(10.0 - 2.0 - 3.0)
    assert spans_["inner"].own == pytest.approx(1.0)
    assert spans_["leaf"].own == pytest.approx(1.0)
    assert sum(s.own for s in spans_.values()) == pytest.approx(spans_["parent"].total)


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}


def test_pde_reason_from_the_front_trace():
    class Config:
        fit_window, t_end = 0.5, 100.0

        class grid:
            half_length = 60.0

    class Estimate:
        def __init__(self, fronts):
            ts = np.linspace(0.0, 100.0, len(fronts))
            self.front_trace = np.column_stack([ts, fronts]) if fronts else np.empty((0, 2))

    assert workloads.pde_reason(None, Config) == "stiff"
    assert workloads.pde_reason(Estimate([]), Config) == "stiff"
    assert workloads.pde_reason(Estimate([0.0, 10.0, 20.0, 55.0]), Config) == "wall"
    assert workloads.pde_reason(Estimate([0.0, -10.0, np.nan, -20.0]), Config) == "wall"
    assert workloads.pde_reason(Estimate([0.0, 55.0, 20.0, 30.0]), Config) == "noisy"


def test_probe_time_is_left_out_and_scales_by_its_mean(monkeypatch):
    """Two timer bursts: probe passes of 2 ms and 4 ms against a 3 ms nominal."""
    monkeypatch.setattr(calibrate, "BURST", 1)
    monkeypatch.setattr(calibrate, "NOMINAL_S", 0.003)
    monkeypatch.setattr(calibrate, "_kernel", lambda: None)
    clock = iter([10.0, 10.0, 10.002, 10.002, 11.0, 11.0, 11.004, 11.004, 12.0])
    monkeypatch.setattr(calibrate, "perf_counter", lambda: next(clock))
    probe = calibrate.Probe()
    probe._fire(None, None)
    probe._fire(None, None)
    assert probe.samples == pytest.approx([0.002, 0.004])
    assert probe.clock() == pytest.approx(12.0 - 0.006)
    assert probe.scale() == pytest.approx(1.0)


def test_operation_count_depends_on_arguments_only():
    for workload in workloads.WORKLOADS.values():
        assert run._count(workload, 30.0, 1.0) == int(30.0 / workload.OP_S)
        assert run._count(workload, 30.0, 1.0) >= run._count(workload, 30.0, 2.5) >= 1
    assert run._count(workloads.FrontSpeed, 1.0, 1.0) == 1
