"""The benchmark's spans name only what wavespeed has, and its workloads read
the PDE estimate as it is.

``bench/spans.py`` rebinds module attributes by name; a name that no longer
exists drops its per-layer metrics as absent.  ``bench/workloads.py`` wraps
``pde.estimate_speed`` by its two-argument form and sorts a failed estimate
by the trailing half of its front trace.  These checks fail instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("cli", "model", "pde", "scan", "supersol", "theory")


def _bench_module(name):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def spans():
    return _bench_module("spans")


@pytest.fixture(scope="module")
def workloads():
    return _bench_module("workloads")


def wavespeed_module(name):
    return importlib.import_module(f"wavespeed.{name}")


def test_every_bound_name_exists(spans):
    missing = [f"{module}.{attr}" for module, attr, _ in spans._BOUND
               if not hasattr(wavespeed_module(module), attr)]
    assert missing == []


def test_every_proxied_attribute_holds_its_module(spans):
    for module, attr, layer in spans._PROXIED:
        assert getattr(wavespeed_module(module), attr) is wavespeed_module(layer)


def test_install_reports_nothing_absent(spans):
    tracer = spans.Tracer()
    undo = spans.install(tracer, {name: wavespeed_module(name) for name in MODULES})
    spans.uninstall(undo)
    assert tracer.absent == set()


@pytest.mark.parametrize("point, settings, reason", [
    ((5, 1, 5, 2), {"L": 10.0, "dx": 0.2, "dt": 0.05, "t_end": 60.0}, "truncation"),
    ((1, 1, 2, 2), {"L": 10.0, "dx": 0.5, "dt": 0.1, "t_end": 5.0}, "not_relaxed"),
], ids=["truncation", "not_relaxed"])
def test_a_failed_estimate_reaches_the_cap(workloads, monkeypatch, point, settings, reason):
    # pde_reason takes the maximum of the trace over the trailing half of
    # t_end, so a failed run that stopped early would leave it nothing.
    # The window is held at its starting length, too short for the front.
    pde = wavespeed_module("pde")
    monkeypatch.setattr(pde, "GROW_LIMIT", 1.0)
    config = pde.default_config(**settings)
    est = pde.estimate_speed(wavespeed_module("model").validate(*point), config)
    assert (est.converged, est.reason) == (False, reason)
    assert est.front_trace[-1, 0] == pytest.approx(config.t_end)
    assert workloads.pde_reason(est, config) in ("wall", "noisy")


def test_front_speed_tap_sees_the_estimate(workloads, monkeypatch, tmp_path, capsys):
    pde, cli = wavespeed_module("pde"), wavespeed_module("cli")
    monkeypatch.setattr(pde, "estimate_speed", pde.estimate_speed)  # undone at teardown
    workload = workloads.FrontSpeed()
    workload.tap(workloads.Context({"pde": pde}, cli.main, tmp_path))
    argv = ["speed", "7", "1", "1.8", "2", "--L", "20", "--dx", "0.2", "--dt", "0.05"]
    assert cli.main(argv) == 0
    est, config = workload.seen["est"], workload.seen["config"]
    assert est.converged and config.grid.half_length == 20.0
    assert f"c_hat = {est.c_hat:.12g} +/- {est.stderr:.12g}" in capsys.readouterr().out
