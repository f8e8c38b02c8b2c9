"""The benchmark's spans name only what wavespeed has.

``bench/spans.py`` rebinds module attributes by name; a name that no longer
exists drops its per-layer metrics as absent.  These checks fail instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("cli", "model", "pde", "scan", "supersol", "theory")


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))


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
