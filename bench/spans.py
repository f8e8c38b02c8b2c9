"""Spans around the calls between wavespeed's modules, recorded from outside.

Nothing in the package is edited.  ``install`` rebinds, for the duration of
a traced pass, the names through which one module reaches another:

* the module objects ``cli`` and ``scan`` hold (``cli.theory``,
  ``scan.theory``, ...) become proxies that time every function fetched
  through them, so ``theory.classify`` is timed as ``scan`` calls it and not
  when ``theory`` calls its own helpers;
* names bound inside a module (``solve_banded``, ``reaction_f`` and
  ``reaction_g`` as imported by ``pde`` and ``supersol``, ``front_position``
  and ``estimate_speed`` inside ``pde``, ``scan_plane`` inside ``scan``)
  are replaced by timing wrappers.

Spans are aggregated as they close: per span name the call count, total
time and self time (duration minus the union of its child spans).
"""

from __future__ import annotations

import os
import types
from collections import defaultdict
from time import perf_counter

from stats import Coverage, share

# (module, attribute, span name).  Reactions are named after the layer that
# defines them and the module that binds them.
_BOUND = (
    ("pde", "solve_banded", "pde.solve_banded"),
    ("pde", "reaction_f", "model.reaction_f@pde"),
    ("pde", "reaction_g", "model.reaction_g@pde"),
    ("pde", "front_position", "pde.front_position"),
    ("pde", "estimate_speed", "pde.estimate_speed"),
    ("supersol", "reaction_f", "model.reaction_f@supersol"),
    ("supersol", "reaction_g", "model.reaction_g@supersol"),
    ("supersol", "sigma_profile", "supersol.sigma_profile"),
    ("supersol", "residuals_IJ", "supersol.residuals_IJ"),
    ("supersol", "degenerate_residuals", "supersol.degenerate_residuals"),
    ("scan", "scan_plane", "scan.scan_plane"),
    ("scan", "emit_csv", "scan.emit_csv"),
    ("scan", "emit_svg", "scan.emit_svg"),
)
# (caller module, attribute holding a module, layer name of that module).
_PROXIED = (
    ("cli", "theory", "theory"),
    ("cli", "supersol", "supersol"),
    ("cli", "pde", "pde"),
    ("cli", "scan_mod", "scan"),
    ("scan", "theory", "theory"),
)


class Span:
    """One span name's aggregate: calls, total seconds, self seconds."""

    __slots__ = ("calls", "total", "own")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.own = 0.0


class Tracer:
    """Aggregated spans plus the counters the per-layer metrics need."""

    def __init__(self):
        self.spans: dict[str, Span] = defaultdict(Span)
        self.absent: set[str] = set()
        self.scan_to_theory = 0
        self.cells = 0
        self.bytes_written = 0
        self.profile_nodes = 0
        self.p_seen: set[float] = set()
        self.p_repeats = 0
        self.grid_points = 0
        self.estimates = 0
        self._stack: list[Coverage] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(result, *args)`` runs on return."""
        stack = self._stack
        span = self.spans[name]

        def traced(*args, **kwargs):
            children = Coverage()
            stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span.calls += 1
                span.total += t1 - t0
                span.own += (t1 - t0) - children.covered
                if stack:
                    stack[-1].add(t0, t1)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.bench_span = name
        return traced

    # Counters fed by ``after`` hooks.

    def _on_scan_plane(self, samples, *args, **kwargs):
        self.cells += len(samples)

    def _on_emit(self, _result, _samples, path, *args, **kwargs):
        self.bytes_written += os.path.getsize(path)

    def _on_profile(self, profile, p, *args, **kwargs):
        self.profile_nodes += len(profile.xs)
        if p in self.p_seen:
            self.p_repeats += 1
        self.p_seen.add(p)

    def _grid_hook(self, pde):
        def on_estimate(_est, _params, config=None):
            self.estimates += 1
            self.grid_points += (config or pde.default_config()).grid.n_points
        return on_estimate


class _Proxy:
    """A module as one caller sees it: functions fetched through it are timed."""

    def __init__(self, module, layer: str, tracer: Tracer, count_calls: bool):
        self._module = module
        self._layer = layer
        self._tracer = tracer
        self._count = count_calls
        self._cache = {}

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if not isinstance(value, types.FunctionType):
            return value
        cached = self._cache.get(name)
        if cached is None or cached[0] is not value:
            wrapped = value
            if not hasattr(value, "bench_span"):
                wrapped = self._tracer.wrap(f"{self._layer}.{name}", value)
            if self._count:
                wrapped = self._counted(wrapped)
            cached = self._cache[name] = (value, wrapped)
        return cached[1]

    def _counted(self, fn):
        tracer = self._tracer

        def counted(*args, **kwargs):
            tracer.scan_to_theory += 1
            return fn(*args, **kwargs)

        return counted


def install(tracer: Tracer, modules: dict) -> list:
    """Rebind the traced names; returns the undo list for :func:`uninstall`."""
    hooks = {
        "scan.scan_plane": tracer._on_scan_plane,
        "scan.emit_csv": tracer._on_emit,
        "scan.emit_svg": tracer._on_emit,
        "supersol.sigma_profile": tracer._on_profile,
        "pde.estimate_speed": tracer._grid_hook(modules["pde"]),
    }
    undo = []
    for mod_name, attr, span in _BOUND:
        module = modules[mod_name]
        original = getattr(module, attr, None)
        if original is None:
            tracer.absent.add(span)
            continue
        undo.append((module, attr, original))
        setattr(module, attr, tracer.wrap(span, original, hooks.get(span)))
    for mod_name, attr, layer in _PROXIED:
        module = modules[mod_name]
        original = getattr(module, attr)
        undo.append((module, attr, original))
        setattr(module, attr, _Proxy(original, layer, tracer, count_calls=mod_name == "scan"))
    return undo


def uninstall(undo: list) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


# name -> (unit, span names it needs); the per_layer list of BENCHMARK.json.
LAYER_METRICS = {
    "cli.self_s": ("s", ("cli.main",)),
    "theory.classify.calls": ("count", ()),
    "theory.classify.us": ("us", ()),
    "theory.calls_per_cell": ("count", ("scan.scan_plane",)),
    "scan.scan_plane.s": ("s", ("scan.scan_plane",)),
    "scan.self_s": ("s", ("scan.scan_plane", "scan.emit_csv", "scan.emit_svg")),
    "scan.emit_csv.s": ("s", ("scan.emit_csv",)),
    "scan.emit_svg.s": ("s", ("scan.emit_svg",)),
    "scan.bytes_written": ("B", ("scan.emit_csv", "scan.emit_svg")),
    "supersol.sigma_profile.calls": ("count", ("supersol.sigma_profile",)),
    "supersol.sigma_profile.s": ("s", ("supersol.sigma_profile",)),
    "supersol.profile_nodes": ("count", ("supersol.sigma_profile",)),
    "supersol.repeat_p_share": ("share", ("supersol.sigma_profile",)),
    "supersol.residuals_IJ.s": ("s", ("supersol.residuals_IJ",)),
    "supersol.degenerate_residuals.s": ("s", ("supersol.degenerate_residuals",)),
    "model.reaction.calls": ("count", (
        "model.reaction_f@pde", "model.reaction_g@pde",
        "model.reaction_f@supersol", "model.reaction_g@supersol")),
    "model.reaction.s": ("s", (
        "model.reaction_f@pde", "model.reaction_g@pde",
        "model.reaction_f@supersol", "model.reaction_g@supersol")),
    "pde.estimate_speed.s": ("s", ("pde.estimate_speed",)),
    "pde.steps": ("count", ("model.reaction_f@pde",)),
    "pde.step_us": ("us", ("pde.estimate_speed", "model.reaction_f@pde")),
    "pde.grid_points": ("count", ("pde.estimate_speed",)),
    "pde.solve.s": ("s", ("pde.solve_banded",)),
    "pde.reaction.s": ("s", ("model.reaction_f@pde", "model.reaction_g@pde")),
    "pde.front.s": ("s", ("pde.front_position",)),
    "pde.step_other.s": ("s", ("pde.estimate_speed",)),
    "pde.fail.wall": ("count", ()),
    "pde.fail.stiff": ("count", ()),
    "pde.fail.noisy": ("count", ()),
    "trace.overhead_s": ("s", ()),
    "trace.overhead_share": ("share", ()),
}


def layer_values(tracer: Tracer, ops: int, fails: dict, untraced_s: float,
                 traced_s: float) -> tuple[dict, list]:
    """Per-layer figures per operation, and the names left out as absent."""
    n, spans = ops, tracer.spans  # a defaultdict: a name never called reads as zero

    def calls(*names):
        return sum(spans[k].calls for k in names)

    def total(*names):
        return sum(spans[k].total for k in names)

    reaction = ("model.reaction_f@pde", "model.reaction_g@pde")
    all_reaction = reaction + ("model.reaction_f@supersol", "model.reaction_g@supersol")
    steps = calls("model.reaction_f@pde")
    profiles = calls("supersol.sigma_profile")
    classify_calls = calls("theory.classify")
    values = {
        "cli.self_s": spans["cli.main"].own / n,
        "theory.classify.calls": classify_calls / n,
        "theory.classify.us": 1e6 * (share(total("theory.classify"), classify_calls) or 0.0),
        "theory.calls_per_cell": share(tracer.scan_to_theory, tracer.cells) or 0.0,
        "scan.scan_plane.s": total("scan.scan_plane") / n,
        "scan.self_s": sum(s.own for k, s in spans.items() if k.startswith("scan.")) / n,
        "scan.emit_csv.s": total("scan.emit_csv") / n,
        "scan.emit_svg.s": total("scan.emit_svg") / n,
        "scan.bytes_written": tracer.bytes_written / n,
        "supersol.sigma_profile.calls": profiles / n,
        "supersol.sigma_profile.s": total("supersol.sigma_profile") / n,
        "supersol.profile_nodes": share(tracer.profile_nodes, profiles) or 0.0,
        "supersol.repeat_p_share": share(tracer.p_repeats, profiles) or 0.0,
        "supersol.residuals_IJ.s": total("supersol.residuals_IJ") / n,
        "supersol.degenerate_residuals.s": total("supersol.degenerate_residuals") / n,
        "model.reaction.calls": calls(*all_reaction) / n,
        "model.reaction.s": total(*all_reaction) / n,
        "pde.estimate_speed.s": total("pde.estimate_speed") / n,
        "pde.steps": steps / n,
        "pde.step_us": 1e6 * (share(total("pde.estimate_speed"), steps) or 0.0),
        "pde.grid_points": share(tracer.grid_points, tracer.estimates) or 0.0,
        "pde.solve.s": total("pde.solve_banded") / n,
        "pde.reaction.s": total(*reaction) / n,
        "pde.front.s": total("pde.front_position") / n,
        "pde.step_other.s": spans["pde.estimate_speed"].own / n,
        "pde.fail.wall": fails.get("wall", 0) / n,
        "pde.fail.stiff": fails.get("stiff", 0) / n,
        "pde.fail.noisy": fails.get("noisy", 0) / n,
        "trace.overhead_s": (traced_s - untraced_s) / n,
        "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
    }
    absent = [name for name, (_, needs) in LAYER_METRICS.items()
              if any(span in tracer.absent for span in needs)]
    for name in absent:
        del values[name]
    return values, absent
