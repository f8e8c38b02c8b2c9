"""The four workloads: operations through the public entry points, and their checks.

Each workload turns the seeded inputs into a list of operations, runs one
operation at a time (closed loop, one caller) and checks every output.  A
failed operation or check is counted, never fatal.  ``Outcome.seconds``
times only the entry-point call; the checks run outside it.
"""

from __future__ import annotations

import io
import json
import math
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
from stats import median, share, tail

DECISIVE_SLACK = 0.02  # |c| > 2 stderr + 0.02, the rule of `wavespeed speed`


@dataclass
class Outcome:
    seconds: float
    attempted: int = 1
    failed: int = 0
    wrong: int = 0                      # checks that found a wrong answer
    crashed: bool = False               # an exception escaped the entry point
    reasons: Counter = field(default_factory=Counter)
    data: dict = field(default_factory=dict)


@dataclass
class Context:
    """What an operation needs: modules, entry point, scratch dir, and the clock that times it."""

    mods: dict
    main: object
    tmp: Path
    clock: object = perf_counter


def call_cli(ctx: Context, argv: list[str]):
    """Run ``ctx.main(argv)`` with output captured: (seconds, exit code, stdout, exception)."""
    out = io.StringIO()
    exc = None
    main, clock = ctx.main, ctx.clock
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        t0 = clock()
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        except Exception as err:  # an escape is a failed operation, not a fatal one
            code, exc = None, err
        seconds = clock() - t0
    return seconds, code, out.getvalue(), exc


def pde_reason(est, config) -> str:
    """Why a PDE measurement failed, judged from outside the program.

    ``stiff``: the run raised SimulationError, or scan recorded the empty
    trace it stores for one.  ``wall``: the front came within 10% of L, or
    left the domain, during the fit window.  ``noisy``: anything else.
    """
    if est is None or len(est.front_trace) == 0:
        return "stiff"
    trace = est.front_trace
    xw = trace[trace[:, 0] >= (1.0 - config.fit_window) * config.t_end, 1]
    if not np.isfinite(xw).all() or float(np.abs(xw).max()) > 0.9 * config.grid.half_length:
        return "wall"
    return "noisy"


def sign_check(theory, params, c_hat: float, stderr: float):
    """None when the PDE result or the verdict is not decisive, else agreement."""
    verdict = theory.classify(params).sign
    if verdict is theory.Sign.INCONCLUSIVE:
        return None
    if not abs(c_hat) > 2.0 * stderr + DECISIVE_SLACK:
        return None
    return (c_hat < 0.0) == (verdict is theory.Sign.NEGATIVE)


def _num(x: float) -> str:
    return repr(float(x))


def _latencies(outcomes) -> list[float]:
    return [o.seconds for o in outcomes if not o.crashed]


def _fail_share(outcomes):
    return share(sum(o.failed for o in outcomes), sum(o.attempted for o in outcomes))


def _tail_entry(name: str, values, unit: str) -> dict:
    """The tail percentile figure, unless there is none beyond the median."""
    found = tail(values)
    if found is None or found[0] == 50.0:
        return {}
    q, value = found
    return {f"{name}_p{q:g}_{unit}": (value, unit)}


class PlaneSweep:
    """`wavespeed scan` on the default k1d log plane at seed-drawn (k2, r), then the sym plane."""

    name = "plane-sweep"
    OP_S = 2.0  # nominal seconds of two scans and the CSV checks
    K1D_AXES = ((1.02, 100.0, 121, "log"), (1e-3, 1e3, 61, "log"))
    SYM_AXES = ((1.0, 10.0, 91, "linear"), (1.0 + 1e-9, 4.0, 31, "linear"))

    def prepare(self, rng):
        return inputs.sweep_planes(rng)

    def _grid(self, axes):
        out = []
        for lo, hi, n, scale in axes:
            out.append(np.geomspace(lo, hi, n) if scale == "log" else np.linspace(lo, hi, n))
        return out

    def _check_csv(self, ctx, path: Path, axes, to_params) -> tuple[int, int, int]:
        """(wrong rows, cells, conclusive cells) of one emitted CSV."""
        theory, model = ctx.mods["theory"], ctx.mods["model"]
        xs, ys = self._grid(axes)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        ix, iy, ic = header.index("x"), header.index("y"), header.index("combined")
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(xs) * len(ys):
            return 1, len(rows), 0
        wrong = decided = 0
        for k, row in enumerate(rows):
            x, y = float(xs[k % len(xs)]), float(ys[k // len(xs)])
            if not (math.isclose(float(row[ix]), x, rel_tol=1e-9)
                    and math.isclose(float(row[iy]), y, rel_tol=1e-9)):
                wrong += 1
                continue
            params = model.CompetitionParams(*to_params(x, y))
            sign = theory.classify(params).sign
            mirrored = theory.classify(theory.reflect(params)).sign
            decided += sign is not theory.Sign.INCONCLUSIVE
            if row[ic] != sign.value or (
                sign is not theory.Sign.INCONCLUSIVE and mirrored is sign
            ):
                wrong += 1
        return wrong, len(rows), decided

    def run(self, op, ctx: Context) -> Outcome:
        k2, r = op
        scans = (
            ("k1d", ["--plane", "k1d", "--k2", _num(k2), "--r", _num(r)],
             self.K1D_AXES, lambda x, y: (y * r, r, x, k2)),
            ("sym", ["--plane", "sym"], self.SYM_AXES, lambda x, y: (x, 1.0, y, y)),
        )
        outcome = Outcome(seconds=0.0, attempted=0)
        times, cells, decided = [], 0, 0
        for prefix, flags, axes, to_params in scans:
            argv = ["scan", *flags, "--output-dir", str(ctx.tmp), "--out-prefix", prefix]
            seconds, code, _, exc = call_cli(ctx, argv)
            outcome.seconds += seconds
            outcome.attempted += 1
            times.append(seconds)
            if exc is not None or code != 0:
                outcome.failed += 1
                outcome.crashed |= exc is not None
                outcome.reasons["error" if exc else "exit"] += 1
                continue
            wrong, n, conclusive = self._check_csv(ctx, ctx.tmp / f"{prefix}.csv", axes, to_params)
            cells += n
            decided += conclusive
            if wrong:
                outcome.failed += 1
                outcome.wrong += 1
                outcome.reasons["check"] += 1
        outcome.data.update(times=times, cells=cells, decided=decided)
        return outcome

    def report(self, outcomes) -> dict:
        ok = [o for o in outcomes if not o.crashed]
        times = [t for o in ok for t in o.data["times"]]
        cells = sum(o.data["cells"] for o in ok)
        return {
            "sweep_cells_per_s": (cells / sum(times), "1/s"),
            "scan_p50_s": (median(times), "s"),
            **_tail_entry("scan", times, "s"),
            "decided_share": (share(sum(o.data["decided"] for o in ok), cells), "share"),
        }


class CertifyBatch:
    """`wavespeed certify` on seed-drawn points inside the N1, N2 and degenerate regions."""

    name = "certify-batch"
    OP_S = 0.035  # nominal seconds of one certify and its check

    def prepare(self, rng):
        return inputs.certify_points(rng)

    def run(self, op, ctx: Context) -> Outcome:
        degenerate, point = op
        argv = ["certify", *(["--degenerate"] if degenerate else []), *map(_num, point)]
        seconds, code, out, exc = call_cli(ctx, argv)
        outcome = Outcome(seconds=seconds, crashed=exc is not None)
        if exc is not None:
            outcome.failed = 1
            outcome.reasons["error"] += 1
        elif code != 0 or "certified: yes" not in out:
            outcome.failed = outcome.wrong = 1
            outcome.reasons["check"] += 1
        return outcome

    def report(self, outcomes) -> dict:
        ms = [1e3 * s for s in _latencies(outcomes)]
        return {
            "certs_per_s": (1e3 * len(ms) / sum(ms), "1/s"),
            "certify_p50_ms": (median(ms), "ms"),
            **_tail_entry("certify", ms, "ms"),
        }


def _sign_figures(outcomes) -> dict:
    agree = sum(o.data.get("agree", 0) for o in outcomes)
    judged = sum(o.data.get("judged", 0) for o in outcomes)
    return {"sign_agree_share": (share(agree, judged), "share")}


class FrontSpeed:
    """`wavespeed speed` at the CLI defaults (L=200, dx=0.1, dt=0.02, t_end=400)."""

    name = "front-speed"
    OP_S = 8.0  # nominal seconds of one speed estimate

    def prepare(self, rng):
        table = json.loads((Path(__file__).parent / "reference_speeds.json").read_text())
        self.refs = {tuple(row["anchor"]): row["c_ref"] for row in table["anchors"]}
        return inputs.speed_anchors(rng)

    def tap(self, ctx: Context):
        """Rebind pde.estimate_speed to keep the last (config, estimate) the CLI made."""
        pde = ctx.mods["pde"]
        original = pde.estimate_speed
        seen = {}

        def tapped(params, config=None):
            seen["config"] = config or pde.default_config()
            seen["est"] = original(params, config)
            return seen["est"]

        pde.estimate_speed = tapped
        self.seen = seen
        return [(pde, "estimate_speed", original)]

    def run(self, op, ctx: Context) -> Outcome:
        pde, theory, model = ctx.mods["pde"], ctx.mods["theory"], ctx.mods["model"]
        self.seen.clear()
        seconds, code, out, exc = call_cli(ctx, ["speed", *map(_num, op)])
        outcome = Outcome(seconds=seconds, crashed=exc is not None)
        if exc is not None:
            outcome.failed = 1
            outcome.reasons["stiff" if isinstance(exc, pde.SimulationError) else "error"] += 1
            return outcome
        est = self.seen.get("est")
        converged = "converged: yes" in out
        if code not in (0, 3) or est is None or converged != (code == 0):
            outcome.failed = 1
            outcome.reasons["exit"] += 1
            return outcome
        if not converged:
            outcome.failed = 1
            outcome.reasons[pde_reason(est, self.seen["config"])] += 1
            return outcome
        c_hat = float(out.split("c_hat = ", 1)[1].split()[0])
        c_ref = self.refs.get(tuple(op))
        if c_ref is not None:
            err = abs(c_hat - c_ref)
            outcome.data["err"] = err
            if err > max(0.01, 0.1 * abs(c_ref)):
                outcome.failed = outcome.wrong = 1
                outcome.reasons["check"] += 1
        agree = sign_check(theory, model.CompetitionParams(*op), c_hat, est.stderr)
        if agree is not None:
            outcome.data.update(judged=1, agree=int(agree))
            if not agree:
                outcome.failed = outcome.wrong = 1
                outcome.reasons["check"] += 1
        return outcome

    def report(self, outcomes) -> dict:
        errs = [o.data["err"] for o in outcomes if "err" in o.data]
        return {
            "speed_p50_s": (median(_latencies(outcomes)), "s"),
            "speed_err_max": (max(errs) if errs else None, "1"),
            **_sign_figures(outcomes),
        }


class OracleScan:
    """One `scan.scan_plane` with the PDE oracle on every cell of a small k1d grid."""

    name = "oracle-scan"
    OP_S = 9.0  # nominal seconds of one oracle sweep and its checks

    def prepare(self, rng):
        return inputs.oracle_grids(rng)

    def run(self, op, ctx: Context) -> Outcome:
        scan, pde, theory = ctx.mods["scan"], ctx.mods["pde"], ctx.mods["theory"]
        x_range, y_range = op
        config = pde.default_config(**inputs.ORACLE_PDE)
        spec = scan.ScanSpec(
            plane="k1d", x_range=x_range, y_range=y_range,
            nx=inputs.ORACLE_NX, ny=inputs.ORACLE_NY, x_scale="log", y_scale="log",
            with_pde=True, pde_stride=1, k2=inputs.ORACLE_K2, r=inputs.ORACLE_R,
            pde_config=config,
        )
        t0 = ctx.clock()
        try:
            samples = scan.scan_plane(spec)
        except Exception:
            return Outcome(seconds=ctx.clock() - t0, crashed=True, failed=1,
                           reasons=Counter(error=1))
        outcome = Outcome(seconds=ctx.clock() - t0, attempted=len(samples))
        judged = agree_n = 0
        for s in samples:
            params = ctx.mods["model"].CompetitionParams(s.y * spec.r, spec.r, s.x, spec.k2)
            est = s.c_num
            if s.combined.sign is not theory.classify(params).sign:
                outcome.failed += 1
                outcome.wrong += 1
                outcome.reasons["check"] += 1
            elif est is None or not est.converged:
                outcome.failed += 1
                outcome.reasons[pde_reason(est, config)] += 1
            else:
                agree = sign_check(theory, params, est.c_hat, est.stderr)
                if agree is not None:
                    judged += 1
                    agree_n += agree
                    if not agree:
                        outcome.failed += 1
                        outcome.wrong += 1
                        outcome.reasons["check"] += 1
        outcome.data.update(judged=judged, agree=agree_n)
        return outcome

    def report(self, outcomes) -> dict:
        return {
            "oracle_scan_s": (median(_latencies(outcomes)), "s"),
            **_sign_figures(outcomes),
        }


WORKLOADS = {w.name: w for w in (PlaneSweep, CertifyBatch, FrontSpeed, OracleScan)}


def common_report(outcomes) -> dict:
    return {"fail_share": (_fail_share(outcomes), "share")}
