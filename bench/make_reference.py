"""Recompute the reference speeds of the front-speed anchors.

    python3 bench/make_reference.py            # writes bench/reference_speeds.json

For each anchor the domain half-length L is doubled, from 200, until a
default-resolution run keeps the front clear of the wall; the reference is
then ``pde.estimate_speed`` at half the default dx and dt on that domain.
The command, library versions and wall times are stored beside the values.
The benchmark only reads the file; it never runs this script.  Takes about
ten minutes on one core.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from wavespeed import pde  # noqa: E402
from wavespeed.model import validate  # noqa: E402

import inputs  # noqa: E402

DX, DT, T_END = 0.1, 0.02, 400.0
MAX_L = 1600.0


def _wall_hit(est: pde.SpeedEstimate, L: float) -> bool:
    t_start = 0.5 * T_END
    xw = est.front_trace[est.front_trace[:, 0] >= t_start, 1]
    return not np.isfinite(xw).all() or float(np.abs(xw).max()) > 0.9 * L


def reference(anchor) -> dict:
    params = validate(*anchor)
    entry = {"anchor": list(anchor)}
    t0 = time.perf_counter()
    L = 200.0
    try:
        while True:
            est = pde.estimate_speed(params, pde.default_config(L=L, dx=DX, dt=DT, t_end=T_END))
            if not _wall_hit(est, L) or L >= MAX_L:
                break
            L *= 2.0
        fine = pde.estimate_speed(
            params, pde.default_config(L=L, dx=DX / 2, dt=DT / 2, t_end=T_END)
        )
    except pde.SimulationError as exc:
        entry.update(c_ref=None, reason=f"stiff: {exc}")
    else:
        entry.update(
            c_ref=fine.c_hat if fine.converged else None,
            stderr=fine.stderr,
            converged=bool(fine.converged),
            L=L, dx=DX / 2, dt=DT / 2, t_end=T_END,
        )
        if not fine.converged:
            entry["reason"] = "reference run did not converge"
    entry["wall_s"] = round(time.perf_counter() - t0, 2)
    return entry


def main() -> None:
    t0 = time.perf_counter()
    rows = []
    for anchor in inputs.ANCHORS:
        rows.append(reference(anchor))
        print(json.dumps(rows[-1]), flush=True)
    out = {
        "command": "python3 bench/make_reference.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "total_wall_s": round(time.perf_counter() - t0, 1),
        "anchors": rows,
    }
    (HERE / "reference_speeds.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
