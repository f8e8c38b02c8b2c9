"""Reference time steps for ``pde._Window.step``, and the regression speed estimate.

The semi-implicit step as it was first written: the two species' backward
Euler diffusion systems are solved separately, and the reaction is stepped
by forward Euler.  ``march`` solves each symmetric positive definite system
with ``scipy.linalg.solveh_banded`` (LAPACK ``ptsv``, which factors the
matrix as L D L^T on every call).  A window factors the stacked system
once per size with the same algorithm (``dpttrf``/``dpttrs``), and its
steps must stay bit-identical to this loop; the tests compare the two
field by field, also after the window grows.  The reactions are written
out here as plain expressions, independent of ``model.reaction_f`` and
``reaction_g`` and of the buffer the window's step computes them in.

``march_gtsv`` is the same loop on ``scipy.linalg.solve_banded`` (LAPACK
``gtsv``, a pivoting LU that assumes no symmetry); the window's steps must
stay within rounding of it.

``regression_estimate`` is the speed estimate that the mass balance of
``pde.estimate_speed`` replaced: it marches to ``t_end`` and fits a line to
the u = 1/2 crossing over the trailing ``fit_window`` of the run.  The
tests hold ``pde.estimate_speed``'s converged flags and reasons to it, and
its stopped c_hat to the mass-balance c_u that this run reads at ``t_end``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_banded, solveh_banded

from wavespeed import pde
from wavespeed.model import CompetitionParams
from wavespeed.pde import SimConfig, SpeedEstimate, _check_fields


def _banded_matrix(n_interior: int, rc: float) -> np.ndarray:
    """Banded storage of I - dt*D*Laplacian for solve_banded((1,1), ...)."""
    ab = np.zeros((3, n_interior))
    ab[0, 1:] = -rc
    ab[1, :] = 1.0 + 2.0 * rc
    ab[2, :-1] = -rc
    return ab


def _gtsv(n_interior: int, rc: float):
    ab = _banded_matrix(n_interior, rc)
    return lambda rhs: solve_banded((1, 1), ab, rhs, overwrite_b=True, check_finite=False)


def _ptsv(n_interior: int, rc: float):
    # Upper storage: superdiagonal in row 0, diagonal in row 1.
    ab = _banded_matrix(n_interior, rc)[:2]
    return lambda rhs: solveh_banded(ab, rhs, overwrite_b=True, check_finite=False)


def _march(solver, params: CompetitionParams, config: SimConfig,
           u: np.ndarray, v: np.ndarray, n_steps: int) -> None:
    dt, dx = config.dt, config.grid.dx
    rc_u = dt / (dx * dx)
    rc_v = params.d * dt / (dx * dx)
    n_int = config.grid.n_points - 2
    solve_u = solver(n_int, rc_u)
    solve_v = solver(n_int, rc_v)
    k1, k2 = params.k1, params.k2
    for k in range(1, n_steps + 1):
        ui, vi = u[1:-1], v[1:-1]
        rhs_u = ui + dt * (ui * (1.0 - ui - k1 * (1.0 - vi)))
        rhs_v = vi + dt * params.r * ((1.0 - vi) * (k2 * ui - vi))
        rhs_u[0] += rc_u * u[0]
        rhs_u[-1] += rc_u * u[-1]
        rhs_v[0] += rc_v * v[0]
        rhs_v[-1] += rc_v * v[-1]
        u[1:-1] = solve_u(rhs_u)
        v[1:-1] = solve_v(rhs_v)
        _check_fields(u, v, k * config.dt)


def march(params: CompetitionParams, config: SimConfig,
          u: np.ndarray, v: np.ndarray, n_steps: int) -> None:
    """Advance (u, v) in place by ``n_steps`` steps with ``ptsv``, checking every step."""
    _march(_ptsv, params, config, u, v, n_steps)


def march_gtsv(params: CompetitionParams, config: SimConfig,
               u: np.ndarray, v: np.ndarray, n_steps: int) -> None:
    """Advance (u, v) in place by ``n_steps`` steps with ``gtsv``, checking every step."""
    _march(_gtsv, params, config, u, v, n_steps)


def _ols_slope(t: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of x against t and its standard error."""
    tbar = t.mean()
    xbar = x.mean()
    stt = float(((t - tbar) ** 2).sum())
    slope = float(((t - tbar) * (x - xbar)).sum()) / stt
    resid = x - xbar - slope * (t - tbar)
    dof = max(len(t) - 2, 1)
    s2 = float((resid**2).sum()) / dof
    return slope, math.sqrt(s2 / stt)


def regression_estimate(params: CompetitionParams, config: SimConfig,
                        fit_window: float = 0.5) -> tuple[SpeedEstimate, float]:
    """The front speed as minus the fitted drift of the u = 1/2 crossing,
    and the mass-balance c_u at ``config.t_end``.

    Marches all of ``config.t_end`` in the co-moving window of
    ``pde.estimate_speed``, which follows the front after every step and
    grows at the same balance samples, and fits the trailing ``fit_window``
    of the run.
    Reasons: ``truncation`` (rest gap above ``pde.REST_TOL``), then
    ``lost_crossing`` (a missing crossing or under three samples in the fit
    window) and ``noisy_fit`` (standard error not below
    0.1 * max(|c|, 0.01)).  c_u is read at every balance sample before
    that step's recentre, as ``pde.estimate_speed`` reads it, and the last
    one is returned.
    """
    window = pde._Window(params, config)
    n_steps = config.n_steps
    balance_every = max(1, round(pde.SAMPLE_DT / config.dt))
    ts, fronts = [0.0], [pde.front_position(window.xs, window.u, pde.FRONT_LEVEL)]
    for k in range(1, n_steps + 1):
        t = window.step(k)
        balance = k % balance_every == 0 or k == n_steps
        if balance:
            c_u = window.speeds()[0]
        ts.append(t)
        fronts.append(window.track(t))
        if balance:
            window.grow(k, c_u, pde._rest_gap(window.u, window.v))
    trace = np.column_stack([np.asarray(ts), np.asarray(fronts)])
    fit = trace[trace[:, 0] >= (1.0 - fit_window) * config.t_end]
    tw, xw = fit[:, 0], fit[:, 1]
    if not (np.isfinite(xw).all() and len(tw) >= 3):
        return SpeedEstimate(float("nan"), float("inf"), trace, "lost_crossing"), c_u
    slope, stderr = _ols_slope(tw, xw)
    if pde._rest_gap(window.u, window.v) > pde.REST_TOL:
        reason = "truncation"
    elif not stderr < 0.1 * max(abs(slope), 0.01):
        reason = "noisy_fit"
    else:
        reason = None
    return SpeedEstimate(-slope, stderr, trace, reason), c_u
