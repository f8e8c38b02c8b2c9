"""Direct front-speed oracle: simulate the cooperative system and time the front.

The cooperative system

    u_t = u_xx + f(u, v)
    v_t = d v_xx + r g(u, v)

is integrated on a truncated line with a semi-implicit scheme: backward
Euler in the (linear) diffusion via one tridiagonal solve per species per
step, forward Euler in the reaction.  That removes the d-dependent
stability restriction, which matters for both the small-d and large-d
parameter sweeps; the explicit reaction only requires dt below the
reaction's relaxation scale.  Boundaries are clamped to the initial
condition's end values, which equal the resting states (0,0) and (1,1) for
every speed measurement and suppress boundary-layer drift.

Speed measurement tracks the u = 1/2 level crossing by linear interpolation
and regresses its position against time over the trailing window.  Sign
convention: the wave profile translates as phi(x + c t), so the level set
moves at -c; a front drifting toward -x means c > 0.  The convention is
pinned in the tests against a parameter point with independently certified
negative speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_banded

from .model import CompetitionParams, ParameterError, reaction_f, reaction_g


class SimulationError(RuntimeError):
    """The time integration produced NaN or left the invariant region badly."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [-half_length, half_length] with n_points nodes."""

    half_length: float
    n_points: int

    def __post_init__(self):
        if self.half_length <= 0.0:
            raise ParameterError("half_length must be positive")
        if self.n_points < 3:
            raise ParameterError("n_points must be at least 3")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / (self.n_points - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(-self.half_length, self.half_length, self.n_points)


@dataclass(frozen=True)
class SimConfig:
    """Discretization and measurement settings.

    ``fit_window`` is the trailing fraction of the run used for the speed
    regression; ``front_level`` the u level whose crossing is tracked.
    The desk-scale defaults (L=200, dx=0.1, dt=0.02, t_end=400) resolve any
    front with |c| >= 0.02: it travels at least 4 space units during the
    fit window.
    """

    grid: Grid1D
    dt: float = 0.02
    t_end: float = 400.0
    front_level: float = 0.5
    fit_window: float = 0.5

    def __post_init__(self):
        if self.dt <= 0.0 or self.t_end <= self.dt:
            raise ParameterError("need 0 < dt < t_end")
        if not (0.0 < self.front_level < 1.0):
            raise ParameterError("front_level must be in (0, 1)")
        if not (0.0 < self.fit_window <= 1.0):
            raise ParameterError("fit_window must be in (0, 1]")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def default_config(
    L: float = 200.0,
    dx: float = 0.1,
    dt: float = 0.02,
    t_end: float = 400.0,
    front_level: float = 0.5,
    fit_window: float = 0.5,
) -> SimConfig:
    n = int(round(2.0 * L / dx)) + 1
    return SimConfig(
        grid=Grid1D(L, n),
        dt=dt,
        t_end=t_end,
        front_level=front_level,
        fit_window=fit_window,
    )


@dataclass(frozen=True)
class SpeedEstimate:
    """Front speed with regression diagnostics.

    ``front_trace`` is an (n, 2) array of (t, front position).  ``converged``
    requires the regression standard error below 0.1 * max(|c_hat|, 0.01)
    and the front at least 10% of the half-length away from both boundaries
    throughout the fit window.
    """

    c_hat: float
    stderr: float
    front_trace: np.ndarray
    converged: bool


def step_profile(grid: Grid1D, width_cells: float = 5.0) -> tuple[np.ndarray, np.ndarray]:
    """Initial data: a step from (0,0) to (1,1) smoothed over ``width_cells`` cells."""
    xs = grid.xs()
    u0 = 0.5 * (1.0 + np.tanh(xs / (width_cells * grid.dx)))
    return u0, u0.copy()


def _banded_matrix(n_interior: int, rc: float) -> np.ndarray:
    """Banded storage of I - dt*D*Laplacian for solve_banded((1,1), ...)."""
    ab = np.zeros((3, n_interior))
    ab[0, 1:] = -rc
    ab[1, :] = 1.0 + 2.0 * rc
    ab[2, :-1] = -rc
    return ab


class _Stepper:
    """One semi-implicit time step; boundary values are clamped to the initial ones."""

    def __init__(self, params: CompetitionParams, config: SimConfig,
                 u0: np.ndarray, v0: np.ndarray):
        dx = config.grid.dx
        dt = config.dt
        self.params = params
        self.dt = dt
        self.rc_u = dt / (dx * dx)
        self.rc_v = params.d * dt / (dx * dx)
        n_int = config.grid.n_points - 2
        self.ab_u = _banded_matrix(n_int, self.rc_u)
        self.ab_v = _banded_matrix(n_int, self.rc_v)
        self.u_bc = (float(u0[0]), float(u0[-1]))
        self.v_bc = (float(v0[0]), float(v0[-1]))

    def advance(self, u: np.ndarray, v: np.ndarray) -> None:
        p, dt = self.params, self.dt
        rhs_u = u[1:-1] + dt * reaction_f(u[1:-1], v[1:-1], p)
        rhs_v = v[1:-1] + dt * p.r * reaction_g(u[1:-1], v[1:-1], p)
        rhs_u[0] += self.rc_u * self.u_bc[0]
        rhs_u[-1] += self.rc_u * self.u_bc[1]
        rhs_v[0] += self.rc_v * self.v_bc[0]
        rhs_v[-1] += self.rc_v * self.v_bc[1]
        u[1:-1] = solve_banded((1, 1), self.ab_u, rhs_u,
                               overwrite_b=True, check_finite=False)
        v[1:-1] = solve_banded((1, 1), self.ab_v, rhs_v,
                               overwrite_b=True, check_finite=False)


def _check_fields(u: np.ndarray, v: np.ndarray, t: float) -> None:
    for name, arr in (("u", u), ("v", v)):
        lo = float(arr.min())
        hi = float(arr.max())
        if math.isnan(lo) or math.isnan(hi):
            raise SimulationError(f"{name} became NaN at t={t:g}")
        if lo < -0.01 or hi > 1.01:
            raise SimulationError(
                f"instability: {name} in [{lo:.4g}, {hi:.4g}] at t={t:g}"
            )


def _march(params: CompetitionParams, config: SimConfig,
           u: np.ndarray, v: np.ndarray, every: int):
    """Advance (u, v) in place to ``config.t_end``, checking every step.

    Yields the time after every ``every``-th step and after the last one.
    """
    stepper = _Stepper(params, config, u, v)
    n_steps = config.n_steps
    for k in range(1, n_steps + 1):
        stepper.advance(u, v)
        t = k * config.dt
        _check_fields(u, v, t)
        if k % every == 0 or k == n_steps:
            yield t


def simulate(
    params: CompetitionParams,
    config: SimConfig,
    init: tuple[np.ndarray, np.ndarray],
    record_every: int | None = None,
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Evolve the cooperative system; return sampled frames (t, u, v).

    ``init`` must lie componentwise in [0, 1].  The scheme preserves that
    box (the reaction pushes inward on its faces and the implicit diffusion
    solve is an M-matrix inverse), so any visible excursion signals
    instability and raises :class:`SimulationError`.
    """
    u0, v0 = init
    n = config.grid.n_points
    if len(u0) != n or len(v0) != n:
        raise ParameterError("initial fields do not match the grid")
    if min(u0.min(), v0.min()) < 0.0 or max(u0.max(), v0.max()) > 1.0:
        raise ParameterError("initial fields must lie in [0, 1]^2")

    if record_every is None:
        record_every = max(1, config.n_steps // 200)
    u = np.array(u0, dtype=float)
    v = np.array(v0, dtype=float)
    frames = [(0.0, u.copy(), v.copy())]
    for t in _march(params, config, u, v, record_every):
        frames.append((t, u.copy(), v.copy()))
    return frames


def front_position(xs: np.ndarray, u: np.ndarray, level: float) -> float:
    """Position of the first upward crossing of ``level``, by linear interpolation.

    Returns NaN when the field never crosses the level inside the domain.
    """
    above = u >= level
    if above[0] or not above.any():
        return float("nan")
    j = int(np.argmax(above))
    u0, u1 = u[j - 1], u[j]
    if u1 == u0:
        return float(xs[j])
    return float(xs[j - 1] + (xs[j] - xs[j - 1]) * (level - u0) / (u1 - u0))


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


def estimate_speed(
    params: CompetitionParams, config: SimConfig | None = None
) -> SpeedEstimate:
    """Measure the front speed from a step-initialized run.

    Returns c in the traveling-wave convention (profile of x + c t): c_hat
    is minus the fitted drift of the u = front_level crossing.  A negative
    c_hat means the (0,0) side, species V in the original variables,
    advances.  Non-convergence (front near a boundary, lost crossing, or a
    noisy fit) is reported through the ``converged`` flag rather than an
    exception so that parameter sweeps can continue past bad points.
    """
    if config is None:
        config = default_config()
    grid = config.grid
    xs = grid.xs()
    u, v = step_profile(grid)
    sample_every = max(1, config.n_steps // 4000)
    ts, fronts = [0.0], [front_position(xs, u, config.front_level)]
    for t in _march(params, config, u, v, sample_every):
        ts.append(t)
        fronts.append(front_position(xs, u, config.front_level))
    trace = np.column_stack([np.asarray(ts), np.asarray(fronts)])

    t_start = (1.0 - config.fit_window) * config.t_end
    window = trace[trace[:, 0] >= t_start]
    tw, xw = window[:, 0], window[:, 1]
    ok = np.isfinite(xw).all() and len(tw) >= 3
    if not ok:
        return SpeedEstimate(float("nan"), float("inf"), trace, False)
    slope, stderr = _ols_slope(tw, xw)
    c_hat = -slope
    in_domain = float(np.abs(xw).max()) <= 0.9 * grid.half_length
    converged = in_domain and stderr < 0.1 * max(abs(c_hat), 0.01)
    return SpeedEstimate(c_hat, stderr, trace, converged)


def refine_check(
    params: CompetitionParams, config: SimConfig | None = None
) -> tuple[SpeedEstimate, SpeedEstimate, bool]:
    """Repeat the measurement at halved dx (and dt) and compare.

    Agreement means |c1 - c2| < max(0.01, 0.1 |c1|).  dt is halved with dx:
    the implicit diffusion imposes no step restriction, and halving keeps
    the first-order temporal error in step with the spatial refinement.
    """
    if config is None:
        config = default_config()
    fine = replace(
        config,
        grid=Grid1D(config.grid.half_length, 2 * (config.grid.n_points - 1) + 1),
        dt=config.dt / 2.0,
    )
    est1 = estimate_speed(params, config)
    est2 = estimate_speed(params, fine)
    agree = abs(est1.c_hat - est2.c_hat) < max(0.01, 0.1 * abs(est1.c_hat))
    return est1, est2, agree


def dump_trajectory(
    frames: list[tuple[float, np.ndarray, np.ndarray]],
    grid: Grid1D,
    path,
) -> None:
    """Write sampled frames as delimited rows of (t, x, u, v)."""
    xs = grid.xs()
    with open(path, "w") as fh:
        fh.write("t,x,u,v\n")
        for t, u, v in frames:
            for x, uu, vv in zip(xs, u, v):
                fh.write(f"{t:.12g},{x:.12g},{uu:.12g},{vv:.12g}\n")
