"""Direct front-speed oracle: simulate the cooperative system and time the front.

The cooperative system

    u_t = u_xx + f(u, v)
    v_t = d v_xx + r g(u, v)

is integrated on a truncated line with a semi-implicit scheme: backward
Euler in the (linear) diffusion, forward Euler in the reaction.  The two
species' diffusion systems are stacked as one tridiagonal matrix over the
interior [u; v], a symmetric positive definite matrix: it is factored
once per run as L D L^T (LAPACK ``dpttrf``) and solved once per step
(``dpttrs``).  The implicit diffusion removes the d-dependent
stability restriction, which matters for both the small-d and large-d
parameter sweeps; the explicit reaction only requires dt below the
reaction's relaxation scale.  Boundaries are clamped to the initial
condition's end values, which equal the resting states (0,0) and (1,1) for
every speed measurement and suppress boundary-layer drift.

Speed measurement tracks the u = 1/2 level crossing by linear interpolation
and regresses its position against time over the trailing window.  The grid
is a co-moving window: whenever the crossing strays more than a quarter of
the half-length from the centre, the fields move back by whole cells (an
exact copy, no interpolation) and the far field is refilled with the
resting states.  The window therefore only has to hold the front's profile,
not the distance it travels, and positions are reported in the lab frame.
A run whose final state still differs from the resting states next to the
boundaries was truncated by the window and does not converge.  Sign
convention: the wave profile translates as phi(x + c t), so the level set
moves at -c; a front drifting toward -x means c > 0.  The convention is
pinned in the tests against a parameter point with independently certified
negative speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .model import CompetitionParams, ParameterError, check_positive, reaction_f, reaction_g


class SimulationError(RuntimeError):
    """The time integration produced NaN or left the invariant region badly."""


_MAX_GRID_POINTS = 1_000_000  # 8 MB a field, about 1250 times the default 801 nodes


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [-half_length, half_length] with n_points nodes."""

    half_length: float
    n_points: int

    def __post_init__(self):
        check_positive(half_length=self.half_length)
        if not 3 <= self.n_points <= _MAX_GRID_POINTS:
            raise ParameterError(f"need 3 <= n_points <= {_MAX_GRID_POINTS}, got {self.n_points}")

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
    The desk-scale defaults (L=40, dx=0.1, dt=0.02, t_end=400) resolve any
    front with |c| >= 0.02: it travels at least 4 space units during the
    fit window.  ``estimate_speed`` recentres the front, so L only has to
    hold the front's profile: its rest-state check flags a window too short
    for it.
    """

    grid: Grid1D
    dt: float = 0.02
    t_end: float = 400.0
    front_level: float = 0.5
    fit_window: float = 0.5

    def __post_init__(self):
        check_positive(dt=self.dt, t_end=self.t_end)
        if self.t_end <= self.dt:
            raise ParameterError("need 0 < dt < t_end")
        if not (0.0 < self.front_level < 1.0):
            raise ParameterError("front_level must be in (0, 1)")
        if not (0.0 < self.fit_window <= 1.0):
            raise ParameterError("fit_window must be in (0, 1]")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def default_config(L: float = 40.0, dx: float = 0.1, **settings) -> SimConfig:
    """Grid of half-length ``L`` and spacing ``dx``; ``settings`` are SimConfig fields."""
    check_positive(L=L, dx=dx)
    if not 2.0 * L / dx < _MAX_GRID_POINTS:  # the ratio may overflow to inf
        raise ParameterError(f"dx={dx!r} on [-{L!r}, {L!r}] needs over {_MAX_GRID_POINTS} nodes")
    return SimConfig(grid=Grid1D(L, int(round(2.0 * L / dx)) + 1), **settings)


# Largest gap, at the final state, between a field's outermost interior node
# and its clamped end value for which the window still holds the front's
# profile.
REST_TOL = 1e-3


@dataclass(frozen=True)
class SpeedEstimate:
    """Front speed with regression diagnostics.

    ``front_trace`` is an (n, 2) array of (t, front position in the lab
    frame).  ``converged`` requires the regression standard error below
    0.1 * max(|c_hat|, 0.01) and, at the final state, each field within
    ``REST_TOL`` of its clamped end value at both outermost interior nodes.
    ``reason`` names why a run did not converge: ``truncation`` (the window
    cuts the front's profile), ``noisy_fit``, ``lost_crossing`` (the fit window
    holds a missing crossing, or fewer than three samples), or
    ``stiff`` for a run that raised :class:`SimulationError` and was
    recorded without a trace.  ``shifts`` holds one (t, offset) pair per
    recentring: the time and the window's offset in cells after it.
    """

    c_hat: float
    stderr: float
    front_trace: np.ndarray
    converged: bool
    reason: str | None = None
    shifts: tuple[tuple[float, int], ...] = ()


def step_profile(grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """Initial data: a step from (0,0) to (1,1) smoothed over five cells."""
    xs = grid.xs()
    u0 = 0.5 * (1.0 + np.tanh(xs / (5.0 * grid.dx)))
    return u0, u0.copy()


def _factor_diffusion(n_interior: int, rc_u: float, rc_v: float) -> tuple:
    """L D L^T factors (``dpttrf``) of I - dt*D*Laplacian on the stacked interior [u; v].

    The matrix is symmetric positive definite: diagonal 1 + 2*rc, off-diagonal
    -rc.  The u rows use ``rc_u``, the v rows ``rc_v``; the two blocks are not
    coupled, so the off-diagonal holds 0 at the junction.  Returns ``(d, e)``.
    """
    rc = np.repeat([rc_u, rc_v], n_interior)
    e = -rc[1:]
    e[n_interior - 1] = 0.0
    d, e, info = dpttrf(1.0 + 2.0 * rc, e, overwrite_d=True, overwrite_e=True)
    if info != 0:
        raise SimulationError(f"diffusion matrix is not positive definite (dpttrf info={info})")
    return d, e


def solve_banded(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """Overwrite ``rhs`` (shape (m,)) with the solution for the ``dpttrs`` factors.

    The per-step solve keeps this module-level name so that tools which
    time it by rebinding ``pde.solve_banded`` (``bench/spans.py``) still see it.
    """
    x, _ = dpttrs(*factors, rhs, overwrite_b=True)
    return x


# Field values outside [FIELD_LO, FIELD_HI] signal an unstable step.
FIELD_LO, FIELD_HI = -0.01, 1.01


def _check_fields(u: np.ndarray, v: np.ndarray, t: float) -> None:
    for name, arr in (("u", u), ("v", v)):
        lo = float(arr.min())
        hi = float(arr.max())
        if math.isnan(lo) or math.isnan(hi):
            raise SimulationError(f"{name} became NaN at t={t:g}")
        if lo < FIELD_LO or hi > FIELD_HI:
            raise SimulationError(
                f"instability: {name} in [{lo:.4g}, {hi:.4g}] at t={t:g}"
            )


def _march(params: CompetitionParams, config: SimConfig,
           u: np.ndarray, v: np.ndarray):
    """Advance (u, v) in place to ``config.t_end`` by semi-implicit steps,
    checking every step.  Only interior nodes are written, so the boundary
    values stay clamped to the initial ones.

    The diffusion matrix of the stacked interior [u; v] is factored once;
    each step writes both right-hand sides into one buffer and solves them
    with one ``solve_banded`` call.  The solution is checked against the
    box in one pass; the boundary nodes lie in [0, 1] (``simulate`` and
    ``step_profile`` see to it), so only a failed pass needs
    ``_check_fields`` to name the field and raise.  Yields (k, t) after
    every step k.
    """
    dt, dx = config.dt, config.grid.dx
    rc_u = dt / (dx * dx)
    rc_v = params.d * dt / (dx * dx)
    n = config.grid.n_points - 2
    factors = _factor_diffusion(n, rc_u, rc_v)
    rhs = np.empty(2 * n)
    rhs_u, rhs_v = rhs[:n], rhs[n:]
    u_in, v_in = u[1:-1], v[1:-1]
    for k in range(1, config.n_steps + 1):
        np.add(u_in, dt * reaction_f(u_in, v_in, params), out=rhs_u)
        np.add(v_in, dt * params.r * reaction_g(u_in, v_in, params), out=rhs_v)
        rhs_u[0] += rc_u * u[0]
        rhs_u[-1] += rc_u * u[-1]
        rhs_v[0] += rc_v * v[0]
        rhs_v[-1] += rc_v * v[-1]
        x = solve_banded(factors, rhs)
        u_in[:] = x[:n]
        v_in[:] = x[n:]
        t = k * config.dt
        # A NaN fails both comparisons.
        if not (x.min() >= FIELD_LO and x.max() <= FIELD_HI):
            _check_fields(u, v, t)
        yield k, t


def _sampled(k: int, every: int, n_steps: int) -> bool:
    """Whether step ``k`` is sampled: every ``every``-th step and the last one."""
    return k % every == 0 or k == n_steps


def _frame_every(config: SimConfig) -> int:
    """Default frame spacing in steps: about 200 frames per run."""
    return max(1, config.n_steps // 200)


def simulate(
    params: CompetitionParams,
    config: SimConfig,
    init: tuple[np.ndarray, np.ndarray],
    record_every: int | None = None,
) -> list[tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
    """Evolve the cooperative system; return sampled frames (t, x, u, v).

    Every frame shares the grid's ``x`` array.  ``init`` must be finite
    and lie componentwise in [0, 1]; :func:`_march` relies on its end
    values doing so.  The scheme preserves that box (the reaction
    pushes inward on its faces and the implicit diffusion solve is an
    M-matrix inverse), so any visible excursion signals instability and
    raises :class:`SimulationError`.
    """
    u0, v0 = init
    n = config.grid.n_points
    if len(u0) != n or len(v0) != n:
        raise ParameterError("initial fields do not match the grid")
    # NaN fails every comparison, so it is rejected with the out-of-box values.
    if not all(0.0 <= f.min() and f.max() <= 1.0 for f in (u0, v0)):
        raise ParameterError("initial fields must lie in [0, 1]^2")

    if record_every is None:
        record_every = _frame_every(config)
    xs = config.grid.xs()
    u = np.array(u0, dtype=float)
    v = np.array(v0, dtype=float)
    frames = [(0.0, xs, u.copy(), v.copy())]
    for k, t in _march(params, config, u, v):
        if _sampled(k, record_every, config.n_steps):
            frames.append((t, xs, u.copy(), v.copy()))
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


def _recentre(arr: np.ndarray, s: int) -> None:
    """Move the interior of ``arr`` in place by ``s`` cells toward -x (toward
    +x for s < 0), refilling the vacated cells with the clamped end value."""
    inner = arr[1:-1]
    if s > 0:
        inner[:-s] = inner[s:]
        inner[-s:] = arr[-1]
    else:
        inner[-s:] = inner[:s]
        inner[:-s] = arr[0]


def _rest_gap(u: np.ndarray, v: np.ndarray) -> float:
    """Largest gap between an outermost interior node and its clamped end value."""
    return max(abs(u[1] - u[0]), abs(u[-2] - u[-1]), abs(v[1] - v[0]), abs(v[-2] - v[-1]))


def estimate_speed(
    params: CompetitionParams,
    config: SimConfig | None = None,
    frames: list | None = None,
) -> SpeedEstimate:
    """Measure the front speed from a step-initialized run in a co-moving window.

    Returns c in the traveling-wave convention (profile of x + c t): c_hat
    is minus the fitted drift of the u = front_level crossing.  A negative
    c_hat means the (0,0) side, species V in the original variables,
    advances.  At every sampled step where the crossing lies more than L/4
    from the centre, u and v move back by whole cells to recentre it, and
    the trace records lab-frame positions.  Non-convergence (window too
    short for the profile, lost crossing, or a noisy fit) is reported
    through ``converged`` and ``reason`` rather than an exception so that
    parameter sweeps can continue past bad points.

    When ``frames`` is a list, the same run appends to it the frames
    (t, x, u, v) of the window, x in the lab frame; until the first shift
    they are those that :func:`simulate` records from the step profile.
    """
    if config is None:
        config = default_config()
    grid = config.grid
    xs, dx = grid.xs(), grid.dx
    u, v = step_profile(grid)
    n_steps = config.n_steps
    sample_every = max(1, n_steps // 4000)
    ts, fronts = [0.0], [front_position(xs, u, config.front_level)]
    offset, shifts = 0, []
    if frames is not None:
        frame_every = _frame_every(config)
        frames.append((0.0, xs, u.copy(), v.copy()))
    for k, t in _march(params, config, u, v):
        if _sampled(k, sample_every, n_steps):
            x = front_position(xs, u, config.front_level)
            ts.append(t)
            fronts.append(offset * dx + x)
            if abs(x) > 0.25 * grid.half_length and (s := round(x / dx)):
                _recentre(u, s)
                _recentre(v, s)
                offset += s
                shifts.append((t, offset))
        if frames is not None and _sampled(k, frame_every, n_steps):
            frames.append((t, xs + offset * dx, u.copy(), v.copy()))
    trace = np.column_stack([np.asarray(ts), np.asarray(fronts)])
    shifts = tuple(shifts)

    t_start = (1.0 - config.fit_window) * config.t_end
    window = trace[trace[:, 0] >= t_start]
    tw, xw = window[:, 0], window[:, 1]
    if not (np.isfinite(xw).all() and len(tw) >= 3):
        return SpeedEstimate(float("nan"), float("inf"), trace, False, "lost_crossing", shifts)
    slope, stderr = _ols_slope(tw, xw)
    c_hat = -slope
    if _rest_gap(u, v) > REST_TOL:
        reason = "truncation"
    elif not stderr < 0.1 * max(abs(c_hat), 0.01):
        reason = "noisy_fit"
    else:
        reason = None
    return SpeedEstimate(c_hat, stderr, trace, reason is None, reason, shifts)


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


def dump_trajectory(frames: list[tuple[float, np.ndarray, np.ndarray, np.ndarray]],
                    path) -> None:
    """Write frames (t, x, u, v) as comma-delimited rows t,x,u,v, one per node."""
    with open(path, "w") as fh:
        fh.write("t,x,u,v\n")
        for t, x, u, v in frames:
            np.savetxt(fh, np.column_stack([np.full_like(x, t), x, u, v]),
                       fmt="%.12g", delimiter=",")
