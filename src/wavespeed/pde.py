"""Direct front-speed oracle: march the cooperative system and read the front's speed.

The cooperative system

    u_t = u_xx + f(u, v)
    v_t = d v_xx + r g(u, v)

is integrated on a truncated line with a semi-implicit scheme: backward
Euler in the (linear) diffusion, forward Euler in the reaction.  The two
species' diffusion systems are stacked as one tridiagonal matrix over the
interior [u; v], a symmetric positive definite matrix: it is factored
once per window size as L D L^T (LAPACK ``dpttrf``) and solved once per
step (``dpttrs``).  The implicit diffusion removes the d-dependent
stability restriction, which matters for both the small-d and large-d
parameter sweeps; the explicit reaction only requires dt below the
reaction's relaxation scale.  Boundaries are clamped to the initial
condition's end values, which equal the resting states (0,0) and (1,1) for
every speed measurement and suppress boundary-layer drift.

The speed comes from the mass balance: a front phi(x + c t) with u -> 0 at
-L and 1 at +L gains u-mass at rate c = int f dx + [u_x], and v-mass at
rate c = r int g dx + d [v_x].  The run forms both, c_u and c_v, and stops
once they agree and have settled; ``t_end`` is a cap.  The u = 1/2 level
crossing, found by linear interpolation after every step, drives a
co-moving window: whenever it is more than a cell from the centre, the
fields move back by whole cells (an exact copy, no interpolation) and the
far field is refilled with the resting states.  The window therefore only
has to hold the front's profile, not the distance it travels, and
positions are reported in the lab frame.  Where the profile's tails reach
the window's ends, the window grows to hold them: its half-length becomes
TAIL_SPAN decay lengths of the slowest tail, linearised at the resting
states, up to GROW_LIMIT times the starting one.  A run whose final state
still differs from the resting states next to the boundaries was truncated
by the window and does not converge.  Sign convention: the wave profile
translates as phi(x + c t), so the level set moves at -c; a front drifting
toward -x means c > 0.  The convention is pinned in the tests against a
parameter point with independently certified negative speed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .model import CompetitionParams, ParameterError, check_positive, reaction_f, reaction_g


class SimulationError(RuntimeError):
    """The time integration produced NaN or left the invariant region badly."""


_MAX_GRID_POINTS = 1_000_000  # 8 MB a field, about 1250 times the default 801 nodes
_MAX_STEPS = 100_000_000  # 5000 times the default 20 000 steps


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
    """Discretization settings and the cap ``t_end`` on a run's length.

    ``estimate_speed`` stops once the speed has settled (at the defaults,
    by about t = 30) and recentres the front, so L only has to hold the
    front's profile; ``grid`` is the window it starts from.  ``fit_window``
    is a constant for readers of the trace.
    """

    grid: Grid1D
    dt: float = 0.02
    t_end: float = 400.0
    fit_window = 0.5

    def __post_init__(self):
        check_positive(dt=self.dt, t_end=self.t_end)
        if self.t_end <= self.dt:
            raise ParameterError("need 0 < dt < t_end")
        if not self.t_end / self.dt < _MAX_STEPS:  # the ratio may overflow to inf
            raise ParameterError(f"need t_end / dt < {_MAX_STEPS}, got {self.t_end / self.dt!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def default_config(L: float = 40.0, dx: float = 0.1, **settings) -> SimConfig:
    """Grid of half-length ``L`` and spacing ``dx``; ``settings`` are SimConfig fields."""
    check_positive(L=L, dx=dx)
    if not 2.0 * L / dx < _MAX_GRID_POINTS:  # the ratio may overflow to inf
        raise ParameterError(f"dx={dx!r} on [-{L!r}, {L!r}] needs over {_MAX_GRID_POINTS} nodes")
    return SimConfig(grid=Grid1D(L, int(round(2.0 * L / dx)) + 1), **settings)


# The u level whose crossing is the front.  Once the front has relaxed,
# every level moves at the same speed.
FRONT_LEVEL = 0.5
# Largest gap, at the final state, between a field's outermost interior node
# and its clamped end value for which the window still holds the front's
# profile.
REST_TOL = 1e-3
# The mass-balance speeds are sampled every SAMPLE_DT time units.  A run
# stops once c_u has moved by less than SETTLE_TOL over SETTLE_LAG time units
# and c_u and c_v agree within SETTLE_TOL.
SAMPLE_DT = 0.5
SETTLE_LAG = 5.0
SETTLE_TOL = 1e-5
# A window grows (``_Window.grow``) to TAIL_SPAN decay lengths of the front's
# slowest linearised tail once that asks for more than GROW_SLACK times its
# half-length and the rest gap exceeds GROW_GAP; never beyond GROW_LIMIT
# times the starting half-length.
TAIL_SPAN = 20.0
GROW_SLACK = 1.25
GROW_GAP = REST_TOL / 100
GROW_LIMIT = 8.0


@dataclass(frozen=True)
class SpeedEstimate:
    """Front speed from the mass balance, with its error bar.

    ``c_hat`` is c_u at the last sample; ``stderr`` is the larger of
    |c_u - c_v| and the range of c_u over the last SETTLE_LAG (inf before
    t = SETTLE_LAG).  ``front_trace`` is an (n, 2) array of (t, front
    position in the lab frame) up to the last step.  A run converged when
    ``stderr`` is below 0.1 * max(|c_hat|, 0.01) and each field is within
    ``REST_TOL`` of its clamped end value at both outermost interior nodes.
    Otherwise ``reason`` names why it did not: ``truncation`` (the window
    cuts the front's profile), ``not_relaxed`` (the error bar is too wide),
    or ``stiff`` for a run that raised :class:`SimulationError`, recorded
    without a trace.  ``shifts`` holds one (t, offset in cells) per recentring
    and ``half_length`` the window's at the end of the run (None for
    ``stiff``).
    """

    c_hat: float
    stderr: float
    front_trace: np.ndarray
    reason: str | None = None
    shifts: tuple[tuple[float, int], ...] = ()
    half_length: float | None = None

    @property
    def converged(self) -> bool:
        """Whether the run converged: it names no ``reason`` it did not."""
        return self.reason is None


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


def front_position(xs: np.ndarray, u: np.ndarray, level: float) -> float:
    """Position of the first upward crossing of ``level``, by linear interpolation.

    Returns NaN when the field never crosses the level inside the domain.
    """
    # argmax is 0 both when the first node is above and when none is.
    j = int((u >= level).argmax())
    if j == 0:
        return float("nan")
    # Python floats: the same IEEE operations as on numpy scalars, but faster.
    x0, x1 = xs[j - 1:j + 1].tolist()
    u0, u1 = u[j - 1:j + 1].tolist()  # u0 < level <= u1, or u0 is nan: never equal
    return x0 + (x1 - x0) * (level - u0) / (u1 - u0)


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


def _root(b: float, a: float) -> float:
    """The positive root of x^2 - b x - a = 0 for a > 0, without cancellation."""
    s = math.sqrt(b * b + 4.0 * a)
    return (b + s) / 2.0 if b >= 0.0 else 2.0 * a / (s - b)


def _tail_rates(params: CompetitionParams, c: float) -> tuple[float, float, float, float]:
    """Decay rates of a front of speed c, linearised at its ends: those of
    u and of v toward (0, 0) at -x, then of 1 - u and 1 - v toward (1, 1)."""
    d, r = params.d, params.r
    return (_root(c, params.k1 - 1.0), _root(c / d, r / d),
            _root(-c, 1.0), _root(-c / d, r * (params.k2 - 1.0) / d))


class _Window:
    """The co-moving window of one run from the step profile: the fields,
    their grid (``config``, replaced when the window grows), the offset of
    its centre from the lab frame, in cells, and the time step on that grid.

    ``estimate_speed`` and the regression reference of the tests step
    through the same window, so that both follow, and grow, alike.
    """

    def __init__(self, params: CompetitionParams, config: SimConfig):
        self.params, self.config = params, config
        self.u, self.v = step_profile(config.grid)
        self.offset, self.shifts = 0, []
        # Cells on each side of the centre: GROW_LIMIT times the starting
        # number, within _MAX_GRID_POINTS.
        self.max_cells = min(int(GROW_LIMIT * ((config.grid.n_points - 1) // 2)),
                             (_MAX_GRID_POINTS - 1) // 2)
        self._regrid()

    def _regrid(self) -> None:
        """Build what the window's size fixes: its nodes, the centre's views
        and, once rather than at every step, the step's operands (interior
        views, the stacked right-hand side [u; v], diffusion factors, constants)."""
        config, params = self.config, self.params
        grid = config.grid
        self.xs, self.dx = grid.xs(), grid.dx
        self.centre = m = (grid.n_points - 1) // 2
        self.xs_centre = self.xs[m - 1:m + 2].tolist()
        self.u_centre = self.u[m - 1:m + 2]
        dt, dx, n = config.dt, self.dx, grid.n_points - 2
        rc_u, rc_v = dt / (dx * dx), params.d * dt / (dx * dx)
        rhs = np.empty(2 * n)
        self._operands = (self.u[1:-1], self.v[1:-1], rhs, rhs[:n], rhs[n:], n,
                          _factor_diffusion(n, rc_u, rc_v), dt, dt * params.r, rc_u, rc_v)

    def step(self, k: int) -> float:
        """Advance the fields in place by the semi-implicit step k and return
        its time k dt.  Only interior nodes are written, so the boundary
        values stay clamped; the end terms are read from them at every step.

        The reactions write straight into the right-hand side, which is
        scaled by dt (dt r for v) and added to the fields: the bits of
        ``u + dt f`` and ``v + (dt r) g``, with no temporaries but the
        reactions' ``1 - u`` and ``1 - v``.  One ``solve_banded`` call
        solves both species, and one pass checks the solution against the
        box; the boundary nodes are in [0, 1], as ``step_profile`` makes
        them, so only a failed pass needs ``_check_fields`` to name the
        field and raise.
        """
        u, v, params = self.u, self.v, self.params
        u_in, v_in, rhs, rhs_u, rhs_v, n, factors, dt, dt_r, rc_u, rc_v = self._operands
        # The buffer goes positionally: tools that rebind the reactions
        # (bench/spans.py) may forward only positional arguments.
        reaction_f(u_in, v_in, params, rhs_u)
        rhs_u *= dt
        rhs_u += u_in
        reaction_g(u_in, v_in, params, rhs_v)
        rhs_v *= dt_r
        rhs_v += v_in
        rhs_u[0] += rc_u * u[0]
        rhs_u[-1] += rc_u * u[-1]
        rhs_v[0] += rc_v * v[0]
        rhs_v[-1] += rc_v * v[-1]
        x = solve_banded(factors, rhs)
        u_in[:] = x[:n]
        v_in[:] = x[n:]
        t = k * dt
        # A NaN fails both comparisons.
        if not (x.min() >= FIELD_LO and x.max() <= FIELD_HI):
            _check_fields(u, v, t)
        return t

    def speeds(self) -> tuple[float, float]:
        """(c_u, c_v): the front speed from the mass balance of u and of v."""
        params, u, v, dx = self.params, self.u, self.v, self.dx
        c_u = dx * reaction_f(u[1:-1], v[1:-1], params).sum() + (u[-1] - u[-2] - u[1] + u[0]) / dx
        c_v = (params.r * dx * reaction_g(u[1:-1], v[1:-1], params).sum()
               + params.d * (v[-1] - v[-2] - v[1] + v[0]) / dx)
        return float(c_u), float(c_v)

    def frame(self, t: float) -> tuple:
        """(t, x, u, v) of the window, x in the lab frame."""
        return t, self.xs + self.offset * self.dx, self.u.copy(), self.v.copy()

    def track(self, t: float) -> float:
        """The lab-frame position of the u = FRONT_LEVEL crossing after the
        step at t.  While the crossing lies in one of the centre node's two
        cells it is interpolated there, with the operations of
        ``front_position``; otherwise ``front_position`` finds it and, once
        it is more than a cell from the centre node, u and v move back by
        whole cells to put it within half a cell of that node."""
        lo, mid, hi = self.u_centre.tolist()
        if lo < FRONT_LEVEL <= mid:
            (x0, x1, _), u0, u1 = self.xs_centre, lo, mid
        elif mid < FRONT_LEVEL <= hi:
            (_, x0, x1), u0, u1 = self.xs_centre, mid, hi
        else:
            x = front_position(self.xs, self.u, FRONT_LEVEL)
            lab = self.offset * self.dx + x
            # The centre node is at 0 (up to rounding) on an odd number of
            # nodes, and at -dx/2 on an even one.
            away = x - self.xs_centre[1]
            if abs(away) > self.dx:  # NaN, a lost crossing, moves nothing
                s = round(away / self.dx)
                _recentre(self.u, s)
                _recentre(self.v, s)
                self.offset += s
                self.shifts.append((t, self.offset))
            return lab
        return self.offset * self.dx + (x0 + (x1 - x0) * (FRONT_LEVEL - u0) / (u1 - u0))

    def grow(self, k: int, c: float, gap: float) -> bool:
        """Widen the window at the balance sample of step k, from t =
        SETTLE_LAG on, when the rest gap exceeds GROW_GAP and the slowest
        linearised tail rate at the speed c asks for more than GROW_SLACK
        times the half-length.  Both fields are padded on each side with
        their end values, to TAIL_SPAN decay lengths or to the limit.
        Returns whether the window grew."""
        config = self.config
        if not (k * config.dt >= SETTLE_LAG and k < config.n_steps and gap > GROW_GAP):
            return False
        rate = min(_tail_rates(self.params, c))
        n_cells = self.centre  # on each side of the centre
        if not TAIL_SPAN > GROW_SLACK * n_cells * self.dx * rate:  # a NaN rate never grows
            return False
        cells = (self.max_cells if TAIL_SPAN >= self.max_cells * self.dx * rate
                 else int(TAIL_SPAN / (rate * self.dx)))
        pad = cells - n_cells
        if pad < 1:
            return False
        n_points = config.grid.n_points + 2 * pad
        self.config = replace(config, grid=Grid1D(self.dx * (n_points - 1) / 2.0, n_points))
        self.u, self.v = (np.pad(field, pad, mode="edge") for field in (self.u, self.v))
        self._regrid()
        return True


def estimate_speed(
    params: CompetitionParams,
    config: SimConfig | None = None,
    frames: list | None = None,
) -> SpeedEstimate:
    """Measure the front speed from a step-initialized run in a co-moving window.

    Returns c in the traveling-wave convention (profile of x + c t): c_hat
    is c_u (module docstring); c_hat < 0 means the (0,0) side, species V in
    the original variables, advances.  The run stops at the first sample
    where it has converged with an error bar below SETTLE_TOL, so a run that
    does not converge reaches ``config.t_end``.  The front is tracked after
    every step and recentred whenever it is more than a cell from the
    centre; the trace records lab-frame positions.  ``config``'s half-length
    is the window's starting one: it grows at a sample where the tails
    reach the window's ends (``_Window.grow``).  Non-convergence is
    reported through ``converged`` and ``reason``, not raised, so that
    parameter sweeps continue past bad points.

    When ``frames`` is a list, the same run appends to it the frames
    (t, x, u, v) of the window, x in the lab frame: the step profile, the
    state after every ``max(1, n_steps // 200)``-th step, and the state at
    the stop.
    """
    if config is None:
        config = default_config()
    window = _Window(params, config)
    n_steps = config.n_steps
    balance_every = max(1, round(SAMPLE_DT / config.dt))
    lag = max(1, round(SETTLE_LAG / (balance_every * config.dt)))  # in balance samples
    history = [window.speeds()[0]]  # c_u at steps 0, balance_every, ...
    fronts = [front_position(window.xs, window.u, FRONT_LEVEL)]
    if frames is not None:
        frame_every = max(1, n_steps // 200)
        frames.append(window.frame(0.0))
    for k in range(1, n_steps + 1):
        t = window.step(k)
        balance = k % balance_every == 0 or k == n_steps
        if balance:
            c_u, c_v = window.speeds()
            history.append(c_u)
            j = k // balance_every - lag  # the sample at or before t - SETTLE_LAG
            drift = max(history[j:]) - min(history[j:]) if j >= 0 else math.inf
            error = max(drift, abs(c_u - c_v))
        fronts.append(window.track(t))
        if balance:  # the rest gap is judged after the recentre, the speeds before it
            gap = _rest_gap(window.u, window.v)
            grown = window.grow(k, c_u, gap)
            reason = ("truncation" if gap > REST_TOL else
                      None if error < 0.1 * max(abs(c_u), 0.01) else "not_relaxed")
        stop = balance and (k == n_steps or reason is None and error < SETTLE_TOL and not grown)
        if frames is not None and (stop or k % frame_every == 0):
            frames.append(window.frame(t))
        if stop:
            break
    trace = np.column_stack([np.arange(len(fronts)) * config.dt, np.asarray(fronts)])
    return SpeedEstimate(c_u, error, trace, reason, tuple(window.shifts),
                         window.config.grid.half_length)


def _estimate_one(job: tuple[CompetitionParams, SimConfig | None]) -> SpeedEstimate:
    """:func:`estimate_speed` of one (params, config) job, a stiff run as the
    ``stiff`` record."""
    try:
        return estimate_speed(*job)  # the global: a rebinding reaches forked workers
    except SimulationError:
        return SpeedEstimate(math.nan, math.inf, np.empty((0, 2)), "stiff")


def estimate_speeds(jobs: list) -> list[SpeedEstimate]:
    """:func:`estimate_speed` of each (params, config) job, in order, stiff runs
    as the ``stiff`` record, on n = min(jobs, CPUs in the affinity mask, or on
    macOS in the machine) forked workers: the executor hands each worker the
    next job as it finishes one, and all are joined before it returns or raises."""
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS
    n = min(len(jobs), len(affinity(0)) if affinity else os.cpu_count() or 1)
    if n <= 1:
        return [_estimate_one(job) for job in jobs]
    import multiprocessing  # about 8 ms, paid only by a call that forks
    from concurrent.futures import ProcessPoolExecutor

    # fork: a spawned worker would re-import numpy and scipy (about 0.4 s).
    with ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_estimate_one, jobs))


def dump_trajectory(frames: list[tuple[float, np.ndarray, np.ndarray, np.ndarray]],
                    path) -> None:
    """Write frames (t, x, u, v) as comma-delimited rows t,x,u,v, one per node."""
    with open(path, "w") as fh:
        fh.write("t,x,u,v\n")
        for t, x, u, v in frames:
            np.savetxt(fh, np.column_stack([np.full_like(x, t), x, u, v]),
                       fmt="%.12g", delimiter=",")
