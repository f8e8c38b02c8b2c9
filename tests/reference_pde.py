"""Reference time steps for ``pde._march``.

The semi-implicit step as it was first written: the two species' backward
Euler diffusion systems are solved separately, and the reaction is stepped
by forward Euler.  ``march`` solves each symmetric positive definite system
with ``scipy.linalg.solveh_banded`` (LAPACK ``ptsv``, which factors the
matrix as L D L^T on every call).  ``pde._march`` factors the stacked
system once with the same algorithm (``dpttrf``/``dpttrs``) and must stay
bit-identical to this loop; the tests compare the two field by field.

``march_gtsv`` is the same loop on ``scipy.linalg.solve_banded`` (LAPACK
``gtsv``, a pivoting LU that assumes no symmetry); ``pde._march`` must stay
within rounding of it.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded, solveh_banded

from wavespeed.model import CompetitionParams, reaction_f, reaction_g
from wavespeed.pde import SimConfig, _check_fields


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
    for k in range(1, n_steps + 1):
        rhs_u = u[1:-1] + dt * reaction_f(u[1:-1], v[1:-1], params)
        rhs_v = v[1:-1] + dt * params.r * reaction_g(u[1:-1], v[1:-1], params)
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
