"""Reference time step for ``pde._march``.

The semi-implicit step as it was first written: the two species' backward
Euler diffusion systems are solved separately, each with
``scipy.linalg.solve_banded`` (LAPACK ``gtsv``, which factors the matrix on
every call), and the reaction is stepped by forward Euler.  ``pde._march``
factors the stacked system once and must stay bit-identical to this loop;
the tests compare the two field by field.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded

from wavespeed.model import CompetitionParams, reaction_f, reaction_g
from wavespeed.pde import SimConfig, _check_fields


def _banded_matrix(n_interior: int, rc: float) -> np.ndarray:
    """Banded storage of I - dt*D*Laplacian for solve_banded((1,1), ...)."""
    ab = np.zeros((3, n_interior))
    ab[0, 1:] = -rc
    ab[1, :] = 1.0 + 2.0 * rc
    ab[2, :-1] = -rc
    return ab


def march(params: CompetitionParams, config: SimConfig,
          u: np.ndarray, v: np.ndarray, n_steps: int) -> None:
    """Advance (u, v) in place by ``n_steps`` semi-implicit steps, checking every step."""
    dt, dx = config.dt, config.grid.dx
    rc_u = dt / (dx * dx)
    rc_v = params.d * dt / (dx * dx)
    n_int = config.grid.n_points - 2
    ab_u = _banded_matrix(n_int, rc_u)
    ab_v = _banded_matrix(n_int, rc_v)
    for k in range(1, n_steps + 1):
        rhs_u = u[1:-1] + dt * reaction_f(u[1:-1], v[1:-1], params)
        rhs_v = v[1:-1] + dt * params.r * reaction_g(u[1:-1], v[1:-1], params)
        rhs_u[0] += rc_u * u[0]
        rhs_u[-1] += rc_u * u[-1]
        rhs_v[0] += rc_v * v[0]
        rhs_v[-1] += rc_v * v[-1]
        u[1:-1] = solve_banded((1, 1), ab_u, rhs_u, overwrite_b=True, check_finite=False)
        v[1:-1] = solve_banded((1, 1), ab_v, rhs_v, overwrite_b=True, check_finite=False)
        _check_fields(u, v, k * config.dt)
