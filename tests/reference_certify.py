"""Table reference for the smooth family's certificate.

The residuals I and J of (phi, psi) = (sigma^p, sigma)(a x) evaluated on
the nodes of the tabulated standing profile, ``supersol.sigma_profile(p)``,
rescaled to ``profile.xs / a``, with a finite-difference check of phi'' on
the unit-scale table.  ``supersol.residuals_IJ`` samples the same closed
forms on a grid in s = sigma(a x) instead; the tests compare its verdict
with this one.
"""

from __future__ import annotations

import numpy as np

from wavespeed.model import CompetitionParams, reaction_f, reaction_g
from wavespeed.supersol import SigmoidProfile, SupersolCandidate, first_integral, h_p

# Largest gap between the centred difference and the closed form of phi''
# at unit scale before the table counts as too coarse.
DERIV_CHECK_TOL = 1e-4


def _fd_second_derivative(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Centred second derivative on a non-uniform grid (interior points)."""
    h1 = xs[1:-1] - xs[:-2]
    h2 = xs[2:] - xs[1:-1]
    return 2.0 * (h1 * ys[2:] - (h1 + h2) * ys[1:-1] + h2 * ys[:-2]) / (h1 * h2 * (h1 + h2))


def table_residuals(cand: SupersolCandidate, profile: SigmoidProfile,
                    params: CompetitionParams, tol: float = 1e-8):
    """(max I, max J, certified) on the profile's nodes at scale ``cand.a``."""
    assert profile.p == cand.p
    p, a2 = cand.p, cand.a * cand.a
    s = profile.sigma
    phi = s**p
    G = np.maximum(first_integral(s, p), 0.0)
    hp = h_p(s, p)
    bracket = (p - 1.0) * np.power(s, p - 2.0) * G - np.power(s, p - 1.0) * hp
    I = a2 * p * bracket + reaction_f(phi, s, params)
    J = -params.ratio * a2 * hp + reaction_g(phi, s, params)

    fd = _fd_second_derivative(profile.xs, phi)
    fd_err = float(np.max(np.abs(fd - p * bracket[1:-1])))
    assert fd_err <= DERIV_CHECK_TOL, f"table too coarse: phi'' check {fd_err:.3e}"

    max_I, max_J = float(I.max()), float(J.max())
    return max_I, max_J, max_I <= tol and max_J <= tol
