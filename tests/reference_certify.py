"""References for the smooth family's certificate.

``table_residuals`` evaluates the residuals I and J of (phi, psi) =
(sigma^p, sigma)(a x) on the nodes of the tabulated standing profile,
``supersol.sigma_profile(p)``, rescaled to ``profile.xs / a``, with a
finite-difference check of phi'' on the unit-scale table.  It judges I and J
against an absolute tolerance.

``dense_margins`` samples the factors q = I / s^p and L = J / (s (1 - s))
on ``DENSE_NODES``, log-graded toward s = 0 and s = 1, and scales them as
``supersol.residuals_IJ`` does; q is checked against I, formed from the
closed forms of phi'' and f, where s^p is not negligible.

``supersol.residuals_IJ`` decides the same signs from the closed forms of
q and L; the tests compare its verdict and margins with these.
"""

from __future__ import annotations

import functools

import numpy as np

from wavespeed.model import CompetitionParams, reaction_f, reaction_g
from wavespeed.supersol import (SigmoidProfile, SupersolCandidate, abc_coefficients,
                                alpha_p, first_integral, h_p)

# Largest gap between the centred difference and the closed form of phi''
# at unit scale before the table counts as too coarse.
DERIV_CHECK_TOL = 1e-4

# 10^5 s nodes: 60 000 log-graded from 1e-300 up to 1/2, then 40 000 in
# 1 - s down to 1e-16.
DENSE_NODES = np.concatenate([np.geomspace(1e-300, 0.5, 60_000),
                              1.0 - np.geomspace(0.5, 1e-16, 40_001)[1:]])
# Largest gap between s^p q and the closed-form I, over the scale of q, at
# the nodes where s^p >= 1e-100.
FACTOR_CHECK_TOL = 1e-12


def _fd_second_derivative(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Centred second derivative on a non-uniform grid (interior points)."""
    h1 = xs[1:-1] - xs[:-2]
    h2 = xs[2:] - xs[1:-1]
    return 2.0 * (h1 * ys[2:] - (h1 + h2) * ys[1:-1] + h2 * ys[:-2]) / (h1 * h2 * (h1 + h2))


def _closed_form_IJ(s: np.ndarray, p: float, a2: float, params: CompetitionParams):
    """(I, J, phi''/a^2) at s = sigma(a x), from the first integral G = (sigma')^2."""
    phi = s**p
    G = np.maximum(first_integral(s, p), 0.0)
    hp = h_p(s, p)
    bracket = p * ((p - 1.0) * np.power(s, p - 2.0) * G - np.power(s, p - 1.0) * hp)
    I = a2 * bracket + reaction_f(phi, s, params)
    J = -params.ratio * a2 * hp + reaction_g(phi, s, params)
    return I, J, bracket


def table_residuals(cand: SupersolCandidate, profile: SigmoidProfile,
                    params: CompetitionParams, tol: float = 1e-8):
    """(max I, max J, certified) on the profile's nodes at scale ``cand.a``."""
    assert profile.p == cand.p
    p = cand.p
    I, J, bracket = _closed_form_IJ(profile.sigma, p, cand.a * cand.a, params)

    fd = _fd_second_derivative(profile.xs, profile.sigma**p)
    fd_err = float(np.max(np.abs(fd - bracket[1:-1])))
    assert fd_err <= DERIV_CHECK_TOL, f"table too coarse: phi'' check {fd_err:.3e}"

    max_I, max_J = float(I.max()), float(J.max())
    return max_I, max_J, max_I <= tol and max_J <= tol


@functools.lru_cache(maxsize=4)
def _dense_powers(p: float) -> tuple[np.ndarray, np.ndarray]:
    """s^(p-1) and s^p on ``DENSE_NODES``; bisections in a reuse them."""
    return DENSE_NODES ** (p - 1.0), DENSE_NODES**p


def dense_q(cand: SupersolCandidate, params: CompetitionParams) -> np.ndarray:
    """q on ``DENSE_NODES`` over its largest coefficient, checked against I."""
    p, s = cand.p, DENSE_NODES
    sp1, sp = _dense_powers(p)
    coeffs = abc_coefficients(cand, params)
    scale = max(map(abs, coeffs))
    A, B, C, D = (c / scale for c in coeffs)
    q = A + B * s + C * sp1 + D * sp

    shown = sp >= 1e-100
    if shown.any():
        I = _closed_form_IJ(s[shown], p, cand.a * cand.a, params)[0] / scale
        gap = float(np.max(np.abs(sp[shown] * q[shown] - I) / sp[shown]))
        assert gap <= FACTOR_CHECK_TOL, f"I != s^p q: gap {gap:.3e}"
    return q


def dense_margins(cand: SupersolCandidate, params: CompetitionParams):
    """(max q margin, its s, max L margin, its s) on ``DENSE_NODES``.

    A margin is the value over the largest of the terms that sum to it at
    that s: A, B s, C s^(p-1), D s^p for q, and k2 s^(p-1), (d/r) a^2 s^(p-1),
    (d/r) a^2 alpha_p, 1 for L.
    """
    p, s = cand.p, DENSE_NODES
    sp1, sp = _dense_powers(p)
    coeffs = abc_coefficients(cand, params)
    A, B, C, D = coeffs
    q_terms = np.maximum(np.maximum(abs(A), abs(B) * s), np.maximum(abs(C) * sp1, abs(D) * sp))
    mq = dense_q(cand, params) * max(map(abs, coeffs)) / q_terms
    rho_a2 = params.ratio * cand.a * cand.a
    L = (params.k2 - rho_a2) * sp1 + rho_a2 * alpha_p(p) - 1.0
    mL = L / np.maximum(max(params.k2, rho_a2) * sp1, max(rho_a2 * alpha_p(p), 1.0))
    i, j = int(np.argmax(mq)), int(np.argmax(mL))
    return mq[i], s[i], mL[j], s[j]
