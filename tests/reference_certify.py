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

``profile_position`` is the position of one row of the standing profile,
by scipy's ``quad`` of dx = ds / sqrt(G(s)) in log distance from the
nearer end, with G itself by ``quad`` of h_p from that end, in pieces.

``h_p``, ``matching_mismatch`` and ``h_star`` state facts of the paper that
no command needs: the balanced nonlinearity, the slope-matching defect of
the zero-diffusion profile, and the largest d/r the piecewise family
certifies.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.integrate import quad

from wavespeed.model import CompetitionParams, reaction_f, reaction_g
from wavespeed.supersol import (SigmoidProfile, SupersolCandidate, abc_coefficients,
                                alpha_p, degenerate_build, first_integral)

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


def h_p(s, p: float):
    """Balanced bistable nonlinearity h_p(s) = s (1 - s) (s^(p-1) - alpha_p) on [0, 1].

    Its zeroes are 0, alpha_p^(1/(p-1)) and 1.  Accepts numbers or arrays.
    """
    return s * (1.0 - s) * (np.power(s, p - 1.0) - alpha_p(p))


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


def _quad(f, lo, hi):
    return quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]


# The inner integral of ``profile_position`` breaks at c/p for these c: on
# the right half, (1 - v)^(p-1) holds its mass within a few 1/p of v = 0,
# which one ``quad`` over [0, w] misses for large p.
_CUTS = (1.0, 4.0, 16.0, 64.0)


def profile_position(sigma: float, p: float) -> float:
    """x at which the standing profile sigma_p, pinned by sigma(0) = 1/2, reaches ``sigma``.

    With w the distance from the nearer end, G = 2 int_0^w v (1 - v)
    (alpha_p - v^(p-1)) dv on the left half and 2 int_0^w v (1 - v)
    ((1 - v)^(p-1) - alpha_p) dv on the right half; x is the integral of
    w / sqrt(G) over log w, from ``sigma``'s distance up to 1/2, with G a
    ``math.fsum`` of ``quad`` pieces split at the ``_CUTS`` c/p below w.  Where
    (p - 1) |log s| <= 1 the bracket is formed in p - 1, with
    1 - alpha_p = (p-1)(p+4)/((p+1)(p+2)), so that it does not cancel.
    """
    alpha = 6.0 / ((p + 1.0) * (p + 2.0))
    gap = (p - 1.0) * (p + 4.0) / ((p + 1.0) * (p + 2.0))
    left = sigma <= 0.5
    sign = -1.0 if left else 1.0

    def h_from_end(v):  # -h_p(v) on the left half, h_p(1 - v) on the right
        e_log = (p - 1.0) * (math.log(v) if left else math.log1p(-v))
        bracket = gap + math.expm1(e_log) if e_log >= -1.0 else math.exp(e_log) - alpha
        return v * (1.0 - v) * sign * bracket

    def integrand(t):
        w = math.exp(t)
        cuts = [0.0, *(c / p for c in _CUTS if c / p < w), w]
        G = 2.0 * math.fsum(_quad(h_from_end, lo, hi) for lo, hi in zip(cuts, cuts[1:]))
        return w / math.sqrt(G)

    x = _quad(integrand, math.log(sigma if left else 1.0 - sigma), math.log(0.5))
    return -x if left else x


def matching_mismatch(k1, k2):
    """Slope-matching defect of the zero-diffusion standing profile at its corner.

    M(k1, k2) = [(k1-1) k2^-2 - (2/3)(k1 k2 - 1) k2^-3]
              - [-k2^-2 + (2/3) k2^-3 + 1/3]
              = (k1 - k2^2) / (3 k2^2)

    measures (left slope)^2 - (right slope)^2 at the matching level 1/k2.
    M is strictly increasing in k1 with its unique root at k1 = k2^2, the
    level at which a zero-diffusion standing wave exists.  Exact when called
    with Fractions.
    """
    return (k1 - k2 * k2) / (3 * k2 * k2)


def h_star(params: CompetitionParams, delta: float) -> float:
    """Largest admissible d/r for the slaved-component residual at offset delta.

    Two closed forms are computed and must agree to 1e-12 (relative):

        H* = delta (m0 - m*) / (gamma^2 m* (1 - 6 m*))
           = 6 delta / (k1 (1 - delta) - 1) * (sqrt(m0) + sqrt(m0 - 1/6))^2

    H* is strictly increasing in delta; at delta = delta3 it reduces to the
    ratio bound of the degenerate sign criterion.
    """
    ds = degenerate_build(params, delta)
    gamma2 = ds.gamma_ * ds.gamma_
    m0, mst = ds.m0, ds.m_star
    form1 = delta * (m0 - mst) / (gamma2 * mst * (1.0 - 6.0 * mst))
    form2 = (
        6.0 * delta / gamma2 * (math.sqrt(m0) + math.sqrt(m0 - 1.0 / 6.0)) ** 2
    )
    if abs(form1 - form2) > 1e-12 * max(1.0, abs(form1)):
        raise ArithmeticError(
            f"H* closed forms disagree: {form1!r} vs {form2!r}"
        )
    return form2
