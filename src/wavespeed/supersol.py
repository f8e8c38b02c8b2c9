"""Certified blocking profiles for the cooperative competition system.

Two families of time-independent profiles (phi, psi) connecting (0, 0) to
(1, 1) are constructed and certified:

* the smooth family (phi, psi)(x) = (sigma_p(a x)^p, sigma_p(a x)), built on
  the standing profile sigma_p of the balanced bistable equation
  sigma'' + h_p(sigma) = 0, and
* a piecewise family for small diffusion ratio, with psi slaved to
  k2 phi + delta on x < 0 and constant 1 on x >= 0.

A profile blocks when its residuals

    I(x) = phi''(x) + f(phi(x), psi(x))
    J(x) = (d/r) psi''(x) + g(phi(x), psi(x))

are nonpositive everywhere (piecewise profiles must also lose no slope at
x = 0).  Both verdicts are decided from closed forms of I and J, never by
sampling or differencing; sigma_p is tabulated (``sigma_profile``, by
quadrature outward from sigma(0) = 1/2) only for export.  The tolerance
absorbs rounding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# No verdict calls reaction_f; it is imported because bench/spans.py binds
# both reactions in this module.
from .model import CompetitionParams, ParameterError, check_positive, reaction_f, reaction_g
from .theory import m_of_k


class ProfileError(RuntimeError):
    """A tabulated profile failed a check."""


def alpha_p(p: float) -> float:
    """Balance coefficient 6 / ((p + 1)(p + 2)), in (0, 1) for p > 1.

    This is the unique coefficient for which the cubic-type nonlinearity
    h_p integrates to zero over [0, 1], which in turn is what guarantees a
    standing monotone profile.
    """
    if not p > 1.0:
        raise ValueError(f"alpha_p requires p > 1, got {p!r}")
    return 6.0 / ((p + 1.0) * (p + 2.0))


def first_integral(s, p: float):
    """G(s) = (sigma')^2 along the standing profile, for s in [0, 1].

    G(s) = alpha_p s^2 - (2/3) alpha_p s^3 - 2 s^(p+1)/(p+1) + 2 s^(p+2)/(p+2),
    i.e. -2 * integral of h_p from 0 to s.  Vanishes at s = 0 and s = 1.
    """
    a = alpha_p(p)
    return (
        a * s**2
        - (2.0 / 3.0) * a * s**3
        - 2.0 * np.power(s, p + 1.0) / (p + 1.0)
        + 2.0 * np.power(s, p + 2.0) / (p + 2.0)
    )


@dataclass(frozen=True)
class SigmoidProfile:
    """Tabulated standing profile sigma_p with sigma(0) = 1/2.

    ``sigma`` runs over ``_D_NODES`` and 1 minus them, the same rows for every
    p; ``xs`` is strictly increasing and ``dsigma`` holds sigma' there.
    ``quad_error`` is the largest gap between order-12 and order-24 positions.
    """

    p: float
    xs: np.ndarray
    sigma: np.ndarray
    dsigma: np.ndarray
    quad_error: float


def _first_integral_from_one(e: np.ndarray, p: float) -> np.ndarray:
    """G(1 - e), free of cancellation where e (p - 1) <= 1 as 12-point Gauss-Legendre of
    2 e^2 int_0^1 tau (1 - e tau) [1 - alpha_p + expm1((p-1) log1p(-e tau))] dtau."""
    G = first_integral(1.0 - e, p)
    near = e * (p - 1.0) <= 1.0
    t, w = np.polynomial.legendre.leggauss(12)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    et = e[near][:, None] * t
    gap = (p - 1.0) * (p + 4.0) / ((p + 1.0) * (p + 2.0))  # 1 - alpha_p
    G[near] = 2.0 * e[near] ** 2 * (
        ((1.0 - et) * (gap + np.expm1((p - 1.0) * np.log1p(-et)))) @ (t * w))
    return G


def _first_integral_from_zero(s: np.ndarray, p: float) -> np.ndarray:
    """G(s), free of cancellation where (p - 1) |log s| <= 1 as, in e = p - 1,
    2 s^2 [-e (1 - s) / ((e+2)(e+3)) - expm1(e log s) (1/(e+2) - s/(e+3))]."""
    G = first_integral(s, p)
    e = p - 1.0
    near = s >= math.exp(-1.0 / e)
    sn = s[near]
    G[near] = 2.0 * sn**2 * (-e * (1.0 - sn) / ((e + 2.0) * (e + 3.0))
                             - np.expm1(e * np.log(sn)) * (1.0 / (e + 2.0) - sn / (e + 3.0)))
    return G


def _position_steps(d: np.ndarray, G, order: int) -> np.ndarray:
    """dd / sqrt(G(d)) integrated by ``order``-point Gauss-Legendre over each interval of ``d``."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (d[:-1] - d[1:])
    vals = 1.0 / np.sqrt(np.maximum(G(d[1:] + half * (1.0 + nodes[:, None])), 0.0))
    return half * (weights @ vals)


# Bound on the position quadrature error beyond the rounding allowance
# 8 eps |x|: positions pass 1e7 for p above about 2.5e6, where one ulp of x
# exceeds it.
_QUAD_TOL = 1e-9
# Distances of sigma from the nearer end, uniform in log-odds at 250 a
# decade: 1/2 down to about 1e-13.
_D_NODES = 1.0 / (1.0 + np.exp(np.arange(3252) * (math.log(10.0) / 250.0)))


def sigma_profile(p: float) -> SigmoidProfile:
    """Tabulate the monotone standing profile of sigma'' + h_p(sigma) = 0.

    Positions come from quadrature of dx = dsigma / sqrt(G(sigma)), outward
    from sigma(0) = 1/2 on each half, over the distances ``_D_NODES`` from
    the nearer end: sigma = d on the left, sigma = 1 - d on the right.
    G is formed without cancellation, in 1 - sigma near sigma = 1 and in
    p - 1 where (p - 1) |log sigma| <= 1, so every row is exact to
    quadrature accuracy and no tail is linearised.

    Raises ProfileError when a position misses ``_QUAD_TOL`` + 8 eps |x|.
    """
    if not 1.0 < p < math.inf:
        raise ValueError(f"sigma_profile requires p > 1, got {p!r}")

    e = 1.0 - (1.0 - _D_NODES)  # the distance from 1 of the stored sigma = 1 - d
    quad_error = excess = 0.0
    xs, ds = [], []
    for d, G in ((_D_NODES, lambda d: _first_integral_from_zero(d, p)),
                 (e, lambda d: _first_integral_from_one(d, p))):
        # A G that vanishes inside (0, 1) makes positions infinite and the
        # excess NaN; the guard below rejects both.
        with np.errstate(divide="ignore", invalid="ignore"):
            seg = _position_steps(d, G, order=24)
            x = np.cumsum(seg)
            gap = np.abs(np.cumsum(_position_steps(d, G, order=12) - seg))
            quad_error = np.maximum(quad_error, np.max(gap))
            excess = np.maximum(excess, np.max(gap - 8.0 * np.finfo(float).eps * np.abs(x)))
        xs.append(np.concatenate([[0.0], x]))
        ds.append(np.sqrt(np.maximum(G(d), 0.0)))
    if not excess <= _QUAD_TOL:
        raise ProfileError(
            f"profile quadrature failed: position quadrature error {quad_error:.3e} "
            f"exceeds tol {_QUAD_TOL:.3e} + 8 eps |x|"
        )
    # The row sigma = 1/2 is the right half's first.
    return SigmoidProfile(float(p), np.concatenate([-xs[0][:0:-1], xs[1]]),
                          np.concatenate([_D_NODES[:0:-1], 1.0 - e]),
                          np.concatenate([ds[0][:0:-1], ds[1]]), float(quad_error))


@dataclass(frozen=True)
class SupersolCandidate:
    """Exponent p > 1 and spatial scaling a > 0, a^2 finite and nonzero, for the smooth family."""

    p: float
    a: float

    def __post_init__(self):
        if not (1.0 < self.p < math.inf and 0.0 < self.a and 0.0 < self.a * self.a < math.inf):
            raise ParameterError(
                f"candidate requires finite p > 1 and a > 0 with a^2 finite and nonzero, "
                f"got p={self.p!r}, a={self.a!r}"
            )


def _a2_bounds(p: float, params: CompetitionParams) -> tuple[float, float, float, float, float]:
    """The bounds (a_hi, b_lo, c_hi, d_lo, d_hi) that (a)-(d) put on a^2 at exponent p."""
    k1, ratio = params.k1, params.ratio
    pp = (p + 1.0) * (p + 2.0)
    return (
        pp * (k1 - 1.0) / (6.0 * p * p),
        pp * (p - k1) / (p * (p - 1.0) * (p + 4.0)),
        (2.0 * k1 - p) / (2.0 * p),
        (params.k2 - 1.0) * pp / (ratio * (p - 1.0) * (p + 4.0)),
        pp / (6.0 * ratio),
    )


def admissibility_conditions(
    cand: SupersolCandidate, params: CompetitionParams
) -> tuple[bool, bool, bool, bool]:
    """The four admissibility conditions (a)-(d) for the smooth family.

    With a2 = a^2 and ratio = d/r:

    (a) a2 <  (p+1)(p+2)(k1-1) / (6 p^2)
    (b) p <= k1, or p > k1 and a2 >= (p+1)(p+2)(p-k1) / (p (p-1)(p+4))
    (c) p < 2 k1 and a2 <= (2 k1 - p) / (2 p)
    (d) (k2-1)(p+1)(p+2) / (ratio (p-1)(p+4)) <= a2 <= (p+1)(p+2) / (6 ratio)

    Comparisons are exact, strict where stated.
    """
    p, a2 = cand.p, cand.a * cand.a
    a_hi, b_lo, c_hi, d_lo, d_hi = _a2_bounds(p, params)
    return (
        a2 < a_hi,
        p <= params.k1 or a2 >= b_lo,
        p < 2.0 * params.k1 and a2 <= c_hi,
        d_lo <= a2 <= d_hi,
    )


def abc_coefficients(
    cand: SupersolCandidate, params: CompetitionParams
) -> tuple[float, float, float, float]:
    """Coefficients (A, B, C, D) of the factored residual I = s^p (A + B s + C s^(p-1) + D s^p).

    They always satisfy A + B + C + D = 0, so the residual vanishes at
    s = 1; conditions (a)-(c) are equivalent to A < 0,
    p A + (p-1) B + C <= 0 and p A + (p-2) B <= 0.
    """
    p, a2 = cand.p, cand.a * cand.a
    k1 = params.k1
    pp = (p + 1.0) * (p + 2.0)
    A = 6.0 * p * p * a2 / pp - (k1 - 1.0)
    B = -2.0 * p * (2.0 * p + 1.0) * a2 / pp + k1
    C = -p * (3.0 * p - 1.0) * a2 / (p + 1.0)
    D = 3.0 * p * p * a2 / (p + 2.0) - 1.0
    return A, B, C, D


def save_tables(cand: SupersolCandidate, profile: SigmoidProfile, prefix) -> None:
    """Write the (x, phi) and (x, psi) tables of (sigma^p, sigma)(a x) next to ``prefix``."""
    xs = profile.xs / cand.a
    for name, values in (("phi", profile.sigma**cand.p), ("psi", profile.sigma)):
        np.savetxt(f"{prefix}_{name}.txt", np.column_stack([xs, values]), fmt="%.12g")


@dataclass(frozen=True)
class ResidualReport:
    """Residual maxima, matching-point slope jumps, and the verdict.

    The maxima, at ``at_max_I``/``at_max_J`` in ``coordinate`` ("s" or "x"),
    are scale-free margins for the smooth family and I, J for the piecewise
    one.  A smooth report sets ``from_one`` (1 - s at both maxima, s
    unrounded) and leaves the jump fields None; a piecewise one sets the
    jumps and leaves ``from_one`` None.
    """

    max_I: float
    at_max_I: float
    max_J: float
    at_max_J: float
    tol: float
    coordinate: str
    jump_phi: float | None = None
    jump_psi: float | None = None
    from_one: tuple[float, float] | None = None

    @property
    def certified(self) -> bool:
        """max_I <= tol, max_J <= tol and every jump that applies >= -tol."""
        jumps = (jump for jump in (self.jump_phi, self.jump_psi) if jump is not None)
        return (self.max_I <= self.tol and self.max_J <= self.tol
                and all(jump >= -self.tol for jump in jumps))


def _q_peaks(coeffs: tuple[float, float, float, float], cand: SupersolCandidate,
             k1: float) -> list[tuple[float, float, float]]:
    """(q, u, largest term), u = -p log s, at s = 0 (u = inf), s = 1 (u = 0)
    and each interior maximum of q(s) = A + B s + C s^(p-1) + D s^p,
    (A, B, C, D) = ``coeffs`` scaled to 1.

    q'' = (p-1) s^(p-3) ((p-2) C + p D s) changes sign at most once, so q'
    falls through 0 at most once on each piece; bisection in log u finds it.
    q and s q' are formed with C + D = -(A + B) and
    q'(1) = k1 - p (1 - a^2) - 6 a^2 p / ((p+1)(p+2)), so no p is too large.
    """
    p, a2 = cand.p, cand.a * cand.a
    scale = max(map(abs, coeffs))
    A, B, C, D = (c / scale for c in coeffs)
    dq1 = (k1 - p * (1.0 - a2) - 6.0 * a2 * p / ((p + 1.0) * (p + 2.0))) / scale

    def dq(u):  # s q'(s)
        s = math.exp(-u / p)
        return B * s + math.exp(-u) / s * (dq1 - B + p * D * math.expm1(-u / p))

    def peak(u):
        e, s = math.exp(-u), math.exp(-u / p)
        return (A + B * s + e / s * (D * math.expm1(-u / p) - A - B), u,
                max(abs(A), abs(B) * s, abs(C) * e / s, abs(D) * e))

    ends = [1e-300, -p * math.log(sys.float_info.min)]  # to the least normal s
    gap = (p * (A + B) + 2.0 * C) / (p * D) if D else 0.0  # s - 1 where q'' = 0
    if -1.0 < gap < 0.0 and ends[0] < -p * math.log1p(gap) < ends[1]:
        ends.insert(1, -p * math.log1p(gap))
    peaks = [(A, math.inf, abs(A)), (0.0, 0.0, 1.0)]
    for lo, hi in zip(ends, ends[1:]):
        if not dq(lo) < 0.0 <= dq(hi):  # q' < 0 nearer s = 1: a maximum between
            continue
        lo, hi = math.log(lo), math.log(hi)
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if dq(math.exp(mid)) < 0.0 else (lo, mid)
        peaks += [peak(math.exp(lo)), peak(math.exp(hi))]
    return peaks


def residuals_IJ(cand: SupersolCandidate, params: CompetitionParams,
                 tol: float = 1e-8) -> ResidualReport:
    """Certify (phi, psi) = (sigma^p, sigma)(a x) from the closed forms of its residuals.

    With s = sigma(a x) in (0, 1) and rho = d/r,

        I = phi'' + f(s^p, s) = s^p q(s),   q = A + B s + C s^(p-1) + D s^p,
        J = rho psi'' + g(s^p, s) = s (1 - s) L(s),
        L = (k2 - rho a^2) s^(p-1) + rho a^2 alpha_p - 1,

    (A, B, C, D) from ``abc_coefficients``.  A margin is a value over the
    largest term summing to it.  max_I, >= 0, is q's largest margin where
    it can peak; max_J is the larger margin of L(0) and L(1), the two sides
    of condition (d), as L is monotone.  Raises ParameterError when rho a^2
    or a coefficient of q is not finite.
    """
    check_positive(tol=tol)
    p, a2 = cand.p, cand.a * cand.a
    ratio_a2 = params.ratio * a2
    coeffs = abc_coefficients(cand, params)
    if not all(map(math.isfinite, (ratio_a2, *coeffs))):
        raise ParameterError("residual scale factors must be finite, got "
                             f"(d/r) a^2 = {ratio_a2!r}, p a^2 = {p * a2!r}, "
                             f"6 p^2 a^2 = {6.0 * p * p * a2!r}")
    max_I, u = max(((q / term if q else 0.0, u)
                    for q, u, term in _q_peaks(coeffs, cand, params.k1)),
                   key=lambda peak: (peak[0], -peak[1]))  # a tie goes to the larger s
    L0 = ratio_a2 * alpha_p(p) - 1.0  # L(0), from its terms L0 + 1 and 1
    max_J, at_J = max((L0 / max(L0 + 1.0, 1.0), 0.0),
                      ((params.k2 - ratio_a2 + L0) / max(params.k2, ratio_a2), 1.0))
    return ResidualReport(max_I, math.exp(-u / p), max_J, at_J, tol, "s",
                          from_one=(-math.expm1(-u / p), 1.0 - at_J))


def choose_p_a(params: CompetitionParams) -> SupersolCandidate | None:
    """Select (p, a) by the standard recipe, or None when no candidate exists.

    For k1 >= m(k2): p = k1 if k1 < 2, p = 2 if m(k2) <= 2 <= k1, and
    p = m(k2) otherwise.  For k1 < m(k2): p = m(k2), where condition (d)
    pins a^2 = k2 r / d.  Whenever p lands on m(k2) the (d) interval
    degenerates to that single point, so p is nudged up by one part in 1e9
    to keep the interval open under floating-point evaluation; a^2 is then
    the midpoint of the admissible interval from (a)-(d).  The returned
    candidate always passes :func:`admissibility_conditions`.
    """
    k1, k2 = params.k1, params.k2
    m = m_of_k(k2)
    if k1 >= m:
        if k1 < 2.0:
            p = k1
        elif m <= 2.0:
            p = 2.0
        else:
            p = m
    else:
        p = m
    if p <= m * (1.0 + 1e-12):
        p = m * (1.0 + 1e-9)

    if p >= 2.0 * k1:
        return None
    a_hi, b_lo, c_hi, lo, d_hi = _a2_bounds(p, params)
    hi = min(d_hi, a_hi, c_hi)
    if p > k1:
        lo = max(lo, b_lo)
    if lo > hi:
        return None
    cand = SupersolCandidate(p=p, a=math.sqrt(0.5 * (lo + hi)))
    if not all(admissibility_conditions(cand, params)):
        return None
    return cand


@dataclass(frozen=True)
class DegenerateSupersol:
    """Piecewise blocking profile for small diffusion ratio.

    On x < 0 the profile is phi = beta_ mu (1 - mu) with mu a logistic of
    rate gamma_ shifted by xi > 0, and psi = k2 phi + delta; on x >= 0 it is
    phi = 1 - 6 lam (1 - lam) with lam a unit-rate logistic shifted by
    eta < 0, and psi = 1.  Both pieces meet at phi(0) = (1 - delta)/k2 and
    increase strictly on their half-lines.
    """

    k1: float
    k2: float
    delta: float
    gamma_: float
    beta_: float
    xi: float
    eta: float
    m0: float
    m_star: float

    @property
    def phi0(self) -> float:
        """Common value of both pieces at the matching point."""
        return (1.0 - self.delta) / self.k2


def delta_candidates(params: CompetitionParams) -> tuple[float, float]:
    """The two offset levels (delta2, delta3) bounding admissibility.

    delta2 = 1 - 3 k2/(k1 k2 + 2) keeps the matching level at most 1/4, the
    left piece's largest w, and delta3 = 1 - (k2^2/k1)^(1/3) is the largest
    offset with a nonnegative slope jump (defined only for k1 > k2^2).  The
    left piece's rate gamma^2 = k1 (1 - delta) - 1 is positive below delta2,
    because delta2 < 1 - 1/k1 whenever k1 k2 > 1.
    """
    k1, k2 = params.k1, params.k2
    delta2 = 1.0 - 3.0 * k2 / (k1 * k2 + 2.0)
    delta3 = 1.0 - (k2 * k2 / k1) ** (1.0 / 3.0) if k1 > k2 * k2 else float("nan")
    return delta2, delta3


def degenerate_build(
    params: CompetitionParams, delta: float | None = None
) -> DegenerateSupersol:
    """Construct the piecewise profile; delta defaults to the maximal jump-safe offset.

    Requires k1 > k2^2 and 0 < delta < delta2, so that the matching level
    m0 = (1-delta)(k1 k2 - 1)/(6 k2 (k1 (1-delta) - 1)) lies in (1/6, 1/4].
    The left shift solves mu(0)(1 - mu(0)) = m0 on the branch mu(0) < 1/2,
    equivalently xi > 0, so phi rises through the matching point; the right
    shift eta < 0 follows from the continuity condition phi(0) = (1 - delta)/k2.
    """
    k1, k2 = params.k1, params.k2
    if k1 <= k2 * k2:
        raise ParameterError(
            f"degenerate construction requires k1 > k2^2, got k1={k1!r}, k2={k2!r}"
        )
    delta2, delta3 = delta_candidates(params)
    if delta is None:
        delta = delta3
    if not (0.0 < delta < delta2):
        raise ParameterError(
            f"delta must lie in (0, {delta2!r}) for these parameters, got {delta!r}"
        )

    gamma2 = k1 * (1.0 - delta) - 1.0
    gamma = math.sqrt(gamma2)
    beta = 6.0 * gamma2 / (k1 * k2 - 1.0)
    m0 = (1.0 - delta) / (k2 * beta)
    if not (1.0 / 6.0 < m0 <= 0.25):
        raise ParameterError(f"matching level m0={m0!r} outside (1/6, 1/4]")
    m_star = m0 - math.sqrt(m0 * (m0 - 1.0 / 6.0))

    mu0 = 0.5 * (1.0 - math.sqrt(1.0 - 4.0 * m0))
    xi = math.log(1.0 / mu0 - 1.0) / gamma

    phi0 = (1.0 - delta) / k2
    lam0 = 0.5 * (1.0 + math.sqrt((1.0 + 2.0 * phi0) / 3.0))
    eta = math.log(1.0 / lam0 - 1.0)
    return DegenerateSupersol(
        k1=k1,
        k2=k2,
        delta=delta,
        gamma_=gamma,
        beta_=beta,
        xi=xi,
        eta=eta,
        m0=m0,
        m_star=m_star,
    )


def _degenerate_jumps(ds: DegenerateSupersol) -> tuple[float, float]:
    """Slope jumps (phi'(0-) - phi'(0+), psi'(0-) - psi'(0+)) from the first integrals."""
    phi0 = ds.phi0
    left_sq = (ds.gamma_**2) * phi0**2 - (2.0 / 3.0) * (ds.k1 * ds.k2 - 1.0) * phi0**3
    right_sq = -(phi0**2) + (2.0 / 3.0) * phi0**3 + 1.0 / 3.0
    left = math.sqrt(max(left_sq, 0.0))
    right = math.sqrt(max(right_sq, 0.0))
    # psi is constant on x >= 0, so its jump is just the left slope times k2.
    return left - right, ds.k2 * left


def degenerate_residuals(ds: DegenerateSupersol, params: CompetitionParams,
                         tol: float = 1e-8) -> ResidualReport:
    """Certify the piecewise profile from its closed forms, plus its slope jumps.

    I = 0 on both halves (reported at x = 0) and J = 0 on x >= 0.  On x < 0,
    J is a concave quadratic in w = mu (1 - mu) in (0, m0], largest at
    w = min(w*, m0), w* = 1/12 + delta / (12 (d/r) gamma^2); max J is the
    larger of J there and 0, at x(w) or x = 0.
    """
    check_positive(tol=tol)
    if ds.k1 != params.k1 or ds.k2 != params.k2:
        raise ParameterError("profile was built for different competition coefficients")
    w = min(1.0 / 12.0 + ds.delta / (12.0 * params.ratio * ds.gamma_**2), ds.m0)
    phi = ds.beta_ * w
    J = (params.ratio * ds.k2 * ds.beta_ * ds.gamma_**2 * w * (1.0 - 6.0 * w)
         + reaction_g(phi, ds.k2 * phi + ds.delta, params))
    max_J = J if J > 0.0 else 0.0
    mu = 0.5 * (1.0 - math.sqrt(1.0 - 4.0 * w))
    at_J = ds.xi + (math.log(mu) - math.log1p(-mu)) / ds.gamma_ if J > 0.0 and w < ds.m0 else 0.0
    return ResidualReport(0.0, 0.0, max_J, at_J, tol, "x", *_degenerate_jumps(ds))
