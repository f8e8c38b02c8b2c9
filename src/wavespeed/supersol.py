"""Certified blocking profiles for the cooperative competition system.

Two families of time-independent profiles (phi, psi) connecting (0, 0) to
(1, 1) are constructed and certified numerically:

* the smooth family (phi, psi)(x) = (sigma_p(a x)^p, sigma_p(a x)), built on
  the standing profile sigma_p of the balanced bistable equation
  sigma'' + h_p(sigma) = 0, and
* a piecewise family for small diffusion ratio, with psi slaved to
  k2 phi + delta on x < 0 and constant 1 on x >= 0.

Certification evaluates the residuals

    I(x) = phi''(x) + f(phi(x), psi(x))
    J(x) = (d/r) psi''(x) + g(phi(x), psi(x))

which must be nonpositive everywhere (piecewise profiles must additionally
lose no slope across the matching point x = 0).  Second derivatives are
obtained in closed form from the defining first integrals, never by
differencing tabulated data.  The smooth family's residuals depend on x
only through s = sigma_p(a x) in (0, 1), so they are sampled on a grid in
s; sigma_p is tabulated in x (``sigma_profile``) only for export.  The
piecewise family is graded in its logistics.  The tolerance absorbs rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CompetitionParams, ParameterError, check_positive, reaction_f, reaction_g
from .theory import m_of_k


class ProfileError(RuntimeError):
    """A tabulated profile failed a check, or the s grid cannot resolve s^p."""


def _scalar_or_array(x, out):
    """``out`` as a float when ``x`` is a scalar, else the array itself."""
    return float(out) if np.ndim(x) == 0 else out


def alpha_p(p: float) -> float:
    """Balance coefficient 6 / ((p + 1)(p + 2)), in (0, 1) for p > 1.

    This is the unique coefficient for which the cubic-type nonlinearity
    h_p integrates to zero over [0, 1], which in turn is what guarantees a
    standing monotone profile.
    """
    if not p > 1.0:
        raise ValueError(f"alpha_p requires p > 1, got {p!r}")
    return 6.0 / ((p + 1.0) * (p + 2.0))


def h_p(s, p: float):
    """Balanced bistable nonlinearity.

    h_p(s) = s (1 - s) (s^(p-1) - alpha_p) for s >= 0 and -alpha_p * s for
    s < 0; continuously differentiable at 0, with zeroes at 0,
    alpha_p^(1/(p-1)) and 1.  Accepts scalars or arrays.
    """
    a = alpha_p(p)
    s_arr = np.asarray(s, dtype=float)
    s_pos = np.maximum(s_arr, 0.0)
    pos = s_arr * (1.0 - s_arr) * (np.power(s_pos, p - 1.0) - a)
    return _scalar_or_array(s, np.where(s_arr >= 0.0, pos, -a * s_arr))


def first_integral(s, p: float):
    """G(s) = (sigma')^2 along the standing profile, for s in [0, 1].

    G(s) = alpha_p s^2 - (2/3) alpha_p s^3 - 2 s^(p+1)/(p+1) + 2 s^(p+2)/(p+2),
    i.e. -2 * integral of h_p from 0 to s.  Vanishes at s = 0 and s = 1.
    """
    a = alpha_p(p)
    s_arr = np.asarray(s, dtype=float)
    return _scalar_or_array(s, (
        a * s_arr**2
        - (2.0 / 3.0) * a * s_arr**3
        - 2.0 * np.power(s_arr, p + 1.0) / (p + 1.0)
        + 2.0 * np.power(s_arr, p + 2.0) / (p + 2.0)
    ))


@dataclass(frozen=True)
class SigmoidProfile:
    """Tabulated standing profile sigma_p with sigma(0) = 1/2.

    ``xs`` is strictly increasing, with sigma below 1e-6 at the left end and
    above 1 - 1e-6 at the right end; ``dsigma`` holds sigma' at the nodes.
    ``quad_error`` is the measured quadrature error bound.
    """

    p: float
    xs: np.ndarray
    sigma: np.ndarray
    dsigma: np.ndarray
    quad_error: float


def _cumulative_positions(s: np.ndarray, p: float, order: int) -> np.ndarray:
    """Positions x(s) - x(s[0]) by per-interval Gauss-Legendre on dx/ds = G^(-1/2)."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (s[1:] + s[:-1])
    half = 0.5 * (s[1:] - s[:-1])
    se = mid[None, :] + half[None, :] * nodes[:, None]
    vals = 1.0 / np.sqrt(np.maximum(first_integral(se, p), 0.0))
    seg = half * (weights @ vals)
    return np.concatenate([[0.0], np.cumsum(seg)])


def _graded_nodes(floor: float, gap: float, per_decade: int) -> np.ndarray:
    """s nodes log-graded from ``floor`` up to 1/2, then in 1 - s down to ``gap``."""
    n_lo = math.ceil(per_decade * math.log10(0.5 / floor))
    n_hi = math.ceil(per_decade * math.log10(0.5 / gap))
    return np.concatenate([np.geomspace(floor, 0.5, n_lo + 1),
                           1.0 - np.geomspace(0.5, gap, n_hi + 1)[1:]])


# sigma level below which (and 1 - sigma level above which) the profile
# follows its linearized exponential tails.
_SPLICE = 1e-4
# Least half-width of the tabulated profile, and the x-spacing of its tails.
_SPAN = 40.0
_TAIL_DX = 0.01
# Bound on the position quadrature error; sigma nodes per decade of the core.
_QUAD_TOL = 1e-9
_POINTS_PER_DECADE = 2000
# Most tail nodes a profile may hold (8 MB an array).  The left tail needs
# about 376 p nodes, so this admits p up to about 2600.
_MAX_TAIL_NODES = 1_000_000


def sigma_profile(p: float) -> SigmoidProfile:
    """Tabulate the monotone standing profile of sigma'' + h_p(sigma) = 0.

    The core region _SPLICE <= sigma <= 1 - _SPLICE is parameterized by sigma
    (log-graded toward both ends) and positions come from quadrature of
    dx = dsigma / sqrt(G(sigma)); the grading keeps the x-spacing roughly
    uniform.  Beyond the splice levels the integrand is nearly singular, so
    the profile is continued by the linearized exponential tails, matched in
    value and slope; their rates approach sqrt(alpha_p) on the left and the
    linearization rate at 1 on the right.  Tails extend to at least
    +/- _SPAN and until sigma is within 1e-8 of its limit, except that the
    right tail stops where 1 - sigma would saturate at double precision.

    Raises ProfileError when the quadrature misses ``_QUAD_TOL`` on positions
    or the tails would need more than ``_MAX_TAIL_NODES`` nodes.
    """
    if not 1.0 < p < math.inf:
        raise ValueError(f"sigma_profile requires p > 1, got {p!r}")

    s = _graded_nodes(_SPLICE, _SPLICE, _POINTS_PER_DECADE)
    n_side = len(s) // 2  # s[n_side] = 1/2

    # A G that vanishes inside (0, 1) makes positions infinite and the error
    # NaN; the guard below rejects both.
    with np.errstate(divide="ignore", invalid="ignore"):
        x = _cumulative_positions(s, p, order=12)
        x_hi = _cumulative_positions(s, p, order=24)
        quad_error = float(np.max(np.abs(x - x_hi)))
    if not quad_error <= _QUAD_TOL:
        raise ProfileError(
            f"profile quadrature failed: position quadrature error {quad_error:.3e} "
            f"exceeds tol {_QUAD_TOL:.3e}"
        )
    x = x_hi - x_hi[n_side]  # pin sigma(0) = 1/2

    ds = np.sqrt(np.maximum(first_integral(s, p), 0.0))

    # Left tail: sigma = s0 exp(lam (x - x0)), matched in value and slope.
    lam_l = ds[0] / s[0]
    x_left_end = min(-_SPAN, x[0] + math.log(1e-8 / s[0]) / lam_l)
    n_l = max(2, math.ceil((x[0] - x_left_end) / _TAIL_DX))

    # Right tail: 1 - sigma = e0 exp(-lam (x - x1)).  Stop before 1 - sigma
    # shrinks under ~1e-13/lam, where consecutive tabulated values would
    # collide at double precision and break strict monotonicity.
    eps_r = 1.0 - s[-1]
    lam_r = ds[-1] / eps_r
    x_right_end = max(_SPAN, x[-1] + math.log(eps_r / 1e-8) / lam_r)
    x_saturate = x[-1] + math.log(eps_r * lam_r / 1e-13) / lam_r
    x_right_end = min(x_right_end, x_saturate)
    n_r = max(2, math.ceil((x_right_end - x[-1]) / _TAIL_DX))
    if n_l + n_r > _MAX_TAIL_NODES:
        raise ProfileError(f"profile tails need {n_l + n_r} nodes, more than {_MAX_TAIL_NODES}")

    xs_l = x[0] - _TAIL_DX * np.arange(n_l, 0, -1)
    sig_l = s[0] * np.exp(lam_l * (xs_l - x[0]))
    xs_r = x[-1] + _TAIL_DX * np.arange(1, n_r + 1)
    eps = eps_r * np.exp(-lam_r * (xs_r - x[-1]))
    sig_r = 1.0 - eps

    xs = np.concatenate([xs_l, x, xs_r])
    sigma = np.concatenate([sig_l, s, sig_r])
    dsigma = np.concatenate([lam_l * sig_l, ds, lam_r * eps])
    return SigmoidProfile(p=float(p), xs=xs, sigma=sigma, dsigma=dsigma, quad_error=quad_error)


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
    """Pointwise residual maxima, matching-point slope jumps, and the verdict.

    The maxima sit at ``at_max_I``/``at_max_J`` in ``coordinate`` ("s" or "x").
    ``certified`` is True when max_I <= tol, max_J <= tol, and every
    applicable jump is >= -tol.  Jump fields are None for smooth profiles.
    """

    max_I: float
    at_max_I: float
    max_J: float
    at_max_J: float
    certified: bool
    tol: float
    coordinate: str
    jump_phi: float | None = None
    jump_psi: float | None = None


def _report(coordinate: str, nodes, I, J, tol: float,
            jumps: tuple[float, ...] = ()) -> ResidualReport:
    """The maxima of residuals I and J sampled at ``nodes`` and the verdict at
    ``tol``; a piecewise profile adds its slope ``jumps`` (phi', psi')."""
    check_positive(tol=tol)
    i_max = int(np.argmax(I))
    j_max = int(np.argmax(J))
    max_I = float(I[i_max])
    max_J = float(J[j_max])
    certified = max_I <= tol and max_J <= tol and all(jump >= -tol for jump in jumps)
    return ResidualReport(max_I, float(nodes[i_max]), max_J, float(nodes[j_max]),
                          certified, tol, coordinate, *jumps)


# s nodes of the smooth residuals, 250 a decade, past the profile's sigma range.
_S_NODES = _graded_nodes(1e-12, 1e-13, 250)
# Largest p (1 - s) at the top node, so that s^p comes within 1e-8 of 1 as
# the profile's tails come within 1e-8 of their limits: p up to about 1e5.
_MAX_TOP_GAP = 1e-8


def residuals_IJ(cand: SupersolCandidate, params: CompetitionParams,
                 tol: float = 1e-8) -> ResidualReport:
    """Certify (phi, psi) = (sigma^p, sigma)(a x) by evaluating I and J at
    the nodes ``_S_NODES`` of s = sigma(a x), of which both are functions:

        phi'' = a^2 p [(p-1) s^(p-2) G(s) - s^(p-1) h_p(s)]
        psi'' = -a^2 h_p(s)

    with I = phi'' + f(s^p, s) and J = (d/r) psi'' + g(s^p, s).  Raises
    ParameterError when (d/r) a^2 or p a^2 is not finite, and ProfileError
    when p is too large for s^p to reach 1 on the grid.
    """
    p, a2 = cand.p, cand.a * cand.a
    ratio_a2, p_a2 = params.ratio * a2, p * a2
    if not (ratio_a2 < math.inf and p_a2 < math.inf):
        raise ParameterError("residual scale factors must be finite, got "
                             f"(d/r) a^2 = {ratio_a2!r}, p a^2 = {p_a2!r}")
    s = _S_NODES
    top_gap = p * (1.0 - s[-1])
    if not top_gap <= _MAX_TOP_GAP:
        raise ProfileError(f"exponent p={p!r} is too large for the s grid: p (1 - s) = "
                           f"{top_gap:.3e} at its top node exceeds {_MAX_TOP_GAP:.0e}")
    phi = s**p
    G = np.maximum(first_integral(s, p), 0.0)
    hp = h_p(s, p)
    phi_dd = p_a2 * ((p - 1.0) * np.power(s, p - 2.0) * G - np.power(s, p - 1.0) * hp)
    I = phi_dd + reaction_f(phi, s, params)
    J = -ratio_a2 * hp + reaction_g(phi, s, params)
    return _report("s", s, I, J, tol)


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

    def _left_piece(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(phi, phi'') of the x < 0 piece: beta w, w = mu (1 - mu)."""
        with np.errstate(over="ignore"):  # far left exp -> inf: mu = 0, the exact limit
            mu = 1.0 / (1.0 + np.exp(-self.gamma_ * (x - self.xi)))
        w = mu * (1.0 - mu)
        return self.beta_ * w, self.beta_ * self.gamma_**2 * w * (1.0 - 6.0 * w)

    def _right_piece(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(phi, phi'') of the x >= 0 piece: 1 - 6 w, w = lam (1 - lam)."""
        with np.errstate(over="ignore"):  # far left exp -> inf: lam = 0, the exact limit
            lam = 1.0 / (1.0 + np.exp(-(x - self.eta)))
        w = lam * (1.0 - lam)
        return 1.0 - 6.0 * w, -6.0 * w * (1.0 - 6.0 * w)

    def phi(self, x):
        """Evaluate phi at scalar or array x."""
        x_arr = np.asarray(x, dtype=float)
        left, right = self._left_piece(x_arr)[0], self._right_piece(x_arr)[0]
        return _scalar_or_array(x, np.where(x_arr < 0.0, left, right))

    def psi(self, x):
        """Evaluate psi at scalar or array x."""
        x_arr = np.asarray(x, dtype=float)
        left = self.k2 * self._left_piece(x_arr)[0] + self.delta
        return _scalar_or_array(x, np.where(x_arr < 0.0, left, 1.0))


def delta_candidates(params: CompetitionParams) -> tuple[float, float, float]:
    """The three offset levels (delta1, delta2, delta3) bounding admissibility.

    delta1 = 1 - 1/k1 keeps the left-piece rate real, delta2 =
    1 - 3 k2/(k1 k2 + 2) keeps the matching level below the left piece's
    maximum, and delta3 = 1 - (k2^2/k1)^(1/3) is the largest offset with a
    nonnegative slope jump (defined only for k1 > k2^2).
    """
    k1, k2 = params.k1, params.k2
    delta1 = 1.0 - 1.0 / k1
    delta2 = 1.0 - 3.0 * k2 / (k1 * k2 + 2.0)
    delta3 = 1.0 - (k2 * k2 / k1) ** (1.0 / 3.0) if k1 > k2 * k2 else float("nan")
    return delta1, delta2, delta3


def degenerate_build(
    params: CompetitionParams, delta: float | None = None
) -> DegenerateSupersol:
    """Construct the piecewise profile; delta defaults to the maximal jump-safe offset.

    Requires k1 > k2^2 and k1 > 3 - 2/k2, and 0 < delta < delta2 so that the
    matching level m0 = (1-delta)(k1 k2 - 1)/(6 k2 (k1 (1-delta) - 1)) lies
    in (1/6, 1/4].  The left shift solves mu(0)(1 - mu(0)) = m0 on the
    branch mu(0) < 1/2, equivalently xi > 0, so phi rises through the
    matching point; the right shift eta < 0 follows from the continuity
    condition phi(0) = (1 - delta)/k2.
    """
    k1, k2 = params.k1, params.k2
    if k1 <= k2 * k2:
        raise ParameterError(
            f"degenerate construction requires k1 > k2^2, got k1={k1!r}, k2={k2!r}"
        )
    if k1 <= 3.0 - 2.0 / k2:
        raise ParameterError("degenerate construction requires k1 > 3 - 2/k2")
    _, delta2, delta3 = delta_candidates(params)
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
    """Certify the piecewise profile: residuals on both half-lines plus slope jumps.

    On x < 0 the profile solves I = 0 exactly and J <= 0 reduces to
    d/r <= H*(delta); on x > 0, I = 0 exactly and J vanishes identically.
    Nodes sit at mu = mu(0) f and 1 - lam = (1 - lam(0)) f, f in ``_S_NODES``,
    and at x = 0, near which J peaks.  Second derivatives come from the
    logistic closed forms and the reactions from the model, so residuals are
    measured against the actual nonlinearities.
    """
    if ds.k1 != params.k1 or ds.k2 != params.k2:
        raise ParameterError("profile was built for different competition coefficients")

    mu = _S_NODES / (1.0 + math.exp(ds.gamma_ * ds.xi))
    xl = np.append(ds.xi + (np.log(mu) - np.log1p(-mu)) / ds.gamma_, 0.0)
    phi_l, phi_dd_l = ds._left_piece(xl)
    psi_l = ds.k2 * phi_l + ds.delta
    I_l = phi_dd_l + reaction_f(phi_l, psi_l, params)
    J_l = params.ratio * ds.k2 * phi_dd_l + reaction_g(phi_l, psi_l, params)

    eps = _S_NODES[::-1] / (1.0 + math.exp(-ds.eta))
    xr = np.insert(ds.eta + np.log1p(-eps) - np.log(eps), 0, 0.0)
    phi_r, phi_dd_r = ds._right_piece(xr)
    I_r = phi_dd_r + reaction_f(phi_r, 1.0, params)
    # psi'' = 0 here; adding it turns the -0.0 zeros of g into +0.0.
    J_r = params.ratio * 0.0 + reaction_g(phi_r, 1.0, params)
    return _report("x", np.concatenate([xl, xr]), np.concatenate([I_l, I_r]),
                   np.concatenate([J_l, J_r]), tol, _degenerate_jumps(ds))
