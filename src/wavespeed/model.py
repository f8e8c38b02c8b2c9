"""Parameter containers and nonlinearities for the two-species competition model.

The primitive system is the diffusive Lotka-Volterra pair

    U_t = U_xx + U (1 - U - k1 V)
    V_t = d V_xx + r V (1 - k2 U - V)

with both interspecific coefficients above 1 (strong competition), so that
the single-species states (0, 1) and (1, 0) are both stable.  The change of
variables (u, v) = (U, 1 - V) turns it into a cooperative system with
reactions ``reaction_f`` and ``reaction_g`` below; that frame is where all
comparison arguments and the PDE front-speed oracle live.

Everything here is a pure function of its inputs; parameter objects are
frozen and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ParameterError(ValueError):
    """Parameters violate positivity or the strong-competition condition."""


def check_positive(**values: float) -> None:
    """Raise ParameterError unless every keyword value is finite and positive."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ParameterError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class CompetitionParams:
    """Validated (d, r, k1, k2) tuple; k1 > 1 and k2 > 1 strictly."""

    d: float
    r: float
    k1: float
    k2: float

    def __post_init__(self):
        for name in ("d", "r", "k1", "k2"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ParameterError(f"{name} must be a finite real, got {value!r}")
        if self.d <= 0.0 or self.r <= 0.0:
            raise ParameterError("d and r must be positive")
        if self.k1 <= 1.0 or self.k2 <= 1.0:
            raise ParameterError(
                "strong competition violated: need k1 > 1 and k2 > 1, "
                f"got k1={self.k1!r}, k2={self.k2!r}"
            )

    @property
    def ratio(self) -> float:
        """Diffusion-to-growth ratio d/r, the variable every criterion brackets."""
        return self.d / self.r

    @property
    def symmetric(self) -> bool:
        """True when the two species differ only in diffusion (r = 1, k1 = k2)."""
        return self.r == 1.0 and self.k1 == self.k2


def validate(d, r, k1, k2) -> CompetitionParams:
    """Validate a raw (d, r, k1, k2) tuple, rejecting NaN/inf and weak competition."""
    return CompetitionParams(float(d), float(r), float(k1), float(k2))


@dataclass(frozen=True)
class Lv1Params:
    """Alternative parameterization (d, alpha, beta, gamma) with 1/gamma < alpha < beta."""

    d: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("d", "alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ParameterError(f"{name} must be a finite real, got {value!r}")
        if self.d <= 0.0 or self.alpha <= 0.0 or self.beta <= 0.0 or self.gamma <= 0.0:
            raise ParameterError("d, alpha, beta, gamma must be positive")
        if not (1.0 / self.gamma < self.alpha < self.beta):
            raise ParameterError(
                "strong competition violated: need 1/gamma < alpha < beta"
            )


def lv1_to_lv2(p: Lv1Params) -> CompetitionParams:
    """Map (d, alpha, beta, gamma) to (d, r, k1, k2) = (d, alpha, alpha*gamma, beta/alpha)."""
    return CompetitionParams(p.d, p.alpha, p.alpha * p.gamma, p.beta / p.alpha)


def lv2_to_lv1(p: CompetitionParams) -> Lv1Params:
    """Inverse of :func:`lv1_to_lv2`: alpha = r, beta = r*k2, gamma = k1/r."""
    return Lv1Params(p.d, p.r, p.r * p.k2, p.k1 / p.r)


def coexistence(params: CompetitionParams) -> tuple[float, float]:
    """Unstable coexistence state (U*, V*) = ((k1-1)/(k1 k2 - 1), (k2-1)/(k1 k2 - 1))."""
    den = params.k1 * params.k2 - 1.0
    return (params.k1 - 1.0) / den, (params.k2 - 1.0) / den


@dataclass(frozen=True)
class Equilibria:
    """The four constant states of the competition system.

    ``coexistence_coop`` is the image of (U*, V*) under the cooperative
    transform, (u*, v*) = (U*, k2 (k1 - 1) / (k1 k2 - 1)).
    """

    coexistence: tuple[float, float]
    coexistence_coop: tuple[float, float]
    stable_a: tuple[float, float] = (0.0, 1.0)
    stable_b: tuple[float, float] = (1.0, 0.0)
    trivial: tuple[float, float] = (0.0, 0.0)


def equilibria(params: CompetitionParams) -> Equilibria:
    ustar, vstar = coexistence(params)
    return Equilibria(
        coexistence=(ustar, vstar),
        coexistence_coop=to_cooperative(ustar, vstar),
    )


def reaction_f(u, v, params: CompetitionParams):
    """Cooperative reaction for u: u (1 - u - k1 (1 - v)).

    Defined for all real (u, v); vanishes identically on u = 0 and at (1, 1).
    Accepts scalars or numpy arrays.
    """
    return u * (1.0 - u - params.k1 * (1.0 - v))


def reaction_g(u, v, params: CompetitionParams):
    """Cooperative reaction for v: (1 - v) (k2 u - v); vanishes on v = 1."""
    return (1.0 - v) * (params.k2 * u - v)


def to_cooperative(U, V):
    """Change of variables (u, v) = (U, 1 - V); maps (0,1) -> (0,0), (1,0) -> (1,1)."""
    return U, 1.0 - V


def from_cooperative(u, v):
    """Inverse transform (U, V) = (u, 1 - v)."""
    return u, 1.0 - v
