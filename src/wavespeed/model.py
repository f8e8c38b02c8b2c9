"""Parameter containers and nonlinearities for the two-species competition model.

The primitive system is the diffusive Lotka-Volterra pair

    U_t = U_xx + U (1 - U - k1 V)
    V_t = d V_xx + r V (1 - k2 U - V)

with both interspecific coefficients above 1 (strong competition), so that
the single-species states (0, 1) and (1, 0) are both stable; in the paper's
(d, alpha, beta, gamma), (d, r, k1, k2) = (d, alpha, alpha gamma, beta / alpha).
The change of variables (u, v) = (U, 1 - V) turns it into a cooperative
system with reactions ``reaction_f`` and ``reaction_g`` below; that frame is
where all comparison arguments and the PDE front-speed oracle live.

Everything here is a function of its inputs alone: the reactions write
into the caller's ``out`` array when one is given, and change nothing else.
Parameter objects are frozen and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
        # The exchange of species maps d, r and d/r to their reciprocals.
        for name in ("d", "r", "d/r"):  # d/r is formed only once d and r have passed
            value = self.d / self.r if name == "d/r" else getattr(self, name)
            if not (0.0 < value < math.inf and 1.0 / value < math.inf):
                raise ParameterError(f"{name} and its reciprocal must be positive and "
                                     f"finite, got {value!r}")
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


def reaction_f(u, v, params: CompetitionParams, out=None):
    """Cooperative reaction for u: u (1 - u - k1 (1 - v)).

    Defined for all real (u, v); vanishes identically on u = 0 and at (1, 1).
    Accepts scalars or numpy arrays.  Given a float array ``out`` of the
    common shape, writes the same bits into it, with one temporary, and
    returns it; ``out`` must not share memory with ``u``.
    """
    if out is None:
        return u * (1.0 - u - params.k1 * (1.0 - v))
    one_minus_u = 1.0 - u
    np.subtract(1.0, v, out=out)
    out *= params.k1
    np.subtract(one_minus_u, out, out=out)
    out *= u
    return out


def reaction_g(u, v, params: CompetitionParams, out=None):
    """Cooperative reaction for v: (1 - v) (k2 u - v); vanishes on v = 1.

    ``out`` as for :func:`reaction_f`; it must not share memory with ``v``.
    """
    if out is None:
        return (1.0 - v) * (params.k2 * u - v)
    one_minus_v = 1.0 - v
    np.multiply(params.k2, u, out=out)
    out -= v
    out *= one_minus_v
    return out
