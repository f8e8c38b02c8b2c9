"""Closed-form travelling waves of the competition system, a test reference.

With sigma(z) = 1/(1 + exp(-z/sqrt(6))), so that sigma' = sigma (1 - sigma)/sqrt(6),
the profile (phi, psi) = (sigma^2, sigma) of x + c t solves

    phi'' - c phi' + f(phi, psi) = 0,    d psi'' - c psi' + r g(phi, psi) = 0

exactly when k2 = d/(3r), k1 = 5/3 - d/3 + 2r and c = (d - 6r)/sqrt(6).
Substituting gives phi'' - c phi' + f = sigma^2 (1 - sigma) (1 + sigma - k1
- 2c/sqrt(6) + (2 - 3 sigma)/3) and d psi'' - c psi' + r g = sigma (1 -
sigma) (d (1 - 2 sigma)/6 - c/sqrt(6) + r (k2 sigma - 1)), and both vanish
for every sigma at those values.  Strong competition, k1 > 1 and k2 > 1,
holds for 3r < d < 6r + 2.  Both components rise monotonically from (0, 0)
to (1, 1), and the bistable monotone wave is unique up to translation, so
c is the front's speed: c < 0 for d < 6r, c = 0 on d = 6r (k1 = 5/3,
k2 = 2), c > 0 for d > 6r.  The profile is the smooth blocking family's
member at (p, a) = (2, 1/sqrt(3)).

Exchanging the species maps (d, r, k1, k2) to (1/d, 1/r, k2, k1) and the
speed c to -c/sqrt(d r); :func:`reflected_wave` gives that second family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from wavespeed.model import CompetitionParams, validate
from wavespeed.theory import reflect

KAPPA = 1.0 / math.sqrt(6.0)


@dataclass(frozen=True)
class ExactWave:
    """A travelling wave of ``params`` with speed ``c``.  ``profile(x)`` gives
    ((u, u', u''), (v, v', v'')) at the points x, in closed form."""

    params: CompetitionParams
    c: float
    profile: Callable[[np.ndarray], tuple[tuple, tuple]]


def _sigma(z):
    """sigma, sigma' and sigma'' at z, with 1 - sigma formed without cancellation."""
    s, t = 1.0 / (1.0 + np.exp(-KAPPA * z)), 1.0 / (1.0 + np.exp(KAPPA * z))
    ds = KAPPA * s * t
    return s, ds, KAPPA * ds * (t - s)


def exact_wave(d: float, r: float) -> ExactWave:
    """The member of the family at (d, r), for 3r < d < 6r + 2."""
    if not 3.0 * r < d < 6.0 * r + 2.0:
        raise ValueError(f"need 3r < d < 6r + 2, got d={d!r}, r={r!r}")

    def profile(x):
        s, ds, d2s = _sigma(np.asarray(x, dtype=float))
        return (s * s, 2.0 * s * ds, 2.0 * (ds * ds + s * d2s)), (s, ds, d2s)

    params = validate(d, r, 5.0 / 3.0 - d / 3.0 + 2.0 * r, d / (3.0 * r))
    return ExactWave(params, (d - 6.0 * r) / math.sqrt(6.0), profile)


def reflected_wave(d: float, r: float) -> ExactWave:
    """``exact_wave(d, r)`` with the species exchanged: the wave of
    reflect(params), with speed -c/sqrt(d r) and profile
    (u, v)(y) = (1 - psi, 1 - phi)(-y sqrt(d/r))."""
    wave = exact_wave(d, r)
    scale = math.sqrt(d / r)

    def profile(y):
        (phi, dphi, d2phi), (psi, dpsi, d2psi) = wave.profile(-scale * np.asarray(y, float))
        return ((1.0 - psi, scale * dpsi, -scale * scale * d2psi),
                (1.0 - phi, scale * dphi, -scale * scale * d2phi))

    return ExactWave(reflect(wave.params), -wave.c / math.sqrt(d * r), profile)
