"""Every route against the closed-form travelling waves of ``reference_exact``:
the profile equations, the criteria, N2's tip at the standing wave, the
smooth blocking certificate and the PDE oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_exact import exact_wave, reflected_wave
from wavespeed.model import reaction_f, reaction_g, validate
from wavespeed.pde import default_config, estimate_speed
from wavespeed.supersol import SupersolCandidate, residuals_IJ
from wavespeed.theory import (
    CriterionId,
    ParamArrays,
    Sign,
    classify,
    evaluate_criteria,
    kstar_bounds,
)

EPS = np.finfo(float).eps
POWERS_OF_TWO = [2.0 ** j for j in range(-10, 11)]  # d = 6r is then exactly 6r


def _member(log_r: float, t: float) -> tuple[float, float]:
    """(d, r) with r = 10^log_r and d a fraction t of the way across (3r, 6r + 2)."""
    r = 10.0 ** log_r
    return 3.0 * r + t * (3.0 * r + 2.0), r


members = st.builds(_member, st.floats(-2.0, 2.0), st.floats(1e-3, 1.0 - 1e-3))
families = st.sampled_from([exact_wave, reflected_wave])


def _decided(d: float, r: float) -> bool:
    """Whether sign(d - 6r) is the sign of c at the rounded parameters:
    within a band of the standing wave, rounding k1 and k2 can move c
    across 0."""
    return abs(d - 6.0 * r) > 1e-9 * r


class TestProfile:
    @settings(max_examples=100)
    @given(members, families)
    def test_solves_the_wave_equations_to_rounding(self, member, family):
        # phi'' - c phi' + f = 0 and d psi'' - c psi' + r g = 0, each to a few
        # ulps of its largest term, over the whole rise of the profile.
        d, r = member
        wave = family(d, r)
        p = wave.params
        length = 1.0 if family is exact_wave else math.sqrt(r / d)
        (u, du, d2u), (v, dv, d2v) = wave.profile(np.linspace(-60.0, 60.0, 601) * length)
        for residual, terms in (
            (d2u - wave.c * du + reaction_f(u, v, p),
             np.abs(d2u) + np.abs(wave.c * du) + u * (1.0 + u + p.k1 * (1.0 - v))),
            (p.d * d2v - wave.c * dv + p.r * reaction_g(u, v, p),
             p.d * np.abs(d2v) + np.abs(wave.c * dv) + p.r * (1.0 - v) * (p.k2 * u + v)),
        ):
            assert np.abs(residual).max() <= 32 * EPS * terms.max()
        assert (du > 0).all() and (dv > 0).all()  # monotone, so c is the speed


class TestCriteria:
    @settings(max_examples=200)
    @given(members, families)
    def test_no_conclusive_verdict_contradicts_the_exact_sign(self, member, family):
        d, r = member
        wave = family(d, r)
        verdict = classify(wave.params)
        if _decided(d, r) and verdict.sign is not Sign.INCONCLUSIVE:
            assert (verdict.sign is Sign.NEGATIVE) == (wave.c < 0.0), verdict

    def test_twenty_thousand_members_and_their_reflections(self):
        # The criterion table on arrays, as scan reads it: every conclusive
        # sign is the exact one, and most members are decided.
        rng = np.random.default_rng(15)
        d, r = _member(rng.uniform(-2.0, 2.0, 20_000), rng.uniform(1e-3, 1.0 - 1e-3, 20_000))
        k1, k2 = 5.0 / 3.0 - d / 3.0 + 2.0 * r, d / (3.0 * r)
        exact = np.where(_decided(d, r), np.sign(d - 6.0 * r), 0.0)
        direct = evaluate_criteria(ParamArrays(d, r, k1, k2)).signs()
        reflected = evaluate_criteria(ParamArrays(1.0 / d, 1.0 / r, k2, k1)).signs()
        assert not (direct * exact < 0).any()
        assert not (reflected * exact > 0).any()
        assert np.count_nonzero(direct) + np.count_nonzero(reflected) > 0.85 * 40_000

    @pytest.mark.parametrize("r", POWERS_OF_TWO)
    def test_n2_closes_on_the_standing_wave(self, r):
        # At k2 = 2, N2's strip 4/(k1 - 1) < d/r < 2/(2 - k1) closes at
        # k1 = 5/3, d/r = 6: the family's standing wave, where c changes sign.
        fires = [evaluate_criteria(validate(6.0 * r, r, 5.0 / 3.0 * scale, 2.0))
                 .direct[CriterionId.N2] for scale in (1.0 + 1e-9, 1.0 - 1e-9)]
        assert fires == [True, False]
        bounds = kstar_bounds(6.0 * r, r, 2.0)
        assert bounds.k_lower < 5.0 / 3.0 <= bounds.k_upper


class TestBlockingCertificate:
    # The wave is the smooth family's (sigma^2, sigma)(x / sqrt(3)), a
    # blocking profile exactly where c <= 0.  Between d = (6 - delta) r and
    # (6 + delta) r the verdict flips for every r here down to delta = 1e-12;
    # at 1e-13 the side below is refused for r = 2^-10 and 2^-9 (max I = 1 at
    # s = 0, where A is a rounding error), so delta sits a decade above that.
    DELTA = 1e-11

    @pytest.mark.parametrize("r", POWERS_OF_TWO)
    def test_certifies_below_the_standing_wave_and_not_above(self, r):
        cand = SupersolCandidate(2.0, 1.0 / math.sqrt(3.0))
        below, above = (residuals_IJ(cand, exact_wave((6.0 + side * self.DELTA) * r, r).params)
                        for side in (-1.0, 1.0))
        assert below.certified and not above.certified


class TestPdeOracle:
    # The oracle's error on the family is first order in dt and shrinks |c|;
    # these 8 runs sit within 0.47-0.82 of the envelope 0.15 |c| dt + 2e-5.
    @pytest.mark.parametrize("config", [default_config(), default_config(L=20.0, dx=0.2, dt=0.05)],
                             ids=["defaults", "coarse"])
    @pytest.mark.parametrize("d, r", [(4.0, 1.0), (7.0, 1.0), (30.0, 4.8), (60.0, 9.9)])
    def test_speed_within_the_dt_envelope(self, config, d, r):
        wave = exact_wave(d, r)
        est = estimate_speed(wave.params, config)
        assert est.converged
        assert abs(est.c_hat - wave.c) <= 0.15 * abs(wave.c) * config.dt + 2e-5
