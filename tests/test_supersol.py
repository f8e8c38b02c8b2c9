import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import blocking_sample_points
from wavespeed.model import ParameterError, validate
from wavespeed import supersol
from wavespeed.theory import degenerate_ratio_bound, m_of_k
from wavespeed.supersol import (
    DegenerateSupersol,
    ProfileError,
    SupersolCandidate,
    abc_coefficients,
    alpha_p,
    choose_p_a,
    degenerate_build,
    degenerate_residuals,
    delta_candidates,
    first_integral,
    h_p,
    h_star,
    matching_mismatch,
    admissibility_conditions,
    residuals_IJ,
    sigma_profile,
)


@pytest.fixture(scope="module")
def profile_cache():
    cache = {}

    def get(p):
        if p not in cache:
            cache[p] = sigma_profile(p)
        return cache[p]

    return get


class TestAlphaP:
    def test_values(self):
        assert alpha_p(2.0) == pytest.approx(0.5)
        assert alpha_p(4.0) == pytest.approx(0.2)

    def test_strictly_decreasing(self):
        ps = np.linspace(1.01, 12.0, 100)
        vals = [alpha_p(p) for p in ps]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v < 1.0 for v in vals)

    def test_domain(self):
        with pytest.raises(ValueError):
            alpha_p(1.0)


class TestHp:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
    def test_zeroes(self, p):
        assert h_p(0.0, p) == 0.0
        assert h_p(1.0, p) == pytest.approx(0.0, abs=1e-16)
        middle = alpha_p(p) ** (1.0 / (p - 1.0))
        assert h_p(middle, p) == pytest.approx(0.0, abs=1e-15)

    def test_p2_middle_zero(self):
        assert h_p(0.5, 2.0) == pytest.approx(0.0, abs=1e-16)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
    def test_balanced(self, p):
        integral, err = quad(lambda s: h_p(s, p), 0.0, 1.0, epsabs=1e-14)
        assert abs(integral) < 1e-12

    def test_negative_branch_linear(self):
        p = 2.5
        assert h_p(-0.3, p) == pytest.approx(0.3 * alpha_p(p))

    def test_first_integral_endpoints(self):
        for p in (1.5, 2.0, 3.0, 5.0):
            assert first_integral(0.0, p) == 0.0
            assert abs(first_integral(1.0, p)) < 1e-15


class TestSigmaProfile:
    def test_p2_matches_logistic(self, profile_cache):
        prof = profile_cache(2.0)
        mask = np.abs(prof.xs) <= 30.0
        exact = 1.0 / (1.0 + np.exp(-prof.xs[mask] / math.sqrt(2.0)))
        assert np.max(np.abs(prof.sigma[mask] - exact)) < 1e-8

    def test_invariants(self, profile_cache):
        for p in (1.5, 3.0):
            prof = profile_cache(p)
            assert np.all(np.diff(prof.xs) > 0)
            assert np.all(np.diff(prof.sigma) > 0)
            assert prof.sigma[0] < 1e-6
            assert prof.sigma[-1] > 1.0 - 1e-6
            # normalization sigma(0) = 1/2
            assert np.interp(0.0, prof.xs, prof.sigma) == pytest.approx(0.5, abs=1e-12)
            # first-integral identity at every node
            resid = np.abs(prof.dsigma**2 - first_integral(prof.sigma, p))
            assert resid.max() < 1e-8

    def test_ode_residual_by_centered_differences(self, profile_cache):
        prof = profile_cache(3.0)
        x, s = prof.xs, prof.sigma
        h1 = x[1:-1] - x[:-2]
        h2 = x[2:] - x[1:-1]
        sdd = 2.0 * (h1 * s[2:] - (h1 + h2) * s[1:-1] + h2 * s[:-2]) / (
            h1 * h2 * (h1 + h2)
        )
        assert np.max(np.abs(sdd + h_p(s[1:-1], 3.0))) < 1e-6

    def test_quadrature_error_reported_and_bounded(self, profile_cache, monkeypatch):
        prof = profile_cache(2.0)
        assert 0.0 <= prof.quad_error < 1e-9
        monkeypatch.setattr(supersol, "_QUAD_TOL", 1e-16)
        with pytest.raises(ProfileError, match="profile quadrature failed"):
            sigma_profile(2.0)

    def test_tail_size_bounded(self, monkeypatch):
        # The left tail needs about 376 p nodes: 3.8 million at p = 1e4.
        with pytest.raises(ProfileError, match="profile tails need"):
            sigma_profile(1e4)
        monkeypatch.setattr(supersol, "_MAX_TAIL_NODES", 1000)
        with pytest.raises(ProfileError, match="more than 1000"):
            sigma_profile(2.0)

    def test_span_request(self, profile_cache):
        prof = profile_cache(2.0)
        assert prof.xs[0] <= -supersol._SPAN and prof.xs[-1] >= supersol._SPAN


class TestProp21:
    def test_symmetric_point_recipe(self):
        params = validate(11, 1, 3, 3)
        cand = choose_p_a(params)
        assert cand is not None
        assert cand.p == pytest.approx(m_of_k(3.0), rel=1e-8)
        assert cand.a**2 == pytest.approx(3.0 / 11.0, rel=1e-8)
        assert all(admissibility_conditions(cand, params))

    def test_d_lower_bound_fails_for_small_a(self):
        params = validate(1, 1, 3, 2)
        cand = SupersolCandidate(p=2.0, a=1e-6)
        assert not admissibility_conditions(cand, params)[3]

    def test_condition_a_strict_at_equality(self):
        params = validate(1, 1, 3, 2)
        p = 2.0
        a2 = (p + 1) * (p + 2) * (params.k1 - 1) / (6 * p * p)
        cand = SupersolCandidate(p=p, a=math.sqrt(a2))
        assert not admissibility_conditions(cand, params)[0]

    def test_coefficients_sum_to_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            params = validate(
                10 ** rng.uniform(-1, 1), 1.0,
                1 + 10 ** rng.uniform(-1, 1), 1 + 10 ** rng.uniform(-1, 1),
            )
            cand = SupersolCandidate(p=rng.uniform(1.1, 6.0), a=rng.uniform(0.05, 2.0))
            A, B, C, D = abc_coefficients(cand, params)
            assert abs(A + B + C + D) < 1e-13

    def test_coefficient_example(self):
        params = validate(1, 1, 3, 2)
        A, _, _, _ = abc_coefficients(SupersolCandidate(p=2.0, a=1.0), params)
        assert A == pytest.approx(0.0, abs=1e-15)

    def test_proof_conditions_equivalent(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            params = validate(
                10 ** rng.uniform(-1, 1), 1.0,
                1 + 10 ** rng.uniform(-1, 1), 1 + 10 ** rng.uniform(-1, 1),
            )
            cand = SupersolCandidate(p=rng.uniform(1.1, 6.0), a=rng.uniform(0.05, 2.0))
            a, b, c, _ = admissibility_conditions(cand, params)
            A, B, C, _ = abc_coefficients(cand, params)
            p = cand.p
            assert (a, b, c) == (A < 0.0, p * A + (p - 1.0) * B + C <= 0.0,
                                 p * A + (p - 2.0) * B <= 0.0)


class TestBuildAndResiduals:
    def test_certified_when_conditions_hold(self):
        params = validate(11, 1, 3, 3)
        cand = choose_p_a(params)
        report = residuals_IJ(cand, params)
        assert report.certified
        assert report.max_I <= 1e-8 and report.max_J <= 1e-8
        assert report.coordinate == "s" and 0.0 < report.at_max_J < 1.0
        assert report.jump_phi is None

    def test_violation_detected(self):
        # a^2 at half the slaved-component lower bound pushes J positive
        # near sigma ~ 1.
        params = validate(11, 1, 3, 3)
        p = m_of_k(3.0) * (1 + 1e-9)
        d_lo = (params.k2 - 1) * (p + 1) * (p + 2) / (
            params.ratio * (p - 1) * (p + 4)
        )
        cand = SupersolCandidate(p=p, a=math.sqrt(0.5 * d_lo))
        report = residuals_IJ(cand, params)
        assert report.max_J > 1e-8
        assert report.at_max_J > 0.5
        assert not report.certified

    def test_grid_covers_the_profile_range(self):
        s = supersol._S_NODES
        assert s[0] < 1e-8 and 1.0 - s[-1] <= 1.001e-13
        assert np.all(np.diff(s) > 0)

    def test_exponent_beyond_the_grid_refused(self):
        # phi = s^p must reach within 1e-8 of 1 at the top node: p up to ~1e5.
        params = validate(11, 1, 3, 3)
        assert residuals_IJ(SupersolCandidate(p=9e4, a=1.0), params).max_I > 0.0
        for p in (2e5, 1e308):
            with pytest.raises(ProfileError, match="too large for the s grid"):
                residuals_IJ(SupersolCandidate(p=p, a=1.0), params)

    @pytest.mark.parametrize("d, p, a", [(1e10, 2.0, 1e150), (1.0, 1e10, 1e150)],
                             ids=["ratio-a2", "p-a2"])
    def test_scale_overflow_rejected(self, d, p, a):
        with pytest.raises(ParameterError, match="residual scale factors must be finite"):
            residuals_IJ(SupersolCandidate(p=p, a=a), validate(d, 1, 3, 3))


class TestChoosePA:
    def test_none_outside_blocking_regions(self):
        # pos1 fires here, so no negative-side candidate can exist.
        assert choose_p_a(validate(1, 1, 1.1, 5)) is None

    def test_recipe_across_regions(self):
        for d, r, k1, k2 in blocking_sample_points():
            cand = choose_p_a(validate(d, r, k1, k2))
            assert cand is not None
            assert all(admissibility_conditions(cand, validate(d, r, k1, k2)))

    def test_returned_candidate_always_passes(self):
        rng = np.random.default_rng(6)
        returned = 0
        for _ in range(2000):
            params = validate(
                10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-1, 1),
                1 + 10 ** rng.uniform(-2, 1), 1 + 10 ** rng.uniform(-2, 1),
            )
            cand = choose_p_a(params)
            if cand is not None:
                returned += 1
                assert all(admissibility_conditions(cand, params))
        assert returned > 100


class TestMatchingMismatch:
    def test_root_at_k2_squared(self):
        assert matching_mismatch(4.0, 2.0) == pytest.approx(0.0, abs=1e-15)
        for k2 in (Fraction(3, 2), Fraction(2), Fraction(3)):
            assert matching_mismatch(k2 * k2, k2) == 0

    def test_rational_value(self):
        assert matching_mismatch(Fraction(5), Fraction(2)) == Fraction(1, 12)

    def test_monotone_increasing_in_k1(self):
        k1s = np.linspace(1.1, 9.0, 50)
        vals = [matching_mismatch(float(k1), 2.0) for k1 in k1s]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_bisection_root_matches(self):
        for k2 in (1.5, 2.0, 3.0):
            lo, hi = 1.0 + 1e-9, 4.0 * k2 * k2
            assert matching_mismatch(lo, k2) < 0 < matching_mismatch(hi, k2)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if matching_mismatch(mid, k2) < 0:
                    lo = mid
                else:
                    hi = mid
            assert hi == pytest.approx(k2 * k2, abs=1e-10)


class TestDegenerateFamily:
    def test_build_at_default_offset(self):
        params = validate(0.05, 1, 8, 2)
        ds = degenerate_build(params)
        kappa = 16.0 ** (1.0 / 3.0)
        assert ds.delta == pytest.approx(1.0 - 0.5 ** (1.0 / 3.0), rel=1e-12)
        assert ds.m0 == pytest.approx(
            (kappa**2 + kappa + 1.0) / (6.0 * kappa * (kappa + 1.0)), abs=1e-12
        )
        assert 1.0 / 6.0 < ds.m0 <= 0.25
        assert ds.xi > 0.0 and ds.eta < 0.0
        # continuity of both pieces at the matching point
        assert ds.phi(-1e-12) == pytest.approx(ds.phi0, abs=1e-9)
        assert ds.phi(0.0) == pytest.approx(ds.phi0, abs=1e-12)
        assert ds.psi(-1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_pieces(self):
        # Strictly increasing on both half-lines; stop the right check where
        # phi saturates to 1 at double precision.
        ds = degenerate_build(validate(0.05, 1, 8, 2))
        xl = np.linspace(-30.0, -1e-9, 800)
        xr = np.linspace(1e-9, 20.0, 800)
        assert np.all(np.diff(ds.phi(xl)) > 0)
        assert np.all(np.diff(ds.phi(xr)) > 0)

    @pytest.mark.filterwarnings("error")
    def test_far_field_without_overflow_warning(self):
        # Each exponential overflows on the far left; the limits are exact.
        ds = degenerate_build(validate(0.05, 1, 8, 2))
        assert ds.phi(-800.0) == 0.0
        assert ds.psi(-800.0) == ds.delta
        assert ds.phi(800.0) == 1.0
        np.testing.assert_array_equal(ds.phi(np.array([-800.0, 800.0])), [0.0, 1.0])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            degenerate_build(validate(0.05, 1, 4, 2))  # k1 = k2^2 boundary
        params = validate(0.05, 1, 8, 2)
        _, delta2, _ = delta_candidates(params)
        with pytest.raises(ParameterError):
            degenerate_build(params, delta2)
        with pytest.raises(ParameterError):
            degenerate_build(params, 0.0)

    def test_h_star_forms_agree_random(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            k2 = 1.0 + 10 ** rng.uniform(-1, 0.5)
            k1 = k2 * k2 * (1.0 + 10 ** rng.uniform(-1.5, 0.8))
            params = validate(1.0, 1.0, k1, k2)
            _, delta2, _ = delta_candidates(params)
            delta = rng.uniform(0.05, 0.95) * delta2
            h_star(params, delta)  # raises if the two closed forms disagree

    def test_h_star_at_delta3_matches_criterion_bound(self):
        params = validate(0.05, 1, 8, 2)
        _, _, delta3 = delta_candidates(params)
        assert h_star(params, delta3) == pytest.approx(
            degenerate_ratio_bound(8.0, 2.0), rel=1e-12
        )
        assert h_star(params, delta3) == pytest.approx(0.0745778, rel=1e-5)

    def test_h_star_monotone_in_delta(self):
        params = validate(0.05, 1, 8, 2)
        _, delta2, _ = delta_candidates(params)
        deltas = np.linspace(0.02, 0.98, 30) * delta2
        vals = [h_star(params, d) for d in deltas]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_residuals_certify_below_h_star(self):
        params = validate(0.05, 1, 8, 2)
        ds = degenerate_build(params)
        report = degenerate_residuals(ds, params)
        assert report.certified
        assert report.max_I <= 1e-8 and report.max_J <= 1e-8
        assert report.jump_phi >= -1e-10
        assert report.jump_psi > 0.0

    def test_residuals_fail_above_h_star(self):
        params = validate(0.1, 1, 8, 2)
        ds = degenerate_build(params)
        report = degenerate_residuals(ds, params)
        assert report.max_J > 1e-8
        assert not report.certified

    @pytest.mark.parametrize("factor", [1.0 - 1e-3, 1.0 + 1e-3], ids=["below", "above"])
    def test_residual_J_resolves_h_star(self, factor):
        # On x < 0, J is a quadratic in w = mu (1 - mu) on (0, m0], largest at
        # w = min(1/12 + delta / (12 (d/r) gamma^2), m0); that maximum is 0 at
        # d/r = H*(delta).  On x > 0, J = 0.  The sampled J may exceed
        # neither, and may certify only when the exact maximum is within tol.
        rng = np.random.default_rng(18)
        certified = 0
        for _ in range(1000):
            k2 = 1.0 + 10 ** rng.uniform(-1, 1)
            k1 = k2 * k2 * (1.0 + 10 ** rng.uniform(-2, 2))
            shape = validate(1.0, 1.0, k1, k2)
            _, delta2, delta3 = delta_candidates(shape)
            delta = delta3 if rng.uniform() < 0.5 else rng.uniform(0.0, delta2)
            params = validate(factor * h_star(shape, delta), 1.0, k1, k2)
            ds = degenerate_build(params, delta)
            report = degenerate_residuals(ds, params)
            a = params.ratio * k2 * ds.beta_ * ds.gamma_**2
            w = min(1.0 / 12.0 + delta / (12.0 * params.ratio * ds.gamma_**2), ds.m0)
            exact = -6.0 * a * w * w + (a + delta * k2 * ds.beta_) * w - delta * (1.0 - delta)
            assert report.max_J <= max(exact, 0.0) + 1e-12
            assert report.max_J > report.tol or exact <= report.tol
            certified += report.max_J <= report.tol
        if factor < 1.0:
            assert certified == 1000

    def test_jump_positive_below_delta3(self):
        params = validate(0.05, 1, 8, 2)
        _, _, delta3 = delta_candidates(params)
        ds = degenerate_build(params, 0.8 * delta3)
        report = degenerate_residuals(ds, params)
        assert report.jump_phi > 1e-3

    def test_psi_jump_always_nonnegative(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            k2 = 1.0 + 10 ** rng.uniform(-1, 0.4)
            k1 = k2 * k2 * (1.0 + 10 ** rng.uniform(-1, 0.6))
            params = validate(0.01, 1.0, k1, k2)
            ds = degenerate_build(params)
            report = degenerate_residuals(ds, params)
            assert report.jump_psi >= 0.0
