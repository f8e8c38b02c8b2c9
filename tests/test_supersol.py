import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from conftest import blocking_sample_points
from reference_certify import h_p, h_star, matching_mismatch, profile_position
from wavespeed.model import ParameterError, validate
from wavespeed import supersol
from wavespeed.theory import degenerate_ratio_bound, m_of_k
from wavespeed.supersol import (
    ProfileError,
    SupersolCandidate,
    abc_coefficients,
    alpha_p,
    choose_p_a,
    degenerate_build,
    degenerate_residuals,
    delta_candidates,
    first_integral,
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

    @pytest.mark.parametrize("p", [1.0 + 1e-7, 1.0 + 1e-6, 1.2, 2.0, 10.0, 2600.0,
                                   1e4, 1e5, 3e6])
    def test_positions_match_the_reference(self, profile_cache, p):
        # The first and last rows and the rows next to s = 1e-4 and
        # 1 - s = 1e-4, against quad of dx = ds / sqrt(G) with G by quad too.
        # From p = 1e4 on, positions grow large enough that the rounding
        # allowance sigma_profile grants itself, 8 eps |x|, counts.
        prof = profile_cache(p)
        s = prof.sigma
        rows = [0, int(np.argmin(abs(s - 1e-4))), int(np.argmin(abs(1.0 - s - 1e-4))), -1]
        for row in rows:
            tol = 1e-8 + (8.0 * np.finfo(float).eps * abs(prof.xs[row]) if p >= 1e4 else 0.0)
            assert prof.xs[row] == pytest.approx(profile_position(s[row], p), abs=tol), row

    def test_quadrature_error_reported_and_bounded(self, profile_cache, monkeypatch):
        prof = profile_cache(2.0)
        assert 0.0 <= prof.quad_error < 1e-9
        monkeypatch.setattr(supersol, "_QUAD_TOL", -1.0)  # fails every row
        with pytest.raises(ProfileError, match="profile quadrature failed"):
            sigma_profile(2.0)

    @pytest.mark.parametrize("p", [1.0 + 1e-7, 1.001, 1.1, 1.2, 2.0, 2600.0, 1e4, 1e5, 3e6])
    def test_tails_on_s_nodes(self, profile_cache, p):
        # Both tails sit at the fixed distances _D_NODES from their end, so
        # the table size does not depend on p, however wide the profile is
        # in x.
        prof = profile_cache(p)
        assert len(prof.xs) == len(profile_cache(2.0).xs)
        assert np.all(np.diff(prof.xs) > 0)
        assert np.all(np.diff(prof.sigma) > 0)
        assert prof.sigma[0] == supersol._D_NODES[-1]
        assert prof.sigma[-1] == 1.0 - supersol._D_NODES[-1]
        assert np.max(np.abs(prof.dsigma**2 - first_integral(prof.sigma, p))) < 1e-8
        if p == 2.0:  # the window that acceptance test 01 compares with the logistic
            assert prof.xs[0] < -30.0 and prof.xs[-1] > 30.0

    @pytest.mark.parametrize("p", [1.0 + 1e-7, 2.0])
    @pytest.mark.parametrize("power", [1, 2], ids=["crossing", "touching"])
    def test_vanishing_first_integral_refused(self, monkeypatch, p, power):
        # G with a zero at s = 1/4 on the left half: no standing profile
        # passes it, whether G changes sign there or only touches 0.
        G = supersol._first_integral_from_zero
        monkeypatch.setattr(supersol, "_first_integral_from_zero",
                            lambda s, p: G(s, p) * (4.0 * s - 1.0) ** power)
        with pytest.raises(ProfileError, match="profile quadrature failed"):
            sigma_profile(p)


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
        assert report.coordinate == "s" and report.at_max_J in (0.0, 1.0)
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
        d = supersol._D_NODES
        assert d[0] == 0.5 and d[-1] < 1e-13 and 1.0 - (1.0 - d[-1]) < 1e-13
        assert np.all(np.diff(d) < 0) and np.all(np.diff(1.0 - d) > 0)

    def test_exponent_overflow_refused(self):
        # Any p gets a verdict while the coefficients of q are finite; beyond
        # p ~ 5e153, 6 p^2 overflows and they are not.
        params = validate(11, 1, 3, 3)
        for p in (2e5, 1e150):
            report = residuals_IJ(SupersolCandidate(p=p, a=1.0), params)
            assert report.max_I > 0.0 and not report.certified
        for p in (1e154, 1e300, 1e308):
            with pytest.raises(ParameterError, match="residual scale factors must be finite") \
                    as info:
                residuals_IJ(SupersolCandidate(p=p, a=1.0), params)
            assert "nan" not in str(info.value)

    def test_positive_layer_next_to_one_refused(self):
        # At p = 1e17, a = 1, q = 3 (1 - e^-u (1 + u)) + O(1/p) in u = -p log s:
        # positive within about 1e-15 of s = 1, where C and D (3e17) cancel.
        report = residuals_IJ(SupersolCandidate(p=1e17, a=1.0), validate(10, 1, 11, 3))
        assert not report.certified
        assert report.max_I == pytest.approx(3.0 / 7.0, rel=1e-9)  # q = 3 over B s = 7

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


def _exact_max_J(params, delta):
    """Closed-form max of J over both halves: 0 on x > 0, and on x < 0 the
    quadratic J(w) on (0, m0] at w = min(1/12 + delta / (12 (d/r) gamma^2), m0)."""
    ds = degenerate_build(params, delta)
    a = params.ratio * ds.k2 * ds.beta_ * ds.gamma_**2
    w = min(1.0 / 12.0 + delta / (12.0 * params.ratio * ds.gamma_**2), ds.m0)
    left = -6.0 * a * w * w + (a + delta * ds.k2 * ds.beta_) * w - delta * (1.0 - delta)
    return max(left, 0.0)


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
        # Both pieces take phi0 at the matching point, where psi = 1.
        lam0 = 1.0 / (1.0 + math.exp(ds.eta))
        assert ds.beta_ * ds.m0 == pytest.approx(ds.phi0, rel=1e-14)
        assert 1.0 - 6.0 * lam0 * (1.0 - lam0) == pytest.approx(ds.phi0, rel=1e-14)
        assert ds.k2 * ds.phi0 + ds.delta == pytest.approx(1.0, rel=1e-15)

    def test_monotone_pieces(self):
        # phi = beta mu (1 - mu) on x < 0 and 1 - 6 lam (1 - lam) on x >= 0,
        # with mu and lam increasing in x: both rise iff mu0 < 1/2 < lam0.
        ds = degenerate_build(validate(0.05, 1, 8, 2))
        mu0 = 1.0 / (1.0 + math.exp(ds.gamma_ * ds.xi))
        lam0 = 1.0 / (1.0 + math.exp(ds.eta))
        assert mu0 < 0.5 < lam0
        mu = np.linspace(1e-9, mu0, 800)
        lam = np.linspace(lam0, 1.0 - 1e-9, 800)
        assert np.all(np.diff(ds.beta_ * mu * (1.0 - mu)) > 0)
        assert np.all(np.diff(1.0 - 6.0 * lam * (1.0 - lam)) > 0)

    @pytest.mark.filterwarnings("error")
    def test_far_field_without_overflow_warning(self):
        # The far-field nodes sit at logistic values down to 1e-12 of the
        # matching ones; their reported positions stay finite and warn-free.
        for params, delta in ((validate(0.05, 1, 8, 2), None),
                              (validate(1e-4, 1, 6400, 8), 1e-6),
                              (validate(1e-4, 1, 1.0201 * 1.05**2, 1.05), 1e-3)):
            report = degenerate_residuals(degenerate_build(params, delta), params)
            assert math.isfinite(report.at_max_I) and math.isfinite(report.at_max_J)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            degenerate_build(validate(0.05, 1, 4, 2))  # k1 = k2^2 boundary
        params = validate(0.05, 1, 8, 2)
        delta2, _ = delta_candidates(params)
        with pytest.raises(ParameterError):
            degenerate_build(params, delta2)
        with pytest.raises(ParameterError):
            degenerate_build(params, 0.0)

    def test_k1_above_k2_squared_implies_k1_above_3_minus_2_over_k2(self):
        # k2^2 - (3 - 2/k2) = (k2 - 1)^2 (k2 + 2)/k2 > 0, so degenerate_build
        # needs no check of k1 > 3 - 2/k2.  The gap is smallest as k2 -> 1;
        # one ulp above k2^2 it still holds in floats.
        rng = np.random.default_rng(20)
        k2 = 1.0 + 10.0 ** rng.uniform(-12.0, -3.0, 200_000)
        k1 = np.nextafter(k2 * k2, np.inf)
        assert (k1 > 3.0 - 2.0 / k2).all()

    def test_h_star_forms_agree_random(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            k2 = 1.0 + 10 ** rng.uniform(-1, 0.5)
            k1 = k2 * k2 * (1.0 + 10 ** rng.uniform(-1.5, 0.8))
            params = validate(1.0, 1.0, k1, k2)
            delta2, _ = delta_candidates(params)
            delta = rng.uniform(0.05, 0.95) * delta2
            h_star(params, delta)  # raises if the two closed forms disagree

    def test_h_star_at_delta3_matches_criterion_bound(self):
        params = validate(0.05, 1, 8, 2)
        _, delta3 = delta_candidates(params)
        assert h_star(params, delta3) == pytest.approx(
            degenerate_ratio_bound(8.0, 2.0), rel=1e-12
        )
        assert h_star(params, delta3) == pytest.approx(0.0745778, rel=1e-5)

    def test_h_star_monotone_in_delta(self):
        params = validate(0.05, 1, 8, 2)
        delta2, _ = delta_candidates(params)
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

    @pytest.mark.parametrize("factor", [1.0 - 1e-3, 1.0 + 1e-3, 1.0 + 1e-5],
                             ids=["below", "above", "just-above"])
    def test_residual_J_resolves_h_star(self, factor):
        # The sampled max of J is the exact one: on x > 0 J = 0, and on x < 0
        # the nodes include the vertex of the quadratic J(w), or mu(0).
        rng = np.random.default_rng(18)
        certified = 0
        for _ in range(1000):
            k2 = 1.0 + 10 ** rng.uniform(-1, 1)
            k1 = k2 * k2 * (1.0 + 10 ** rng.uniform(-2, 2))
            shape = validate(1.0, 1.0, k1, k2)
            delta2, delta3 = delta_candidates(shape)
            delta = delta3 if rng.uniform() < 0.5 else rng.uniform(0.0, delta2)
            params = validate(factor * h_star(shape, delta), 1.0, k1, k2)
            report = degenerate_residuals(degenerate_build(params, delta), params)
            exact = _exact_max_J(params, delta)
            # Rounding in g(phi, k2 phi + delta) is about 1e-16 absolute.
            assert report.max_J == pytest.approx(exact, rel=1e-12, abs=1e-15)
            assert (report.max_J <= report.tol) == (exact <= report.tol)
            certified += report.max_J <= report.tol
        if factor < 1.0:
            assert certified == 1000

    # Relative offset t of d/r from H*(delta), |t| <= 1e-3, on a bounded box.
    # The example lies where graded nodes alone miss the vertex of J.
    @settings(max_examples=100)
    @example(k2=1.5, excess=1.5, frac=0.25, t=1e-5)
    @given(k2=st.floats(1.05, 10.0), excess=st.floats(1.01, 100.0),
           frac=st.floats(1e-6, 1.0 - 1e-6), t=st.floats(-1e-3, 1e-3))
    def test_verdict_is_the_closed_form_one(self, k2, excess, frac, t):
        k1 = excess * k2 * k2
        shape = validate(1.0, 1.0, k1, k2)
        delta = frac * delta_candidates(shape)[0]
        params = validate((1.0 + t) * h_star(shape, delta), 1.0, k1, k2)
        ds = degenerate_build(params, delta)
        report = degenerate_residuals(ds, params)
        assert report.max_I <= 1e-12
        # phi'(0-) from the left logistic, phi'(0+) from the right one.
        left = ds.beta_ * ds.gamma_ * ds.m0 * math.sqrt(1.0 - 4.0 * ds.m0)
        right = (1.0 - ds.phi0) * math.sqrt((1.0 + 2.0 * ds.phi0) / 3.0)
        tol = report.tol
        assert report.certified == (_exact_max_J(params, delta) <= tol and left - right >= -tol)

    def test_jump_positive_below_delta3(self):
        params = validate(0.05, 1, 8, 2)
        _, delta3 = delta_candidates(params)
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
