import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wavespeed.model import validate
from wavespeed import supersol, theory
from wavespeed.theory import (
    CriterionId,
    ParamArrays,
    PolarityConflictError,
    SearchCapExceeded,
    Sign,
    classify,
    degenerate_ratio_bound,
    determinacy_thresholds,
    evaluate_criteria,
    kstar_bounds,
    m_of_k,
    reflect,
)


def hit(params, row):
    """Whether the table row ``row`` holds at ``params`` itself (not at its reflection)."""
    return bool(evaluate_criteria(params).direct[row])


def random_params(rng, n):
    for _ in range(n):
        d = 10.0 ** rng.uniform(-3, 3)
        r = 10.0 ** rng.uniform(-2, 2)
        k1, k2 = 1.0 + 10.0 ** rng.uniform(-2, 1, size=2)
        yield validate(d, r, k1, k2)


def random_arrays(rng, n):
    """The n points of ``random_params(rng, n)`` as one ParamArrays: the
    same draws, with d and r raised by Python's ``**`` as there."""
    exponents = rng.uniform([-3, -2, -2, -2], [3, 2, 1, 1], size=(n, 4))
    d, r = (np.array([10.0 ** e for e in column]) for column in exponents[:, :2].T.tolist())
    k1, k2 = 1.0 + 10.0 ** exponents[:, 2:].T
    return ParamArrays(d, r, k1, k2)


class TestMOfK:
    def test_anchor_values(self):
        assert m_of_k(1.0) == pytest.approx(1.0)
        assert m_of_k(2.0) == pytest.approx(2.0)
        assert m_of_k(3.0) == pytest.approx((math.sqrt(73) - 3) / 2)

    def test_strictly_increasing(self):
        ks = np.linspace(1.0, 30.0, 500)
        vals = [m_of_k(k) for k in ks]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_comparison_with_identity(self):
        for k in np.linspace(1.01, 1.99, 40):
            assert m_of_k(k) > k
        for k in np.linspace(2.01, 30.0, 40):
            assert m_of_k(k) < k

    def test_domain(self):
        with pytest.raises(ValueError):
            m_of_k(0.5)
        with pytest.raises(ValueError):
            m_of_k(math.nan)

    @settings(derandomize=True)
    @given(st.floats(1.0, 1e300))
    @example(1.0).via("m(1) = 1")
    @example(2.0).via("m(2) = 2")
    @example(1.0 + 1e-9).via("the sym plane's lowest k")
    def test_same_bits_as_the_array_form(self, k):
        # The criteria read m through the array form _m; a scalar caller
        # must see the very same float.
        assert m_of_k(k).hex() == float(theory._m(np.float64(k))).hex()


class TestN1:
    def test_fires_at_strong_symmetric_point(self):
        # k1 = 3 >= m(3) ~ 2.772 and d/r = 11 exceeds the k2 > 2 branch
        # bound 2 k2 m / (2 k1 - m) ~ 5.152.
        assert hit(validate(11, 1, 3, 3), CriterionId.N1)

    def test_middle_branch(self):
        assert hit(validate(5, 1, 5, 2), CriterionId.N1)
        assert not hit(validate(0.5, 1, 5, 2), CriterionId.N1)

    def test_requires_k1_at_least_m(self):
        # k1 = 1.8 < m(2) = 2.
        assert not hit(validate(100, 1, 1.8, 2), CriterionId.N1)


class TestN2:
    def test_strip_membership(self):
        assert hit(validate(7, 1, 1.8, 2), CriterionId.N2)
        assert not hit(validate(12, 1, 1.8, 2), CriterionId.N2)
        assert not hit(validate(4, 1, 1.8, 2), CriterionId.N2)

    def test_first_clause(self):
        assert not hit(validate(7, 1, 2.5, 2), CriterionId.N2)

    def test_large_k2_requires_positive_lower_bound(self):
        # With 2 k1 <= m(k2) the strip is empty; a naive reading would let
        # any small ratio through and contradict pos1.
        p = validate(0.001, 1, 1.01, 10)
        assert not hit(p, CriterionId.N2)
        assert hit(p, CriterionId.POS1)


class TestCorollary:
    def test_neg3_at_equal_rates(self):
        assert hit(validate(1, 1, 6, 2), CriterionId.NEG3)
        assert not hit(validate(1, 1, 5, 2), CriterionId.NEG3)  # threshold is strict

    def test_pos1_example(self):
        assert hit(validate(1, 1, 1.1, 2), CriterionId.POS1)
        assert not hit(validate(1, 1, 1.3, 2), CriterionId.POS1)

    def test_polarities_disjoint_random(self):
        direct = evaluate_criteria(random_arrays(np.random.default_rng(42), 10_000)).direct
        assert not np.any(direct[CriterionId.NEG3] & direct[CriterionId.POS1])


class TestS1S2:
    def test_s1_true_above_bound(self):
        p = validate(11.0, 1, 3.0, 3.0)
        assert hit(p, CriterionId.S1) and not hit(p, CriterionId.S2)

    def test_s1_false_below_bound(self):
        assert not hit(validate(1.0, 1, 3.0, 3.0), CriterionId.S1)

    def test_s2_strip(self):
        p = validate(5.0, 1, 1.5, 1.5)
        assert hit(p, CriterionId.S2) and not hit(p, CriterionId.S1)

    def test_s2_where_rounded_m_meets_k(self):
        # Just below k = 2 the rounded m(k) equals k and the strip's upper
        # bound would divide by zero.
        k = 1.9999999999999996
        assert m_of_k(k) == k
        p = validate(5.0, 1, k, k)
        assert not hit(p, CriterionId.S1) and not hit(p, CriterionId.S2)
        verdict = classify(p)
        assert verdict.sign is Sign.NEGATIVE and CriterionId.N1 in verdict.fired

    @pytest.mark.parametrize("k", [1.9999999999999978, 1.9999999999999991, 1.9999999999999998])
    def test_s1_needs_k_at_least_2(self, k):
        # N1 reaches below k = 2 on the diagonal, by its k1 < 2 branch where
        # the rounded m(k) does not exceed k; S1 is stated for k >= 2 only.
        p = validate(5.0, 1, k, k)
        assert hit(p, CriterionId.N1) and not hit(p, CriterionId.S1)


class TestDegenerate:
    def test_bound_value(self):
        assert degenerate_ratio_bound(8.0, 2.0) == pytest.approx(0.0745778, rel=1e-5)

    def test_fires_below_bound_only(self):
        assert hit(validate(0.05, 1, 8, 2), CriterionId.DEG_NEG)
        assert not hit(validate(0.1, 1, 8, 2), CriterionId.DEG_NEG)

    def test_boundary_excluded(self):
        assert not hit(validate(0.01, 1, 4, 2), CriterionId.DEG_NEG)


class TestReflect:
    def test_swap(self):
        q = reflect(validate(2, 1, 3, 2))
        assert (q.d, q.r, q.k1, q.k2) == (0.5, 1.0, 2.0, 3.0)

    def test_involution(self):
        rng = np.random.default_rng(8)
        for p in random_params(rng, 100):
            q = reflect(reflect(p))
            assert (q.d, q.r, q.k1, q.k2) == pytest.approx((p.d, p.r, p.k1, p.k2))

    def test_symmetric_fixed_point(self):
        p = validate(1, 1, 2.7, 2.7)
        q = reflect(p)
        assert (q.d, q.r, q.k1, q.k2) == (p.d, p.r, p.k1, p.k2)


class TestPriorRegions:
    def test_point_region(self):
        assert hit(validate(5.5, 1, 11 / 6, 11 / 6), CriterionId.PRIOR_I)
        assert not hit(validate(5.5, 1, 1.83, 1.83), CriterionId.PRIOR_I)
        assert not hit(validate(5.4, 1, 11 / 6, 11 / 6), CriterionId.PRIOR_I)

    def test_region_ii(self):
        assert hit(validate(4.0, 1, 1.3, 1.3), CriterionId.PRIOR_II)
        assert not hit(validate(4.1, 1, 1.3, 1.3), CriterionId.PRIOR_II)
        assert not hit(validate(4.0, 1, 1.4, 1.4), CriterionId.PRIOR_II)

    def test_region_iii_exclusion_fires(self):
        # At (4.5, 1.8) the excluded line d = 2k/(k-1) passes exactly
        # through the query point.
        assert not hit(validate(4.5, 1, 1.8, 1.8), CriterionId.PRIOR_III)
        assert hit(validate(4.4, 1, 1.8, 1.8), CriterionId.PRIOR_III)

    def test_region_viii(self):
        assert hit(validate(4.5, 1, 1.9, 1.9), CriterionId.PRIOR_VIII)
        assert not hit(validate(3.9, 1, 1.9, 1.9), CriterionId.PRIOR_VIII)

    def test_region_vii_sample(self):
        # For k < 5/3 both floor terms drop out and the condition reduces to
        # d > 3k - 1 and 4 d (k-1) < (3k-1)^2.
        assert hit(validate(3.0, 1, 1.2, 1.2), CriterionId.PRIOR_VII)
        assert not hit(validate(2.0, 1, 1.2, 1.2), CriterionId.PRIOR_VII)


class TestClassify:
    def test_negative_at_s1_point(self):
        verdict = classify(validate(11, 1, 3, 3))
        assert verdict.sign is Sign.NEGATIVE
        assert CriterionId.S1 in verdict.fired
        assert CriterionId.N1 in verdict.fired
        # pos1 holds at the reflection (1/11, 1, 3, 3) and certifies c < 0 here too.
        assert verdict.fired_reflected == (CriterionId.POS1,)

    def test_positive_via_reflection(self):
        verdict = classify(validate(1 / 11, 1, 3, 3))
        assert verdict.sign is Sign.POSITIVE
        assert CriterionId.S1 in verdict.fired
        assert verdict.fired_reflected

    def test_inconclusive_at_symmetric_fixed_point(self):
        verdict = classify(validate(1, 1, 2, 2))
        assert verdict.sign is Sign.INCONCLUSIVE
        assert verdict.fired == ()

    def test_polarity_exclusion_on_random_sample(self):
        rng = np.random.default_rng(123)
        # signs() raises PolarityConflictError wherever classify() would.
        evaluate_criteria(random_arrays(rng, 100_000)).signs()

    def test_reflection_flips_sign(self):
        rng = np.random.default_rng(17)
        flips = {Sign.NEGATIVE: Sign.POSITIVE, Sign.POSITIVE: Sign.NEGATIVE,
                 Sign.INCONCLUSIVE: Sign.INCONCLUSIVE}
        checked = 0
        for p in random_params(rng, 2000):
            sign = classify(p).sign
            assert classify(reflect(p)).sign is flips[sign]
            checked += sign is not Sign.INCONCLUSIVE
        assert checked > 100

    def test_neg3_membership_monotone_in_k1(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            d = 10.0 ** rng.uniform(-2, 2)
            r = 10.0 ** rng.uniform(-1, 1)
            k2 = 1.0 + 10.0 ** rng.uniform(-2, 1)
            k1s = sorted(1.0 + 10.0 ** rng.uniform(-2, 1.5, size=4))
            fired = [hit(validate(d, r, k1, k2), CriterionId.NEG3) for k1 in k1s]
            # once true, true for every larger k1
            seen = False
            for f in fired:
                if seen:
                    assert f
                seen = seen or f


class TestKstarBounds:
    def test_equal_rates_k2_two(self):
        b = kstar_bounds(1.0, 1.0, 2.0)
        assert b.k_upper == pytest.approx(5.0)
        assert b.k_lower == pytest.approx(1.25)

    def test_ordering_random(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            d = 10.0 ** rng.uniform(-2, 2)
            r = 10.0 ** rng.uniform(-2, 2)
            k2 = 1.0 + 10.0 ** rng.uniform(-2, 1)
            b = kstar_bounds(d, r, k2)
            assert 1.0 < b.k_lower < b.k_upper

    def test_large_k2_warns_nothing(self):
        # pos1_margin's discarded k2 <= 2 branch overflows from k2 ~ 1.4e154.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = kstar_bounds(1.0, 1.0, 1e155)
        assert b.k_lower == pytest.approx(0.25e155)
        assert math.isfinite(b.k_upper)

    def test_bracket_is_effective(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            d = 10.0 ** rng.uniform(-1, 1)
            r = 10.0 ** rng.uniform(-1, 1)
            k2 = 1.0 + 10.0 ** rng.uniform(-1, 0.7)
            b = kstar_bounds(d, r, k2)
            assert classify(validate(d, r, b.k_upper * 1.001, k2)).sign is Sign.NEGATIVE
            low = 1.0 + (b.k_lower - 1.0) * 0.999
            assert classify(validate(d, r, low, k2)).sign is Sign.POSITIVE


class TestDeterminacy:
    def test_thresholds_for_k2_two(self):
        k1_star, k1_dstar = determinacy_thresholds(2.0)
        assert 1.0 < k1_star < k1_dstar
        assert k1_dstar >= 4.0
        # Regression constants from the first verified computation.
        assert k1_star == pytest.approx(1.1376930170147561, rel=1e-5)
        assert k1_dstar == pytest.approx(286.3858642578125, rel=1e-5)
        for rho in (1e-4, 1.0, 1e4):
            verdict = classify(validate(rho, 1.0, k1_dstar * 1.01, 2.0))
            assert verdict.sign is Sign.NEGATIVE

    def test_positive_side_certifies_all_ratios(self):
        k1_star, _ = determinacy_thresholds(2.0)
        for rho in (1e-5, 1e-2, 1.0, 1e2, 1e5):
            verdict = classify(validate(rho, 1.0, k1_star * 0.99, 2.0))
            assert verdict.sign is Sign.POSITIVE

    def test_search_stops_at_the_float_limit(self):
        # k2 = 5 needs k1 above 1e4; at k2 = 1e50 no finite k1 covers every d/r.
        k1_star, k1_dstar = determinacy_thresholds(5.0)
        assert 1.0 < k1_star < math.sqrt(5.0) and k1_dstar > 1e4
        with pytest.raises(SearchCapExceeded, match="certifies c < 0 for all d/r at k2=1e"):
            determinacy_thresholds(1e50)

    @given(st.floats(1.01, 1e3))
    def test_exchange_symmetry(self, k2):
        # k1* is where the reflected point (k2, k1) reaches full coverage, so
        # the negative level at k1* is k2 again, up to the searches' tolerance.
        k1_star, k1_dstar = determinacy_thresholds(k2)
        assert 1.0 < k1_star < math.sqrt(k2)
        assert max(k2 * k2, m_of_k(k2)) < k1_dstar
        assert determinacy_thresholds(k1_star)[1] == pytest.approx(k2, rel=5e-5)

    @pytest.mark.parametrize("k2", [1.5, 2.0, 3.0, 5.0])
    def test_spot_check_rejects_levels_short_of_the_crossing(self, k2):
        # Between the 25 log-spaced rungs these levels leave a d/r gap that
        # no criterion covers; the gap ends at the seam ratios, N1's and the
        # degenerate bound, so the check samples those too.
        k1_star, k1_dstar = determinacy_thresholds(k2)
        assert theory._sampled_coverage_check(k1_star, k1_dstar, k2)
        assert not theory._sampled_coverage_check(1.0 + 1.05 * (k1_star - 1.0), k1_dstar, k2)
        assert not theory._sampled_coverage_check(k1_star, 0.5 * k1_dstar, k2)

    def test_domain(self):
        with pytest.raises(ValueError):
            determinacy_thresholds(1.0)


@pytest.mark.parametrize("fn, args, message", [
    (determinacy_thresholds, (math.nan,), "determinacy_thresholds requires k2 > 1"),
    (determinacy_thresholds, (math.inf,), "determinacy_thresholds requires k2 > 1"),
    (kstar_bounds, (math.nan, 1.0, 2.0), "d must be positive and finite, got nan"),
    (kstar_bounds, (1.0, math.inf, 2.0), "r must be positive and finite, got inf"),
    (kstar_bounds, (1.0, 1.0, math.nan), "kstar_bounds requires d, r > 0 and k2 > 1"),
    (kstar_bounds, (1.0, 1.0, math.inf), "kstar_bounds requires d, r > 0 and k2 > 1"),
    (m_of_k, (math.nan,), "m(k) requires k >= 1, got nan"),
    (supersol.alpha_p, (math.nan,), "alpha_p requires p > 1, got nan"),
    (supersol.sigma_profile, (math.nan,), "sigma_profile requires p > 1, got nan"),
    (supersol.sigma_profile, (math.inf,), "sigma_profile requires p > 1, got inf"),
], ids=["determinacy-nan", "determinacy-inf", "kstar-d-nan",
        "kstar-r-inf", "kstar-k2-nan", "kstar-k2-inf", "m_of_k-nan", "alpha_p-nan",
        "sigma_profile-nan", "sigma_profile-inf"])
def test_threshold_entry_points_reject_non_finite(fn, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        fn(*args)
