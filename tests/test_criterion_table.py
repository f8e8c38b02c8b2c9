"""The criterion table against the scalar reference in ``reference_criteria``."""

import math
from dataclasses import replace

from hypothesis import assume, example, given, settings, strategies as st
import numpy as np
import pytest

from wavespeed.model import ParameterError, validate
from wavespeed.theory import (
    CRITERIA,
    SIGN_OF_CODE,
    CriterionId as C,
    ParamArrays,
    PolarityConflictError,
    Sign,
    SignVerdict,
    classify,
    degenerate_ratio_bound,
    evaluate_criteria,
    m_of_k,
    neg3_threshold,
    pos1_margin,
    reflect,
)

import reference_criteria as ref

# Report order of the negative criteria.
NEGATIVE_ORDER = (
    C.N1, C.N2, C.NEG3, C.S1, C.S2, C.DEG_NEG,
    C.PRIOR_I, C.PRIOR_II, C.PRIOR_III, C.PRIOR_VII, C.PRIOR_VIII,
)


def negative_hits(p):
    hits = {
        C.N1: ref.criterion_n1(p),
        C.N2: ref.criterion_n2(p),
        C.NEG3: ref.criterion_neg3(p),
        C.DEG_NEG: ref.criterion_degenerate(p),
    }
    if p.symmetric:
        hits[C.S1], hits[C.S2] = ref.criterion_s1_s2(p.d, p.k1)
        hits.update(ref.prior_regions(p.d, p.k1))
    return hits


def hits_by_sign(p):
    """(negative, positive) criteria holding at p, each in report order."""
    hits = negative_hits(p)
    return (tuple(cid for cid in NEGATIVE_ORDER if hits.get(cid)),
            (C.POS1,) * ref.criterion_pos1(p))


def reference_classify(p):
    """Every criterion at p, and at reflect(p) with the opposite sign."""
    negative, positive = hits_by_sign(p)
    pos_reflected, neg_reflected = hits_by_sign(ref.reflect(p))
    negative += neg_reflected
    positive += pos_reflected
    if negative and positive:
        raise PolarityConflictError(p)
    if negative:
        return SignVerdict(Sign.NEGATIVE, negative, neg_reflected)
    if positive:
        return SignVerdict(Sign.POSITIVE, positive, pos_reflected)
    return SignVerdict(Sign.INCONCLUSIVE, ())


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


ratios = log_uniform(1e-4, 1e4)
competitions = log_uniform(1e-6, 1e3).map(lambda excess: 1.0 + excess)
general_points = st.builds(validate, ratios, ratios, competitions, competitions)
symmetric_points = st.builds(lambda d, k: validate(d, 1.0, k, k), ratios, competitions)
# The window 3 < d < 13, 1.2 < k < 2 holds regions (iii), (vii) and (viii).
prior_window = st.builds(
    lambda d, k: validate(d, 1.0, k, k),
    st.floats(3.0, 13.0),
    st.floats(1.2, 2.0, exclude_max=True),
)


def assert_matches_reference(p):
    try:
        expected = reference_classify(p)
    except PolarityConflictError:
        with pytest.raises(PolarityConflictError):
            classify(p)
        return
    assert classify(p) == expected


class TestClassifyMatchesReferenceFold:
    @settings(max_examples=400, deadline=None)
    @given(general_points)
    def test_general_points(self, p):
        assert_matches_reference(p)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(symmetric_points, prior_window))
    @example(validate(5.5, 1.0, 11 / 6, 11 / 6))  # region (i)
    @example(validate(4.0, 1.0, 1.3, 1.3))  # region (ii)
    @example(validate(1 / 11, 1.0, 3.0, 3.0))  # pos1 beside reflected N1, neg3, S1
    @example(validate(6.0, 1.0, 1.7, 1.7))  # (vii) and (viii) together
    @example(validate(5.0, 1.0, 1.9999999999999996, 1.9999999999999996))  # m(k) == k
    def test_symmetric_points(self, p):
        assert p.symmetric
        assert_matches_reference(p)


class TestTable:
    def test_one_row_per_id(self):
        assert sorted(row.id.value for row in CRITERIA) == sorted(c.value for c in C)

    def test_hits_cover_every_row(self):
        hits = evaluate_criteria(validate(11, 1, 3, 3))
        assert list(hits.direct) == [row.id for row in CRITERIA]
        assert list(hits.reflected) == [row.id for row in CRITERIA]
        assert hits.verdict() == classify(validate(11, 1, 3, 3))

    def test_symmetric_rows_read_false_off_the_diagonal(self):
        # (5.5, 11/6) is region (i) on the diagonal; r != 1 leaves the plane.
        hits = evaluate_criteria(validate(5.5, 2.0, 11 / 6, 11 / 6))
        assert not any(hits.direct[row.id] for row in CRITERIA if row.symmetric_only)

    def test_vii_reported_before_viii(self):
        fired = classify(validate(6.0, 1.0, 1.7, 1.7)).fired
        assert fired.index(C.PRIOR_VII) < fired.index(C.PRIOR_VIII)


def nudge(x, ulps):
    """``x`` moved by ``ulps`` (-1, 0 or +1) units in the last place."""
    return x if ulps == 0 else float(np.nextafter(x, ulps * math.inf))


def n2_bounds(k1, k2):
    """The d/r strip of N2, in the order of operations of ``criterion_n2``."""
    m = m_of_k(k2)
    lower = m * m / (k1 - 1.0) if k2 <= 2.0 else 2.0 * k2 * m / (2.0 * k1 - m)
    return lower, m * (k2 - 1.0) / (m - k1)


@st.composite
def bound_points(draw):
    """A point on a criterion bound, or one ulp either side of it.

    r is a power of two, so d/r equals the placed ratio exactly.
    """
    k1, k2, ratio = draw(competitions), draw(competitions), draw(ratios)
    r = draw(st.sampled_from((0.5, 1.0, 2.0)))
    ulps = draw(st.sampled_from((-1, 0, 1)))
    which = draw(st.sampled_from(
        ("n1", "m", "n2_lower", "n2_upper", "neg3", "pos1", "degenerate", "k2_squared")
    ))
    m = m_of_k(k2)
    if which == "n1":
        k1 = max(k1, m)
        ratio = nudge(ref._n1_ratio_bound(k1, k2), ulps)
    elif which == "m":
        k1 = nudge(m, ulps)
    elif which in ("n2_lower", "n2_upper"):
        k1 = 1.0 + draw(st.floats(0.5, 0.999)) * (m - 1.0)
        assume(k2 <= 2.0 or 2.0 * k1 > m)
        lower, upper = n2_bounds(k1, k2)
        ratio = nudge(lower if which == "n2_lower" else upper, ulps)
    elif which == "neg3":
        k1 = nudge(neg3_threshold(ratio * r, r, k2), ulps)
    elif which == "pos1":
        k1 = nudge(1.0 + pos1_margin(ratio * r, r, k2), ulps)
    elif which == "degenerate":
        k1 = k2 * k2 * (1.0 + draw(st.floats(1e-6, 10.0)))
        ratio = nudge(degenerate_ratio_bound(k1, k2), ulps)
    else:
        k1 = nudge(k2 * k2, ulps)
    try:
        return validate(ratio * r, r, k1, k2)
    except ParameterError:
        assume(False)


@st.composite
def symmetric_bound_points(draw):
    """A symmetric point on an S1 or S2 bound, or one ulp either side."""
    ulps = draw(st.sampled_from((-1, 0, 1)))
    if draw(st.booleans()):
        k = draw(st.floats(2.0, 50.0))
        m = m_of_k(k)
        d = 2.0 * k * m / (2.0 * k - m)
    else:
        k = draw(st.floats(1.0, 2.0, exclude_min=True, exclude_max=True))
        m = m_of_k(k)
        assume(k < m)
        d = m * m / (k - 1.0) if draw(st.booleans()) else m * (k - 1.0) / (m - k)
    return validate(nudge(d, ulps), 1.0, k, k)


def arrays_of(points):
    return ParamArrays(*(np.array([getattr(p, f) for p in points]) for f in ("d", "r", "k1", "k2")))


class TestArrayPathMatchesScalar:
    """``evaluate_criteria``, on arrays and at each single point, equals the
    scalar reference point by point."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.one_of(general_points, symmetric_points, prior_window,
                  bound_points(), symmetric_bound_points()),
        min_size=1, max_size=12,
    ))
    @example([validate(5.5, 1.0, 11 / 6, 11 / 6), validate(4.0, 1.0, 1.3, 1.3),
              validate(1 / 11, 1.0, 3.0, 3.0), validate(6.0, 1.0, 1.7, 1.7),
              validate(5.0, 1.0, 1.9999999999999996, 1.9999999999999996),
              validate(1.0, 1.0, 2.0, 2.0), validate(0.5, 1.0, 3.0, 2.0)])
    # The edges of the prior regions: (ii) at both ends, the (iii) exclusion
    # d (k - 1) = 2 k, the upper ends of (iii) and (viii), and d of (i) off its k.
    @example([validate(4.0, 1.0, 1.25, 1.25), validate(4.0, 1.0, 4 / 3, 4 / 3),
              validate(3.5 / 0.75, 1.0, 1.75, 1.75), validate(4 / 0.75, 1.0, 1.75, 1.75),
              validate(8.0, 1.0, 1.75, 1.75), validate(4.0, 1.0, 1.8, 1.8),
              validate(5.5, 1.0, 1.9, 1.9)])
    def test_every_hit_and_the_sign(self, points):
        scalar = [ref.evaluate(p) for p in points]
        try:
            verdicts = [ref.verdict(p, *hits) for p, hits in zip(points, scalar)]
        except PolarityConflictError:
            with pytest.raises(PolarityConflictError):
                evaluate_criteria(arrays_of(points)).signs()
            return
        arrays = evaluate_criteria(arrays_of(points))
        signs = arrays.signs()
        assert list(arrays.direct) == [row.id for row in CRITERIA]
        assert list(arrays.reflected) == [row.id for row in CRITERIA]
        for i, (p, (direct, reflected), verdict) in enumerate(zip(points, scalar, verdicts)):
            assert {cid: bool(hit[i]) for cid, hit in arrays.direct.items()} == direct
            assert {cid: bool(hit[i]) for cid, hit in arrays.reflected.items()} == reflected
            assert SIGN_OF_CODE[int(signs[i])] is verdict.sign
            assert arrays.verdict((i,)) == verdict
            single = evaluate_criteria(p)
            assert {cid: bool(hit) for cid, hit in single.direct.items()} == direct
            assert {cid: bool(hit) for cid, hit in single.reflected.items()} == reflected
            assert single.verdict() == verdict

    def test_conflicting_point_raises(self, monkeypatch):
        # pos1 forced on where N1 holds gives both polarities at one point.
        from wavespeed import theory

        rows = tuple(
            replace(row, predicate=lambda p: np.ones(p.shape, bool))
            if row.id is C.POS1 else row
            for row in CRITERIA
        )
        monkeypatch.setattr(theory, "CRITERIA", rows)
        hits = evaluate_criteria(arrays_of([validate(11, 1, 3, 3)]))
        with pytest.raises(PolarityConflictError, match="11.0"):
            hits.signs()
        with pytest.raises(PolarityConflictError, match="11.0"):
            hits.verdict((0,))
        with pytest.raises(PolarityConflictError, match="11.0"):
            classify(validate(11, 1, 3, 3))


class TestReflectionSymmetry:
    """The exchange symmetry c(p) = -sqrt(d r) c(reflect(p)): the verdict at
    reflect(p) is the opposite of the verdict at p."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(general_points, symmetric_points, prior_window,
                     bound_points(), symmetric_bound_points()))
    @example(validate(11.0, 1.0, 3.0, 3.0))  # N1, neg3, S1 beside reflected pos1
    def test_signs_at_the_reflection_are_opposite(self, p):
        # 1/(1/d) need not be d in floating point; there the two readings
        # are at different points.
        assume(reflect(reflect(p)) == p)
        assert evaluate_criteria(p).signs() == -evaluate_criteria(reflect(p)).signs()

    def test_no_asymmetric_verdict_on_a_seeded_sample(self):
        rng = np.random.default_rng(0)
        d, r = 10.0 ** rng.uniform(-4.0, 4.0, (2, 200_000))
        k1, k2 = 1.0 + 10.0 ** rng.uniform(-6.0, 3.0, (2, 200_000))
        points = ParamArrays(d, r, k1, k2)
        signs = evaluate_criteria(points).signs()
        assert np.array_equal(signs, -evaluate_criteria(reflect(points)).signs())
