"""The criterion table against a fold over the public predicates."""

import math

from hypothesis import example, given, settings, strategies as st
import pytest

from wavespeed.model import validate
from wavespeed.theory import (
    CRITERIA,
    CriterionId as C,
    PolarityConflictError,
    Sign,
    SignVerdict,
    classify,
    criterion_degenerate,
    criterion_n1,
    criterion_n2,
    criterion_neg3,
    criterion_pos1,
    criterion_s1_s2,
    evaluate_criteria,
    prior_regions,
    reflect,
)

# Report order of the negative criteria and of their reflections.
NEGATIVE_ORDER = (
    C.N1, C.N2, C.NEG3, C.S1, C.S2, C.DEG_NEG,
    C.PRIOR_I, C.PRIOR_II, C.PRIOR_III, C.PRIOR_VII, C.PRIOR_VIII,
)
REFLECTED_ORDER = tuple(cid for cid in NEGATIVE_ORDER if cid is not C.DEG_NEG)


def negative_hits(p):
    hits = {
        C.N1: criterion_n1(p),
        C.N2: criterion_n2(p),
        C.NEG3: criterion_neg3(p),
        C.DEG_NEG: criterion_degenerate(p),
    }
    if p.symmetric:
        hits[C.S1], hits[C.S2] = criterion_s1_s2(p.d, p.k1)
        hits.update(prior_regions(p.d, p.k1))
    return hits


def reference_classify(p):
    """Negative criteria at p and reflect(p), plus pos1 and the reflected degenerate."""
    direct = negative_hits(p)
    mirrored = negative_hits(reflect(p))
    negative = tuple(cid for cid in NEGATIVE_ORDER if direct.get(cid))
    pos_reflected = tuple(cid for cid in REFLECTED_ORDER if mirrored.get(cid))
    positive = (
        (C.POS1,) * criterion_pos1(p) + (C.DEG_POS,) * mirrored[C.DEG_NEG] + pos_reflected
    )
    if negative and positive:
        raise PolarityConflictError(p)
    if negative:
        return SignVerdict(Sign.NEGATIVE, negative)
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

    def test_only_reflected_degenerate_is_read_at_reflection(self):
        assert [row.id for row in CRITERIA if row.at_reflection] == [C.DEG_POS]

    def test_hits_cover_every_row(self):
        hits = evaluate_criteria(validate(11, 1, 3, 3))
        assert list(hits.direct) == [row.id for row in CRITERIA]
        assert list(hits.reflected) == [row.id for row in CRITERIA if row.reflectable]
        assert hits.verdict() == classify(validate(11, 1, 3, 3))

    def test_symmetric_rows_read_false_off_the_diagonal(self):
        # (5.5, 11/6) is region (i) on the diagonal; r != 1 leaves the plane.
        hits = evaluate_criteria(validate(5.5, 2.0, 11 / 6, 11 / 6))
        assert not any(hits.direct[row.id] for row in CRITERIA if row.symmetric_only)

    def test_vii_reported_before_viii(self):
        fired = classify(validate(6.0, 1.0, 1.7, 1.7)).fired
        assert fired.index(C.PRIOR_VII) < fired.index(C.PRIOR_VIII)
