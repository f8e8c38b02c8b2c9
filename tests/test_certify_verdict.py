"""The smooth family's verdict against sampled references.

``supersol.residuals_IJ`` decides the signs of I = s^p q(s) and
J = s (1 - s) L(s) from the closed forms of q and L.
``reference_certify.table_residuals`` evaluates I and J on the nodes of the
tabulated profile; both must reach the same verdict on the certify-batch
inputs, on and off the recipe's a, and on a seeded random sample of
candidates.  ``reference_certify`` also samples q and L on 10^5 log-graded
nodes: no sample of q may exceed its exact maximum, the verdict must flip
at the same a, and a certified candidate has no sampled margin above tol.
"""

import contextlib
import importlib
import io
import itertools
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_certify import dense_margins, dense_q, table_residuals
from wavespeed import supersol
from wavespeed.cli import main
from wavespeed.model import validate
from wavespeed.supersol import SupersolCandidate, abc_coefficients, choose_p_a, residuals_IJ

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def table():
    profiles = {}

    def verdict(cand, params):
        if cand.p not in profiles:
            profiles[cand.p] = supersol.sigma_profile(cand.p)
        return table_residuals(cand, profiles[cand.p], params)[2]

    return verdict


def batch_points(rounds=2, seed=2024):
    """The N1 and N2 points of ``rounds`` rounds of certify-batch inputs."""
    sys.path.insert(0, str(BENCH))
    try:
        inputs = importlib.import_module("inputs")
    finally:
        sys.path.remove(str(BENCH))
    ops = itertools.islice(inputs.certify_points(np.random.default_rng(seed)), 24 * rounds)
    return [point for degenerate, point in ops if not degenerate]


@pytest.mark.parametrize("scale", [1.0, 0.7, 1.3, 0.95, 1.05])
def test_batch_rows_match_the_table(table, scale):
    points = batch_points()
    assert len(points) == 40
    for point in points:
        params = validate(*point)
        recipe = choose_p_a(params)
        cand = SupersolCandidate(recipe.p, scale * recipe.a)
        verdict = residuals_IJ(cand, params).certified
        assert verdict == table(cand, params), (point, scale)
        if scale == 1.0:
            assert verdict


def test_random_candidates_match_the_table(table):
    rng = np.random.default_rng(11)
    compared = certified = 0
    while compared < 100:
        params = validate(10 ** rng.uniform(-1, 2), 10 ** rng.uniform(-1, 1),
                          1 + 10 ** rng.uniform(-1, 1), 1 + 10 ** rng.uniform(-1, 0.7))
        recipe = choose_p_a(params)
        if recipe is None:
            continue
        p = 1.0 + (recipe.p - 1.0) * math.exp(rng.uniform(-0.2, 0.2))
        cand = SupersolCandidate(p, recipe.a * math.exp(rng.uniform(-0.2, 0.2)))
        reference = table(cand, params)
        assert residuals_IJ(cand, params).certified == reference, (cand, params)
        compared += 1
        certified += reference
    assert 20 <= certified <= 80


def _flip_a(certifies, a_in, a_out, steps=50):
    """Bisect in log a between a certified ``a_in`` and a refused ``a_out``."""
    for _ in range(steps):
        mid = math.sqrt(a_in * a_out)
        a_in, a_out = (mid, a_out) if certifies(mid) else (a_in, mid)
    return a_in


def _dense_certifies(cand, params, tol=1e-8):
    max_q, _, max_L, _ = dense_margins(cand, params)
    return max_q <= tol and max_L <= tol


@pytest.mark.parametrize("factor", [0.25, 4.0], ids=["below", "above"])
def test_flip_points_match_the_table(factor):
    # The a at which the verdict flips, on either side of the recipe, against
    # the dense sample of q and L.
    for point in batch_points(rounds=1)[:8]:
        params = validate(*point)
        recipe = choose_p_a(params)
        flips = [
            _flip_a(lambda a: certifies(SupersolCandidate(recipe.p, a), params),
                    recipe.a, factor * recipe.a)
            for certifies in (lambda c, q: residuals_IJ(c, q).certified, _dense_certifies)
        ]
        assert flips[0] == pytest.approx(flips[1], rel=1e-7), point


# p in (1, 30], a log-uniform in [1e-2, 1e2], d/r, k1 - 1 and k2 - 1 in [1e-2, 1e2].
@settings(max_examples=100)
@given(p=st.floats(1.0, 30.0, exclude_min=True), log_a=st.floats(-2.0, 2.0),
       log_ratio=st.floats(-2.0, 2.0), log_k1=st.floats(-2.0, 2.0),
       log_k2=st.floats(-2.0, 2.0))
def test_no_sample_exceeds_the_exact_maxima(p, log_a, log_ratio, log_k1, log_k2):
    params = validate(10.0**log_ratio, 1.0, 1.0 + 10.0**log_k1, 1.0 + 10.0**log_k2)
    cand = SupersolCandidate(p, 10.0**log_a)
    exact = max(q for q, _, _ in supersol._q_peaks(abc_coefficients(cand, params), cand,
                                                   params.k1))
    assert float(np.max(dense_q(cand, params))) <= exact + 1e-14


@pytest.mark.parametrize("a", ["0.609", "0.4763"], ids=["q-positive-at-0", "L-positive-at-1"])
def test_positive_residual_next_to_an_end_is_refused(a):
    # A = +0.0086 at --a 0.609, so I > 0 next to s = 0, and
    # k2 - (d/r) a^2 (1 - alpha_p) - 1 = +1.1e-4 at --a 0.4763, so J > 0 next
    # to s = 1.  I and J themselves stay within 1e-8 of 0 there, scaled down
    # by s^p and by 1 - s; q and L do not.
    argv = ["certify", "0.8164002639535879", "0.6655817692795557", "1.6", "1.1",
            "--p", "1.6", "--a", a]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 5
    assert "certified: no" in out.getvalue() and err.getvalue() == ""


# Log-uniform p in (1, 1e308], a in [1e-150, 1e150] and d, r in [1e-4, 1e4].
@settings(max_examples=200)
@given(log_p=st.floats(0.0, 308.0, exclude_min=True), log_a=st.floats(-150.0, 150.0),
       log_d=st.floats(-4.0, 4.0), log_r=st.floats(-4.0, 4.0))
def test_explicit_candidate_exits_cleanly(log_p, log_a, log_d, log_r):
    p = 10.0**log_p
    argv = ["certify", repr(10.0**log_d), repr(10.0**log_r), "11", "3",
            "--p", repr(p), "--a", repr(10.0**log_a)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 5, 64)
    assert "nan" not in out + err
    if err:
        assert err.startswith("error: ") and err.count("\n") == 1
    if code == 0:
        params = validate(10.0**log_d, 10.0**log_r, 11, 3)
        assert _dense_certifies(SupersolCandidate(p, 10.0**log_a), params)
