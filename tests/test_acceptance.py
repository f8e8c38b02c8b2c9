"""End-to-end acceptance checks, one test per criterion.

Each test prints a single "ACCEPTANCE <n> <name>: PASS/FAIL" line (visible
with -s or in the captured output of failures).  Criteria 5-8 run the PDE
oracle at production resolution and take seconds each; they carry the ``slow``
marker, so `pytest -m "not slow"` gives the quick subset.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import blocking_sample_points
from reference_certify import h_p, h_star, matching_mismatch
from wavespeed.model import validate
from wavespeed import pde, scan, supersol, theory
from wavespeed.theory import CriterionId, Sign


def _report(num, name, ok):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def _speeds(runs):
    """The estimates of ((d, r, k1, k2), t_end) runs, gathered by one
    ``estimate_speeds`` call; a stiff run comes back unconverged."""
    return pde.estimate_speeds(
        [(validate(*point), pde.default_config(t_end=t_end)) for point, t_end in runs])


def test_01_closed_form_sigmoid():
    t0 = time.perf_counter()
    prof = supersol.sigma_profile(2.0)
    mask = np.abs(prof.xs) <= 30.0
    exact = 1.0 / (1.0 + np.exp(-prof.xs[mask] / math.sqrt(2.0)))
    err = float(np.max(np.abs(prof.sigma[mask] - exact)))
    elapsed = time.perf_counter() - t0
    _report(1, "closed-form sigmoid (p=2)", err < 1e-8 and elapsed < 1.0)


def test_02_balance_and_first_integral():
    t0 = time.perf_counter()
    ok = True
    for p in (1.5, 2.0, 3.0, 5.0):
        integral, _ = quad(lambda s: h_p(s, p), 0.0, 1.0, epsabs=1e-14)
        ok &= abs(integral) < 1e-12
        prof = supersol.sigma_profile(p)
        resid = np.max(np.abs(prof.dsigma**2 - supersol.first_integral(prof.sigma, p)))
        ok &= resid < 1e-8
    elapsed = time.perf_counter() - t0
    _report(2, "balance and first integral", ok and elapsed < 1.0)


def test_03_smooth_certification_soundness():
    t0 = time.perf_counter()
    ok = True
    for d, r, k1, k2 in blocking_sample_points():
        params = validate(d, r, k1, k2)
        cand = supersol.choose_p_a(params)
        ok &= cand is not None
        A, B, C, D = supersol.abc_coefficients(cand, params)
        ok &= abs(A + B + C + D) <= 1e-14
        report = supersol.residuals_IJ(cand, params)
        ok &= report.certified and report.max_I <= 1e-8 and report.max_J <= 1e-8
    elapsed = time.perf_counter() - t0
    _report(3, "smooth-family certification on 20 tuples", ok and elapsed < 10.0)


def test_04_degenerate_construction():
    t0 = time.perf_counter()
    params_shape = validate(1.0, 1.0, 8.0, 2.0)
    _, delta3 = supersol.delta_candidates(params_shape)
    ds = supersol.degenerate_build(params_shape, delta3)

    kappa = 16.0 ** (1.0 / 3.0)
    m0_expected = (kappa**2 + kappa + 1.0) / (6.0 * kappa * (kappa + 1.0))
    ok = abs(ds.m0 - m0_expected) < 1e-12

    # h_star computes both closed forms and raises if they differ by more
    # than 1e-12; also compare the margin explicitly.
    hs = h_star(params_shape, delta3)
    gamma2 = ds.gamma_**2
    form1 = delta3 * (ds.m0 - ds.m_star) / (gamma2 * ds.m_star * (1 - 6 * ds.m_star))
    ok &= abs(hs - form1) < 1e-12

    ratio = 0.05 * hs / 0.0746
    params = validate(ratio, 1.0, 8.0, 2.0)
    report = supersol.degenerate_residuals(
        supersol.degenerate_build(params, delta3), params
    )
    ok &= report.certified
    ok &= report.jump_phi >= -1e-10 and report.jump_psi >= 0.0

    for k2 in (Fraction(3, 2), Fraction(2), Fraction(3)):
        ok &= matching_mismatch(k2 * k2, k2) == 0
    elapsed = time.perf_counter() - t0
    _report(4, "degenerate construction and matching", ok and elapsed < 5.0)


@pytest.mark.slow
def test_05_zero_speed_symmetry():
    ok = True
    for est in _speeds([((1.0, 1.0, k, k), 400.0) for k in (2.0, 3.0)]):
        ok &= est.converged and abs(est.c_hat) <= 0.02
    _report(5, "zero speed at the symmetric fixed point", ok)


@pytest.mark.slow
def test_06_reflection_identity():
    runs = [
        ((2.0, 1.0, 3.0, 2.0), 400.0),
        ((5.0, 1.0, 2.0, 3.0), 400.0),
        ((0.5, 2.0, 4.0, 1.5), 200.0),
    ]
    estimates = _speeds(runs + [((1.0 / d, 1.0 / r, k2, k1), t_end)
                                for (d, r, k1, k2), t_end in runs])
    ok = True
    for ((d, r, k1, k2), _), a, b in zip(runs, estimates, estimates[len(runs):]):
        ok &= a.converged and b.converged
        ok &= abs(a.c_hat + math.sqrt(d * r) * b.c_hat) <= 0.03
    _report(6, "reflection identity", ok)


@pytest.mark.slow
def test_07_sign_agreement_theory_vs_oracle():
    negative = [
        ((11.0, 1.0, 3.0, 3.0), 200.0),      # S1 / N1
        ((7.0, 1.0, 1.8, 2.0), 400.0),       # N2
        ((5.5, 1.0, 11 / 6, 11 / 6), 400.0), # prior point (i)
        ((0.05, 1.0, 8.0, 2.0), 400.0),      # degenerate
    ]
    positive = [
        ((1.0 / 11.0, 1.0, 3.0, 3.0), 400.0),
        ((1.0 / 7.0, 1.0, 2.0, 1.8), 400.0),
    ]
    estimates = _speeds(negative + positive)
    ok = True
    for est in estimates[:len(negative)]:
        ok &= est.converged and est.c_hat < -0.02
    for est in estimates[len(negative):]:
        ok &= est.converged and est.c_hat > 0.02
    _report(7, "sign agreement, criteria vs oracle", ok)


@pytest.mark.slow
def test_08_monotonicity_in_k1_and_k2():
    estimates = _speeds([((2.0, 1.0, k1, 2.0), 400.0) for k1 in (1.5, 2.0, 2.5)]
                        + [((2.0, 1.0, 2.0, k2), 400.0) for k2 in (1.5, 2.0, 2.5)])
    est_k1, est_k2 = estimates[:3], estimates[3:]
    ok = all(e.converged for e in est_k1 + est_k2)
    for a, b in zip(est_k1, est_k1[1:]):
        ok &= a.c_hat - b.c_hat > a.stderr + b.stderr
    for a, b in zip(est_k2, est_k2[1:]):
        ok &= b.c_hat - a.c_hat > a.stderr + b.stderr
    _report(8, "monotone speed in k1 (down) and k2 (up)", ok)


def test_09_region_figure_reproduction():
    t0 = time.perf_counter()
    spec = scan.ScanSpec(
        plane="sym",
        x_range=(1.0, 10.0),
        y_range=(1.0 + 1e-9, 4.0),
        nx=91,
        ny=31,
    )
    samples = scan.scan_plane(spec)
    new_cells = sum(
        1 for s in samples
        if s.verdicts[CriterionId.S1] or s.verdicts[CriterionId.S2]
    )
    priors = (
        CriterionId.PRIOR_I, CriterionId.PRIOR_II, CriterionId.PRIOR_III,
        CriterionId.PRIOR_VII, CriterionId.PRIOR_VIII,
    )
    prior_cells = sum(1 for s in samples if any(s.verdicts[c] for c in priors))
    ok = new_cells > prior_cells
    for s in samples:
        if any(s.verdicts[c] for c in priors):
            ok &= s.combined.sign is Sign.NEGATIVE
    elapsed = time.perf_counter() - t0
    print(f"  (S1|S2 cells: {new_cells}, prior cells: {prior_cells})")
    _report(9, "region-figure reproduction", ok and elapsed < 5.0)


def test_10_determinacy_thresholds():
    t0 = time.perf_counter()
    k1_star, k1_dstar = theory.determinacy_thresholds(2.0)
    ok = 1.0 < k1_star < k1_dstar
    for rho in (1e-4, 1.0, 1e4):
        verdict = theory.classify(validate(rho, 1.0, k1_dstar * 1.01, 2.0))
        ok &= verdict.sign is Sign.NEGATIVE
    # Frozen regression constant from the first verified computation.
    ok &= math.isclose(k1_dstar, 286.3858642578125, rel_tol=1e-5)
    elapsed = time.perf_counter() - t0
    _report(10, "determinacy thresholds", ok and elapsed < 5.0)
