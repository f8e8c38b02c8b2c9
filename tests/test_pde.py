import math

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

import reference_pde
from wavespeed import pde
from wavespeed.model import ParameterError, coexistence, to_cooperative, validate
from wavespeed.pde import (
    Grid1D,
    _march,
    SimConfig,
    SimulationError,
    _recentre,
    default_config,
    dump_trajectory,
    estimate_speed,
    front_position,
    refine_check,
    simulate,
    step_profile,
)
from wavespeed.theory import reflect


def coarse_config(L=40.0, dx=0.2, dt=0.05, t_end=60.0):
    return default_config(L=L, dx=dx, dt=dt, t_end=t_end)


class TestGridConfig:
    def test_grid_spacing(self):
        g = Grid1D(10.0, 101)
        assert g.dx == pytest.approx(0.2)
        assert g.xs()[0] == -10.0 and g.xs()[-1] == 10.0

    def test_invalid_grid(self):
        with pytest.raises(ParameterError):
            Grid1D(-1.0, 101)
        with pytest.raises(ParameterError):
            Grid1D(1.0, 2)

    def test_grid_size_capped(self):
        Grid1D(1.0, pde._MAX_GRID_POINTS)
        with pytest.raises(ParameterError, match="need 3 <= n_points <= 1000000, got 1000001"):
            Grid1D(1.0, pde._MAX_GRID_POINTS + 1)
        for dx in (1e-5, 1e-300):
            with pytest.raises(ParameterError, match="needs over 1000000 nodes"):
                default_config(dx=dx)

    def test_invalid_config(self):
        with pytest.raises(ParameterError):
            SimConfig(grid=Grid1D(10.0, 101), dt=-0.1)
        with pytest.raises(ParameterError):
            SimConfig(grid=Grid1D(10.0, 101), front_level=1.5)


class TestSimulate:
    def test_trivial_equilibrium_constant(self):
        params = validate(2, 1, 2, 3)
        cfg = coarse_config(t_end=5.0)
        n = cfg.grid.n_points
        zeros = np.zeros(n)
        frames = simulate(params, cfg, (zeros.copy(), zeros.copy()))
        _, _, u, v = frames[-1]
        assert np.max(np.abs(u)) < 1e-12
        assert np.max(np.abs(v)) < 1e-12

    def test_coexistence_equilibrium_constant(self):
        params = validate(2, 1, 2, 3)
        cfg = coarse_config(t_end=5.0)
        ustar, vstar = to_cooperative(*coexistence(params))
        n = cfg.grid.n_points
        frames = simulate(params, cfg, (np.full(n, ustar), np.full(n, vstar)))
        _, _, u, v = frames[-1]
        assert np.max(np.abs(u - ustar)) < 1e-10
        assert np.max(np.abs(v - vstar)) < 1e-10

    def test_invariant_region(self):
        params = validate(5, 1, 5, 2)
        cfg = coarse_config(t_end=30.0)
        frames = simulate(params, cfg, step_profile(cfg.grid), record_every=20)
        for _, _, u, v in frames:
            assert u.min() >= -1e-10 and u.max() <= 1.0 + 1e-10
            assert v.min() >= -1e-10 and v.max() <= 1.0 + 1e-10

    def test_comparison_principle(self):
        # Pointwise-ordered initial data stay ordered: 10 random pairs.
        params = validate(2, 1, 3, 2)
        cfg = coarse_config(L=15.0, dx=0.3, dt=0.05, t_end=4.0)
        xs = cfg.grid.xs()
        rng = np.random.default_rng(21)
        for _ in range(10):
            base = 0.5 * (1 + np.tanh(xs / rng.uniform(1.0, 4.0)))
            bump = rng.uniform(0.0, 0.3) * np.exp(
                -((xs - rng.uniform(-5, 5)) ** 2) / rng.uniform(2.0, 8.0)
            )
            lo_u = np.clip(base - bump, 0.0, 1.0)
            hi_u = np.clip(base + bump, 0.0, 1.0)
            lo = (lo_u, lo_u.copy())
            hi = (hi_u, hi_u.copy())
            fl = simulate(params, cfg, lo, record_every=10)
            fh = simulate(params, cfg, hi, record_every=10)
            for (_, _, ul, vl), (_, _, uh, vh) in zip(fl, fh):
                assert np.all(ul <= uh + 1e-9)
                assert np.all(vl <= vh + 1e-9)

    def test_init_validation(self):
        params = validate(1, 1, 2, 2)
        cfg = coarse_config()
        n = cfg.grid.n_points
        with pytest.raises(ParameterError):
            simulate(params, cfg, (np.full(n, 1.5), np.zeros(n)))
        with pytest.raises(ParameterError):
            simulate(params, cfg, (np.zeros(n - 1), np.zeros(n - 1)))

    @pytest.mark.parametrize("field, node", [(0, 7), (1, 7), (0, 0)],
                             ids=["u", "v", "boundary"])
    def test_nan_init_rejected(self, field, node):
        params = validate(1, 1, 2, 2)
        cfg = coarse_config(t_end=1.0)
        init = step_profile(cfg.grid)
        init[field][node] = np.nan
        with pytest.raises(ParameterError, match=r"initial fields must lie in \[0, 1\]\^2"):
            simulate(params, cfg, init)

    def test_instability_detected(self):
        # A reaction-unstable step size blows the explicit part up.
        params = validate(1, 1, 9, 9)
        cfg = default_config(L=10.0, dx=0.5, dt=1.5, t_end=30.0)
        with pytest.raises(SimulationError):
            simulate(params, cfg, step_profile(cfg.grid))


class TestFrontTracking:
    def test_interpolated_crossing(self):
        xs = np.linspace(-1.0, 1.0, 21)
        u = np.clip(0.5 + 2.5 * xs, 0.0, 1.0)
        assert front_position(xs, u, 0.5) == pytest.approx(0.0, abs=1e-12)
        assert front_position(xs, u, 0.75) == pytest.approx(0.1, abs=1e-12)

    def test_missing_crossing_is_nan(self):
        xs = np.linspace(-1.0, 1.0, 21)
        assert np.isnan(front_position(xs, np.full(21, 0.1), 0.5))
        assert np.isnan(front_position(xs, np.full(21, 0.9), 0.5))


class TestEstimateSpeed:
    def test_negative_speed_at_blocking_point(self):
        # Criterion N2 holds at (7, 1, 1.8, 2); the stronger competitor
        # advances and the measured speed must be negative.
        est = estimate_speed(validate(7, 1, 1.8, 2), coarse_config())
        assert est.converged
        assert est.c_hat < -0.05

    def test_symmetric_point_is_stationary(self):
        est = estimate_speed(validate(1, 1, 2, 2), coarse_config())
        assert est.converged
        assert abs(est.c_hat) <= 0.02

    def test_sign_convention_against_certified_point(self):
        # The one sign calibration everything else hangs on: (11/2, 11/6)
        # in the symmetric plane has certified negative speed.
        est = estimate_speed(
            validate(5.5, 1, 11 / 6, 11 / 6), coarse_config(L=60.0, t_end=90.0)
        )
        assert est.converged
        assert est.c_hat < -0.02

    def test_front_trace_recorded(self):
        est = estimate_speed(validate(7, 1, 1.8, 2), coarse_config(t_end=20.0))
        assert est.front_trace.shape[1] == 2
        assert est.front_trace[0, 0] == 0.0
        assert est.front_trace[-1, 0] == pytest.approx(20.0)


class TestCoMovingWindow:
    def test_recentre_moves_whole_cells_and_refills_the_ends(self):
        arr = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 1.0])
        _recentre(arr, 2)
        assert arr.tolist() == [0.0, 0.3, 0.4, 0.5, 1.0, 1.0, 1.0]
        _recentre(arr, -3)
        assert arr.tolist() == [0.0, 0.0, 0.0, 0.0, 0.3, 0.4, 1.0]

    def test_oracle_scan_cell_matches_the_long_fixed_frame(self):
        # A fixed L = 60 frame reported c = 0.2557 here as converged; the
        # reference 0.56295 is a fixed frame at L = 400.
        est = estimate_speed(validate(4000, 40, 1.5, 3), default_config(L=60.0, t_end=120.0))
        assert est.converged and est.shifts
        assert abs(est.c_hat - 0.56295) < 1e-3

    @pytest.mark.parametrize("point, config", [
        ((4000, 40, 1.5, 3), default_config(L=20.0, t_end=120.0)),
        # A fast front in a short window.
        ((5, 1, 5, 2), coarse_config(L=10.0, t_end=60.0)),
    ], ids=["oracle_scan_cell", "fast_front"])
    def test_window_shorter_than_the_profile_is_truncation(self, point, config):
        est = estimate_speed(validate(*point), config)
        assert not est.converged
        assert est.reason == "truncation"

    def test_readme_point_converges_at_the_defaults(self):
        est = estimate_speed(validate(11, 1, 3, 3))
        assert est.converged and est.reason is None
        assert abs(est.c_hat + 0.46209) < 2e-3

    @pytest.mark.parametrize("overrides, reason", [
        ({"t_end": 3.0}, "noisy_fit"),
        ({"t_end": 5.0, "fit_window": 0.01}, "lost_crossing"),
    ])
    def test_reason_of_a_failed_fit(self, overrides, reason):
        est = estimate_speed(validate(1, 1, 2, 2),
                             default_config(L=10.0, dx=0.5, dt=0.1, **overrides))
        assert not est.converged
        assert est.reason == reason


class TestRefineCheck:
    def test_agreement_at_symmetric_point(self):
        est1, est2, agree = refine_check(validate(1, 1, 2, 2), coarse_config(t_end=30.0))
        assert agree
        assert abs(est1.c_hat) <= 0.02 and abs(est2.c_hat) <= 0.02

    def test_agreement_at_moving_front(self):
        est1, est2, agree = refine_check(
            validate(7, 1, 1.8, 2), coarse_config(L=50.0, t_end=50.0)
        )
        assert agree

    @pytest.mark.slow
    def test_domain_truncation_insensitivity(self):
        params = validate(7, 1, 1.8, 2)
        est1 = estimate_speed(params, coarse_config(L=50.0, t_end=60.0))
        est2 = estimate_speed(params, coarse_config(L=100.0, t_end=60.0))
        assert abs(est1.c_hat - est2.c_hat) < 0.01


class TestReflectionIdentity:
    @pytest.mark.slow
    def test_five_sampled_tuples(self):
        # |c(d,r,k1,k2) + sqrt(d r) c(1/d,1/r,k2,k1)| <= 0.03 whenever both
        # estimates converge.
        cfg = default_config(L=100.0, dx=0.1, dt=0.02, t_end=150.0)
        tuples = [
            (2.0, 1.0, 3.0, 2.0),
            (5.0, 1.0, 2.0, 3.0),
            (0.5, 2.0, 4.0, 1.5),
            (1.5, 1.0, 2.5, 2.0),
            (3.0, 0.5, 2.0, 2.5),
        ]
        for d, r, k1, k2 in tuples:
            a = estimate_speed(validate(d, r, k1, k2), cfg)
            b = estimate_speed(validate(1 / d, 1 / r, k2, k1), cfg)
            assert a.converged and b.converged, (d, r, k1, k2)
            assert abs(a.c_hat + np.sqrt(d * r) * b.c_hat) <= 0.03

    @settings(max_examples=10, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-0.3, 0.3), st.floats(1.2, 4.0), st.floats(1.2, 4.0))
    def test_exchange_identity_on_a_box(self, log_d, log_r, k1, k2):
        # The co-moving window lets a coarse, short grid hold every front.
        params = validate(10.0**log_d, 10.0**log_r, k1, k2)
        cfg = default_config(L=20.0, dx=0.2, dt=0.05, t_end=100.0)
        a = estimate_speed(params, cfg)
        b = estimate_speed(reflect(params), cfg)
        assume(a.converged and b.converged)
        assert abs(a.c_hat + math.sqrt(params.d * params.r) * b.c_hat) <= 0.03


MARCH_POINTS = [(1, 1, 2, 1.5), (7, 1, 1.8, 2), (0.05, 1, 8, 2), (1, 30, 2, 2)]


def _outcome(run) -> str | None:
    """The message of the SimulationError that ``run()`` raises, or None."""
    try:
        run()
    except SimulationError as err:
        return str(err)
    return None


class TestMarch:
    """``_march`` against the two-solve reference loops of ``reference_pde``."""

    @staticmethod
    def _both(point, reference):
        params = validate(*point)
        cfg = default_config(L=20.0, t_end=6.0)
        assert cfg.n_steps == 300
        u, v = step_profile(cfg.grid)
        u_ref, v_ref = u.copy(), v.copy()
        reference(params, cfg, u_ref, v_ref, cfg.n_steps)
        steps = [k for k, _ in _march(params, cfg, u, v)]
        assert steps == list(range(1, 301))
        return u, v, u_ref, v_ref

    @pytest.mark.parametrize("point", MARCH_POINTS)
    def test_bit_identical_to_reference(self, point):
        u, v, u_ref, v_ref = self._both(point, reference_pde.march)
        assert np.array_equal(u, u_ref) and np.array_equal(v, v_ref)

    @pytest.mark.parametrize("point", MARCH_POINTS)
    def test_within_rounding_of_the_pivoting_lu(self, point):
        u, v, u_ref, v_ref = self._both(point, reference_pde.march_gtsv)
        assert np.abs(u - u_ref).max() <= 1e-12 and np.abs(v - v_ref).max() <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 12).flatmap(lambda n: st.tuples(
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(-0.05, 1.05), min_size=2 * (n - 2), max_size=2 * (n - 2)),
        st.none() | st.tuples(st.integers(0, 1), st.integers(0, n - 3)),
    )))
    def test_one_check_per_step_raises_as_check_fields(self, case):
        # The step checks the solved interior once and calls _check_fields
        # only when that fails; with end values in [0, 1] it must raise
        # exactly when, and exactly what, _check_fields raises.
        ends, interior, nan_at = case
        x = np.array(interior)
        m = len(x) // 2
        if nan_at is not None:
            x[nan_at[0] * m + nan_at[1]] = np.nan
        cfg = default_config(L=1.0, dx=2.0 / (m + 1), dt=0.01, t_end=0.02)
        u = np.array([ends[0], *np.full(m, 0.5), ends[1]])
        v = np.array([ends[2], *np.full(m, 0.5), ends[3]])
        expected_u = np.concatenate([u[:1], x[:m], u[-1:]])
        expected_v = np.concatenate([v[:1], x[m:], v[-1:]])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pde, "solve_banded", lambda factors, rhs: x.copy())
            step = _outcome(lambda: next(_march(validate(1, 1, 2, 2), cfg, u, v)))
        assert step == _outcome(lambda: pde._check_fields(expected_u, expected_v, cfg.dt))
        assert np.array_equal(u, expected_u, equal_nan=True)
        assert np.array_equal(v, expected_v, equal_nan=True)

    def test_stiff_anchor_message(self):
        with pytest.raises(SimulationError) as info:
            estimate_speed(validate(0.02, 60, 3, 3))
        assert str(info.value) == "instability: v in [0, 1.202] at t=0.02"

    def test_one_solve_and_one_reaction_pair_per_step(self, monkeypatch):
        # Tools that time the step rebind these names; each must see every step.
        counts = {}
        for name in ("solve_banded", "reaction_f", "reaction_g"):
            def counted(*args, _fn=getattr(pde, name), _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(pde, name, counted)
        cfg = coarse_config(t_end=6.0)
        estimate_speed(validate(7, 1, 1.8, 2), cfg)
        assert counts == dict.fromkeys(("solve_banded", "reaction_f", "reaction_g"),
                                       cfg.n_steps)

    def test_estimate_records_the_frames_of_simulate(self):
        params = validate(7, 1, 1.8, 2)
        cfg = coarse_config(t_end=30.0)
        frames = []
        est = estimate_speed(params, cfg, frames=frames)
        expected = simulate(params, cfg, step_profile(cfg.grid))
        assert len(frames) == len(expected) == 201
        for (t, x, u, v), (t_ref, x_ref, u_ref, v_ref) in zip(frames, expected):
            assert t == t_ref and np.array_equal(x, x_ref)
            assert np.array_equal(u, u_ref) and np.array_equal(v, v_ref)
        assert np.array_equal(est.front_trace, estimate_speed(params, cfg).front_trace)


class TestTrajectoryDump:
    def test_rows_written(self, tmp_path):
        params = validate(1, 1, 2, 2)
        cfg = coarse_config(L=5.0, dx=0.5, t_end=1.0)
        frames = simulate(params, cfg, step_profile(cfg.grid), record_every=10)
        path = tmp_path / "traj.csv"
        dump_trajectory(frames, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,u,v"
        assert len(lines) == 1 + len(frames) * cfg.grid.n_points
