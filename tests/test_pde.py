import concurrent.futures
import math
import multiprocessing
import os
import time

from hypothesis import assume, example, given, settings, strategies as st
import numpy as np
import pytest

import reference_pde
from conftest import coexistence, to_cooperative
from wavespeed import pde
from wavespeed.model import ParameterError, validate
from wavespeed.pde import (
    Grid1D,
    SimConfig,
    SimulationError,
    _recentre,
    default_config,
    dump_trajectory,
    estimate_speed,
    estimate_speeds,
    front_position,
    step_profile,
)
from wavespeed.theory import reflect


def coarse_config(L=40.0, dx=0.2, dt=0.05, t_end=60.0):
    return default_config(L=L, dx=dx, dt=dt, t_end=t_end)


def _march_states(params, config, init, every, shifts=()):
    """(t, u, v) copies of the state that ``_Window.step`` advances from
    ``init``: at t = 0 and after every ``every``-th step, recentred where
    ``shifts``, an estimate's (t, offset in cells) pairs, say."""
    window = pde._Window(params, config)
    u, v = window.u, window.v
    u[:], v[:] = init
    states = [(0.0, u.copy(), v.copy())]
    offsets, offset = dict(shifts), 0
    for k in range(1, config.n_steps + 1):
        t = window.step(k)
        if t in offsets:
            _recentre(u, offsets[t] - offset)
            _recentre(v, offsets[t] - offset)
            offset = offsets[t]
        if k % every == 0:
            states.append((t, u.copy(), v.copy()))
    return states


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

    def test_step_count_capped(self):
        # 4e11 steps would run for days; the cap refuses them before any is taken.
        with pytest.raises(ParameterError, match="need t_end / dt < 100000000, got 4000"):
            default_config(dt=1e-9)
        with pytest.raises(ParameterError, match="got 100000000.0"):
            default_config(dt=4e-6)
        assert default_config(dt=4.000001e-6).n_steps == 99_999_975

    def test_invalid_config(self):
        with pytest.raises(ParameterError):
            SimConfig(grid=Grid1D(10.0, 101), dt=-0.1)
        with pytest.raises(ParameterError):
            SimConfig(grid=Grid1D(10.0, 101), dt=0.5, t_end=0.5)


class TestSimulate:
    def test_trivial_equilibrium_constant(self):
        params = validate(2, 1, 2, 3)
        cfg = coarse_config(t_end=5.0)
        n = cfg.grid.n_points
        _, u, v = _march_states(params, cfg, (np.zeros(n), np.zeros(n)), cfg.n_steps)[-1]
        assert np.max(np.abs(u)) < 1e-12
        assert np.max(np.abs(v)) < 1e-12

    def test_coexistence_equilibrium_constant(self):
        params = validate(2, 1, 2, 3)
        cfg = coarse_config(t_end=5.0)
        ustar, vstar = to_cooperative(*coexistence(params))
        n = cfg.grid.n_points
        init = (np.full(n, ustar), np.full(n, vstar))
        _, u, v = _march_states(params, cfg, init, cfg.n_steps)[-1]
        assert np.max(np.abs(u - ustar)) < 1e-10
        assert np.max(np.abs(v - vstar)) < 1e-10

    def test_invariant_region(self):
        params = validate(5, 1, 5, 2)
        cfg = coarse_config(t_end=30.0)
        for _, u, v in _march_states(params, cfg, step_profile(cfg.grid), 20):
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
            fl = _march_states(params, cfg, lo, 10)
            fh = _march_states(params, cfg, hi, 10)
            for (_, ul, vl), (_, uh, vh) in zip(fl, fh):
                assert np.all(ul <= uh + 1e-9)
                assert np.all(vl <= vh + 1e-9)

    def test_instability_detected(self):
        # A reaction-unstable step size blows the explicit part up.
        params = validate(1, 1, 9, 9)
        cfg = default_config(L=10.0, dx=0.5, dt=1.5, t_end=30.0)
        with pytest.raises(SimulationError):
            estimate_speed(params, cfg)


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


def _offset_at(shifts, t) -> int:
    """The window's offset, in cells, after the step at t."""
    return ([0] + [offset for t_shift, offset in shifts if t_shift <= t])[-1]


def _same_estimate(a, b) -> bool:
    """Field-by-field equality of two SpeedEstimates, NaN equal to NaN."""
    return (np.array_equal([a.c_hat, a.stderr], [b.c_hat, b.stderr], equal_nan=True)
            and (a.converged, a.reason, a.shifts, a.half_length)
            == (b.converged, b.reason, b.shifts, b.half_length)
            and a.front_trace.shape == b.front_trace.shape
            and a.front_trace.tobytes() == b.front_trace.tobytes())


class TestEstimateSpeeds:
    # Four runs, so that each of two CPUs gets two: a recentring front, a
    # stationary one, a stiff one and a short one.
    JOBS = [
        ((7, 1, 1.8, 2), coarse_config(L=10.0, t_end=60.0)),
        ((1, 1, 2, 2), coarse_config(t_end=30.0)),
        ((0.02, 60, 3, 3), default_config()),
        ((5.5, 1, 11 / 6, 11 / 6), coarse_config(t_end=20.0)),
    ]

    @classmethod
    def _jobs(cls):
        return [(validate(*point), cfg) for point, cfg in cls.JOBS]

    @classmethod
    def _serial(cls):
        out = []
        for params, cfg in cls._jobs():
            try:
                out.append(estimate_speed(params, cfg))
            except SimulationError:
                out.append(None)
        return out

    def _check(self, estimates):
        serial = self._serial()
        assert len(estimates) == len(serial)
        assert serial[0].shifts and serial[2] is None
        stiff = estimates[2]
        assert (stiff.converged, stiff.reason, stiff.shifts) == (False, "stiff", ())
        assert math.isnan(stiff.c_hat) and stiff.stderr == math.inf
        assert stiff.front_trace.shape == (0, 2)
        for got, want in zip(estimates, serial):
            assert want is None or _same_estimate(got, want)

    def test_equal_to_serial_runs(self):
        self._check(estimate_speeds(self._jobs()))
        assert multiprocessing.active_children() == []

    @staticmethod
    def _no_pool(*args, **kwargs):
        raise AssertionError("forked a worker")

    def test_one_cpu_forks_nothing(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", self._no_pool)
        self._check(estimate_speeds(self._jobs()))

    @pytest.mark.parametrize("cpus", [2, None])
    def test_platform_without_affinity_mask(self, monkeypatch, cpus):
        # macOS has no os.sched_getaffinity: the CPU count stands in, and an
        # unknown count runs the jobs in this process.
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if cpus is None:
            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", self._no_pool)
        self._check(estimate_speeds(self._jobs()))
        assert multiprocessing.active_children() == []

    def test_worker_error_propagates_and_leaves_no_process(self, monkeypatch):
        # Every job runs in a forked worker; one of them raises there, and the
        # error reaches this process with the worker's traceback as its cause.
        jobs = self._jobs()
        failing = jobs[1][0]
        original = pde.estimate_speed

        def raising(params, config=None):
            if params == failing:
                raise RuntimeError("worker failure")
            return original(params, config)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(pde, "estimate_speed", raising)
        with pytest.raises(RuntimeError, match="worker failure") as excinfo:
            estimate_speeds(jobs)
        assert "worker failure" in str(excinfo.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_a_busy_worker_holds_up_no_other_job(self, monkeypatch):
        # Whichever worker takes the first job holds it until the other three
        # have finished: a fixed split would queue one of them behind it.
        jobs = self._jobs()
        first = jobs[0][0]
        finished = multiprocessing.get_context("fork").Value("i", 0)
        original = pde.estimate_speed

        def held(params, config=None):
            if params == first:
                deadline = time.monotonic() + 30
                while finished.value < len(jobs) - 1:
                    assert time.monotonic() < deadline, "the other jobs waited"
                    time.sleep(0.005)
                return original(params, config)
            try:
                return original(params, config)
            finally:
                with finished.get_lock():
                    finished.value += 1

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(pde, "estimate_speed", held)
        estimates = estimate_speeds(jobs)
        monkeypatch.undo()
        self._check(estimates)
        assert finished.value == len(jobs) - 1
        assert multiprocessing.active_children() == []

    def test_each_job_runs_once_with_more_processes_than_cores(self, monkeypatch):
        # Four workers share 24 short jobs: none may run twice or be left out.
        jobs = [(validate(1, 1, 2, 2), coarse_config(L=5.0, dx=0.5, t_end=0.05 * (i + 2)))
                for i in range(24)]
        calls = multiprocessing.get_context("fork").Value("i", 0)
        original = pde.estimate_speed

        def counted(params, config=None):
            with calls.get_lock():
                calls.value += 1
            return original(params, config)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(pde, "estimate_speed", counted)
        estimates = estimate_speeds(jobs)
        monkeypatch.undo()
        assert calls.value == len(jobs)
        for (params, cfg), got in zip(jobs, estimates):
            assert _same_estimate(got, estimate_speed(params, cfg))
        assert multiprocessing.active_children() == []

    def test_no_jobs(self):
        assert estimate_speeds([]) == []


class TestCoMovingWindow:
    def test_recentre_moves_whole_cells_and_refills_the_ends(self):
        arr = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 1.0])
        _recentre(arr, 2)
        assert arr.tolist() == [0.0, 0.3, 0.4, 0.5, 1.0, 1.0, 1.0]
        _recentre(arr, -3)
        assert arr.tolist() == [0.0, 0.0, 0.0, 0.0, 0.3, 0.4, 1.0]

    @pytest.mark.parametrize("L", [40.0, 40.05], ids=["odd_nodes", "even_nodes"])
    def test_front_position_runs_only_to_recentre(self, monkeypatch, L):
        # front_position is the one reader of the crossing, and the
        # recentre reads nothing else: once for the step profile, then once
        # per step.  On 802 nodes the centre node sits at -dx/2.
        calls = []
        find = pde.front_position
        monkeypatch.setattr(pde, "front_position", lambda *args: calls.append(1) or find(*args))
        est = estimate_speed(validate(11, 1, 3, 3), default_config(L=L))
        assert est.converged and len(est.shifts) > 50
        assert len(calls) == len(est.front_trace)

    def test_trace_is_the_crossing_of_every_frame(self):
        # 200 steps, each one a frame: the traced crossing is the one
        # front_position finds in the frame, in the lab frame.
        frames = []
        est = estimate_speed(validate(7, 1, 1.8, 2), coarse_config(L=10.0, t_end=10.0),
                             frames=frames)
        assert len(frames) == len(est.front_trace) == 201 and est.shifts
        for (t, x, u, _), (t_trace, crossing) in zip(frames, est.front_trace):
            assert t == t_trace
            assert front_position(x, u, 0.5) == pytest.approx(crossing, abs=1e-12)

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
        # c = -81 recentres every few steps; the rest gap is judged after the
        # recentre, as the regression judged it, not before.
        ((4183.5, 40, 41.84, 3), default_config(L=60.0, t_end=120.0)),
    ], ids=["oracle_scan_cell", "fast_front", "judged_after_the_recentre"])
    def test_window_shorter_than_the_profile_is_truncation(self, point, config, monkeypatch):
        # Each of these windows would grow to hold the profile; held at its
        # starting length, it is too short.
        monkeypatch.setattr(pde, "GROW_LIMIT", 1.0)
        est = estimate_speed(validate(*point), config)
        assert not est.converged
        assert est.reason == "truncation"
        assert est.half_length == config.grid.half_length

    @pytest.mark.parametrize("point, c_long", [
        # The ψ tail decays at about 0.09 at both, so L = 60 cuts it: the
        # first read -77.09 +/- 0.16 there, the second ended in truncation.
        # -77.296987 is the speed at L = 240; both now stop before t = 12.
        ((4000, 40, 40, 3), -77.296987),
        ((4183.5, 40, 41.84, 3), -82.019179),
    ], ids=["oracle_top_row", "was_truncation"])
    def test_window_grows_to_hold_slow_tails(self, point, c_long):
        config = default_config(L=60.0, t_end=120.0)
        est = estimate_speed(validate(*point), config)
        assert est.converged and est.front_trace[-1, 0] < 12.0
        assert abs(est.c_hat - c_long) < 1e-4
        # 20 decay lengths of the slowest tail, in whole cells.
        rate = min(pde._tail_rates(validate(*point), est.c_hat))
        assert est.half_length == pytest.approx(20.0 / rate, abs=0.2)

    def test_frames_follow_the_grown_window(self):
        # At t_end = 100 every balance sample, where the window may grow, is
        # also a frame.
        cfg = default_config(L=60.0, t_end=100.0)
        frames = []
        est = estimate_speed(validate(4000, 40, 40, 3), cfg, frames=frames)
        assert est.half_length > 200.0
        sizes = {len(x) for _, x, _, _ in frames}
        assert sizes == {cfg.grid.n_points, round(2.0 * est.half_length / cfg.grid.dx) + 1}
        for _, x, u, v in frames:
            assert len(x) == len(u) == len(v)
            assert np.allclose(np.diff(x), cfg.grid.dx, rtol=1e-9)
        _, x, u, _ = frames[-1]
        assert front_position(x, u, 0.5) == pytest.approx(est.front_trace[-1, 1], abs=1e-9)

    @pytest.mark.parametrize("limit, max_points, half_length", [
        (2.0, pde._MAX_GRID_POINTS, 120.0),
        (8.0, 1601, 80.0),
    ], ids=["growth_limit", "grid_limit"])
    def test_growth_stops_at_its_limit(self, monkeypatch, limit, max_points, half_length):
        monkeypatch.setattr(pde, "GROW_LIMIT", limit)
        monkeypatch.setattr(pde, "_MAX_GRID_POINTS", max_points)
        # The window may grow from t = SETTLE_LAG = 5 on.
        est = estimate_speed(validate(4000, 40, 40, 3), default_config(L=60.0, t_end=10.0))
        assert est.half_length == pytest.approx(half_length)

    def test_tail_rates_solve_the_linearised_equations(self):
        # At (0, 0): λ² - cλ - (k1 - 1) = 0 and dλ² - cλ - r = 0; at
        # (1, 1): μ² + cμ - 1 = 0 and dμ² + cμ - r(k2 - 1) = 0.
        params = validate(4000, 40, 40, 3)
        for c in (-80.0, -0.5, 0.0, 0.5, 80.0):
            lam_u, lam_v, mu_u, mu_v = pde._tail_rates(params, c)
            d, r = params.d, params.r
            for residual in (lam_u**2 - c * lam_u - 39.0, d * lam_v**2 - c * lam_v - r,
                             mu_u**2 + c * mu_u - 1.0, d * mu_v**2 + c * mu_v - 2.0 * r):
                assert abs(residual) <= 1e-12 * max(1.0, c * c, d * r)
            assert min(lam_u, lam_v, mu_u, mu_v) > 0.0

    def test_readme_point_converges_at_the_defaults(self):
        est = estimate_speed(validate(11, 1, 3, 3))
        assert est.converged and est.reason is None
        assert abs(est.c_hat + 0.46209) < 2e-3

    @pytest.mark.parametrize("t_end, error", [(3.0, math.inf), (5.0, 1.2603)],
                             ids=["shorter_than_the_lag", "still_drifting"])
    def test_reason_of_a_failed_fit(self, t_end, error):
        # Before t = SETTLE_LAG the drift is unknown; from t = 0 to 5, c_u
        # spans 1.2603 (it starts at -1.249 and ends at 0.009).
        est = estimate_speed(validate(1, 1, 2, 2),
                             default_config(L=10.0, dx=0.5, dt=0.1, t_end=t_end))
        assert not est.converged
        assert est.reason == "not_relaxed"
        assert est.stderr == pytest.approx(error, rel=1e-4)


class TestRefineCheck:
    """The speed at (dx, dt) against the speed at (dx/2, dt/2): halving dt
    with dx keeps the first-order temporal error in step with the spatial."""

    @staticmethod
    def _refined_speeds(point, L, t_end):
        params = validate(*point)
        c1, c2 = (estimate_speed(params, coarse_config(L, 0.2 / h, 0.05 / h, t_end)).c_hat
                  for h in (1, 2))
        assert abs(c1 - c2) < max(0.01, 0.1 * abs(c1))
        return c1, c2

    def test_agreement_at_symmetric_point(self):
        c1, c2 = self._refined_speeds((1, 1, 2, 2), L=40.0, t_end=30.0)
        assert abs(c1) <= 0.02 and abs(c2) <= 0.02

    def test_agreement_at_moving_front(self):
        self._refined_speeds((7, 1, 1.8, 2), L=50.0, t_end=50.0)

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
        estimates = estimate_speeds(
            [(validate(d, r, k1, k2), cfg) for d, r, k1, k2 in tuples]
            + [(validate(1 / d, 1 / r, k2, k1), cfg) for d, r, k1, k2 in tuples])
        for (d, r, k1, k2), a, b in zip(tuples, estimates, estimates[len(tuples):]):
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


def _marched_to_the_cap(params, config):
    """``estimate_speed`` with no stop: no error bar is below a tolerance of 0."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pde, "SETTLE_TOL", 0.0)
        return estimate_speed(params, config)


# The regression's reasons for an unsettled speed, in the mass balance's terms.
_BALANCE_REASON = {"noisy_fit": "not_relaxed", "lost_crossing": "not_relaxed"}


class TestStoppedRun:
    """The stopped mass-balance speed against the run marched to its cap and
    against the regression estimate that it replaced (``reference_pde``)."""

    @settings(max_examples=15, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-0.3, 0.3), st.floats(1.2, 4.0), st.floats(1.2, 4.0))
    @example(-0.375, 0.0, 1.3125, 3.875)
    def test_box_matches_the_regression_and_the_capped_run(self, log_d, log_r, k1, k2):
        # The box and grid of test_exchange_identity_on_a_box.  At the
        # example's reflection c_u swings over 1.9e-4 with the recentring
        # period of 4.95 time units, about SETTLE_LAG: a drift read between
        # the lag's two ends alone stops 1.3e-4 from the capped run.
        self._matches_the_regression_and_the_capped_run(log_d, log_r, k1, k2)

    # Two box points where the stopped run and the regression disagreed
    # while the window recentred only once the front strayed L/4: at
    # (10, 1, 1.203125, 1.5) the stopped run was not_relaxed, its error bar
    # 0.020 against a 0.0181 limit; at the reflection (1, 1, 1.203125, 1.5)
    # the stop lay 1.46e-4 from the capped c_u, with an error bar of 8.0e-6.
    # The derandomized draws of the box test reach them when the collected
    # modules' literals change, as in a run of a subset of the test files.
    @pytest.mark.parametrize("log_d, log_r, k1, k2", [
        (1.0, 0.0, 1.203125, 1.5),
        (0.0, 0.0, 1.5, 1.203125),
    ])
    def test_box_points_where_the_stop_disagreed(self, log_d, log_r, k1, k2):
        self._matches_the_regression_and_the_capped_run(log_d, log_r, k1, k2)

    def test_coarse_grid_stop_lies_within_1e_5_of_the_capped_run(self):
        # It lay 4.6e-5 away, with an error bar below 1e-5, while c_u swung
        # with the recentring cycle of the L/4 rule.
        params = validate(1.886, 0.569, 2.764, 2.281)
        cfg = default_config(L=20.0, dx=0.2, dt=0.05, t_end=100.0)
        stopped = estimate_speed(params, cfg)
        capped = _marched_to_the_cap(params, cfg)
        assert stopped.converged and capped.converged
        assert stopped.front_trace[-1, 0] < 50.0
        assert abs(stopped.c_hat - capped.c_hat) <= 1e-5

    @staticmethod
    def _matches_the_regression_and_the_capped_run(log_d, log_r, k1, k2):
        params = validate(10.0**log_d, 10.0**log_r, k1, k2)
        cfg = default_config(L=20.0, dx=0.2, dt=0.05, t_end=100.0)
        for point in (params, reflect(params)):
            est = estimate_speed(point, cfg)
            ref, capped_c_u = reference_pde.regression_estimate(point, cfg)
            assert est.converged == ref.converged
            assert est.reason == _BALANCE_REASON.get(ref.reason, ref.reason)
            if est.converged:
                assert abs(est.c_hat - capped_c_u) <= 1e-4

    def test_regression_reads_the_capped_run(self):
        # On this grid both runs track the front, and so may recentre, at
        # every step: at the box's example reflection, which recentres, the
        # regression's c_u at the cap is the capped run's c_hat.
        point = reflect(validate(10.0**-0.375, 1.0, 1.3125, 3.875))
        cfg = default_config(L=20.0, dx=0.2, dt=0.05, t_end=100.0)
        capped = _marched_to_the_cap(point, cfg)
        assert capped.shifts
        assert reference_pde.regression_estimate(point, cfg)[1] == capped.c_hat

    @pytest.mark.slow
    def test_anchors_stop_within_1e_5_of_the_capped_run(self):
        # The eight anchors of bench/reference_speeds.json at the CLI defaults.
        anchors = [(5.5, 1, 11 / 6, 11 / 6), (1, 30, 2, 2), (2, 1, 1.5, 2.5), (11, 1, 3, 3),
                   (7, 1, 1.8, 2), (1 / 11, 1, 3, 3), (0.05, 1, 8, 2), (1, 1, 40, 2)]
        jobs = [(validate(*point), default_config()) for point in anchors]
        stopped = estimate_speeds(jobs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pde, "SETTLE_TOL", 0.0)
            capped = estimate_speeds(jobs)  # forked workers inherit the patch
        for point, a, b in zip(anchors, stopped, capped):
            assert a.converged and b.converged, point
            assert a.half_length == b.half_length == 40.0, point  # no window grows
            assert a.front_trace[-1, 0] < 30.0 and b.front_trace[-1, 0] == pytest.approx(400.0)
            assert abs(a.c_hat - b.c_hat) <= 1e-5, point


MARCH_POINTS = [(1, 1, 2, 1.5), (7, 1, 1.8, 2), (0.05, 1, 8, 2), (1, 30, 2, 2)]
# The top row of the oracle-scan plane: rc_v = 8000, and the front crosses
# about 16 cells a step.
ORACLE_TOP_ROW = (4000, 40, 40, 3)


def _outcome(run) -> str | None:
    """The message of the SimulationError that ``run()`` raises, or None."""
    try:
        run()
    except SimulationError as err:
        return str(err)
    return None


class TestMarch:
    """``_Window.step`` against the two-solve reference loops of ``reference_pde``."""

    @staticmethod
    def _both(point, reference):
        params = validate(*point)
        cfg = default_config(L=20.0, t_end=6.0)
        assert cfg.n_steps == 300
        window = pde._Window(params, cfg)
        u_ref, v_ref = step_profile(cfg.grid)
        reference(params, cfg, u_ref, v_ref, cfg.n_steps)
        times = [window.step(k) for k in range(1, 301)]
        assert times == [k * cfg.dt for k in range(1, 301)]
        return window.u, window.v, u_ref, v_ref

    @pytest.mark.parametrize("point", MARCH_POINTS + [ORACLE_TOP_ROW])
    def test_bit_identical_to_reference(self, point):
        u, v, u_ref, v_ref = self._both(point, reference_pde.march)
        assert np.array_equal(u, u_ref) and np.array_equal(v, v_ref)

    @pytest.mark.parametrize("point", MARCH_POINTS)
    def test_within_rounding_of_the_pivoting_lu(self, point):
        u, v, u_ref, v_ref = self._both(point, reference_pde.march_gtsv)
        assert np.abs(u - u_ref).max() <= 1e-12 and np.abs(v - v_ref).max() <= 1e-12

    def test_bit_identical_to_reference_after_a_growth(self):
        # The top row's slow tail grows the window at its first balance
        # sample from t = SETTLE_LAG; the steps after it solve with the
        # factors of the grown window.
        params = validate(*ORACLE_TOP_ROW)
        window = pde._Window(params, default_config(L=60.0, t_end=120.0))
        grown_at = round(pde.SETTLE_LAG / window.config.dt)
        for k in range(1, grown_at + 1):
            window.track(window.step(k))
        assert window.grow(grown_at, window.speeds()[0], pde._rest_gap(window.u, window.v))
        assert window.config.grid.n_points == 4405
        u_ref, v_ref = window.u.copy(), window.v.copy()
        reference_pde.march(params, window.config, u_ref, v_ref, 10)
        for k in range(grown_at + 1, grown_at + 11):
            window.step(k)
        assert np.array_equal(window.u, u_ref) and np.array_equal(window.v, v_ref)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 12).flatmap(lambda n: st.tuples(
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(-0.05, 1.05), min_size=2 * (n - 2), max_size=2 * (n - 2)),
        st.none() | st.tuples(st.integers(0, 1), st.integers(0, n - 3)),
    )))
    def test_one_check_per_step_raises_as_check_fields(self, case):
        # The step checks the solved state once and calls _check_fields
        # only when that fails; with end values in [0, 1] it must raise
        # exactly when, and exactly what, _check_fields raises.
        ends, interior, nan_at = case
        x = np.array(interior)
        m = len(x) // 2
        if nan_at is not None:
            x[nan_at[0] * m + nan_at[1]] = np.nan
        cfg = default_config(L=1.0, dx=2.0 / (m + 1), dt=0.01, t_end=0.02)
        window = pde._Window(validate(1, 1, 2, 2), cfg)
        window.u[:] = [ends[0], *np.full(m, 0.5), ends[1]]
        window.v[:] = [ends[2], *np.full(m, 0.5), ends[3]]
        expected_u = np.concatenate([window.u[:1], x[:m], window.u[-1:]])
        expected_v = np.concatenate([window.v[:1], x[m:], window.v[-1:]])
        state = np.concatenate([expected_u, expected_v])

        def solve(factors, rhs):  # the solve writes the stacked state, ends included
            rhs[:] = state
            return rhs

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pde, "solve_banded", solve)
            step = _outcome(lambda: window.step(1))
        assert step == _outcome(lambda: pde._check_fields(expected_u, expected_v, cfg.dt))
        assert np.array_equal(window.u, expected_u, equal_nan=True)
        assert np.array_equal(window.v, expected_v, equal_nan=True)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 12).flatmap(lambda n: st.tuples(
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(0.0, 1.0), min_size=2 * (n - 2), max_size=2 * (n - 2)),
        st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),  # log10 d, log10 r
                  st.floats(1.001, 50.0), st.floats(1.001, 50.0), st.floats(1e-3, 0.1)),
        st.integers(1, 3),
    )))
    def test_bit_identical_to_reference_under_any_end_values(self, case):
        # The march tests start from ends at exactly (0, 0) and (1, 1),
        # where the reactions vanish: drawn ends show that the step's
        # end rows hold them clamped, and that the end terms read them.
        ends, interior, (log_d, log_r, k1, k2, dt), steps = case
        m = len(interior) // 2
        params = validate(10.0**log_d, 10.0**log_r, k1, k2)
        cfg = default_config(L=1.0, dx=2.0 / (m + 1), dt=dt, t_end=3.0 * dt)
        window = pde._Window(params, cfg)
        window.u[:] = [ends[0], *interior[:m], ends[1]]
        window.v[:] = [ends[2], *interior[m:], ends[3]]
        u_ref, v_ref = window.u.copy(), window.v.copy()
        expected = _outcome(lambda: reference_pde.march(params, cfg, u_ref, v_ref, steps))
        assert _outcome(lambda: [window.step(k) for k in range(1, steps + 1)]) == expected
        assert np.array_equal(window.u, u_ref) and np.array_equal(window.v, v_ref)

    def test_the_solve_overwrites_its_argument(self):
        # The step keeps no copy of the solution: a solve that returned a
        # new array would leave the fields where they were.
        rc = np.repeat([0.5, 2.0], 5)
        ends = [0, 4, 5, 9]
        rc[ends] = 0.0
        rhs = np.linspace(0.0, 1.0, 10)
        b = rhs.copy()
        x = pde.solve_banded(pde._factor_diffusion(rc), rhs)
        assert x is rhs
        off = np.minimum(rc[:-1], rc[1:])
        matrix = np.diag(1.0 + 2.0 * rc) - np.diag(off, 1) - np.diag(off, -1)
        assert np.allclose(matrix @ x, b, rtol=0.0, atol=1e-14)
        assert np.array_equal(x[ends], b[ends])  # identity rows

    def test_stiff_anchor_message(self):
        with pytest.raises(SimulationError) as info:
            estimate_speed(validate(0.02, 60, 3, 3))
        assert str(info.value) == "instability: v in [0, 1.202] at t=0.02"

    def test_one_solve_and_one_reaction_pair_per_step(self, monkeypatch):
        # Tools that time the step rebind these names; each must see every
        # step taken, and the reaction pair also every mass-balance sample:
        # at t = 0 and every SAMPLE_DT = 10 steps.
        counts = {}
        for name in ("solve_banded", "reaction_f", "reaction_g"):
            def counted(*args, _fn=getattr(pde, name), _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(pde, name, counted)
        cfg = coarse_config(t_end=6.0)
        est = estimate_speed(validate(7, 1, 1.8, 2), cfg)
        steps = round(est.front_trace[-1, 0] / cfg.dt)
        assert steps == cfg.n_steps == 120
        assert counts == {"solve_banded": steps, "reaction_f": steps + 1 + steps // 10,
                          "reaction_g": steps + 1 + steps // 10}

    def test_estimate_records_the_frames_of_the_march(self):
        # The frames are the marched states, recentred as the shifts say,
        # every 3 steps up to the stop, then the state at the stop; each
        # frame's x is in the lab frame.
        params = validate(7, 1, 1.8, 2)
        cfg = coarse_config(t_end=30.0)
        frames = []
        est = estimate_speed(params, cfg, frames=frames)
        every_step = _march_states(params, cfg, step_profile(cfg.grid), 1, est.shifts)
        stop = round(est.front_trace[-1, 0] / cfg.dt)
        assert est.converged and est.shifts and stop == 550 < cfg.n_steps
        expected = every_step[:stop:3] + [every_step[stop]]
        assert len(frames) == len(expected) == 185
        for (t, x, u, v), (t_ref, u_ref, v_ref) in zip(frames, expected):
            lab = cfg.grid.xs() + _offset_at(est.shifts, t) * cfg.grid.dx
            assert t == t_ref and np.array_equal(x, lab)
            assert np.array_equal(u, u_ref) and np.array_equal(v, v_ref)
        assert np.array_equal(est.front_trace, estimate_speed(params, cfg).front_trace)


class TestTrajectoryDump:
    def test_rows_written(self, tmp_path):
        # 20 steps, each one a frame, written as the marched states are.
        params = validate(1, 1, 2, 2)
        cfg = coarse_config(L=5.0, dx=0.5, t_end=1.0)
        frames = []
        est = estimate_speed(params, cfg, frames=frames)
        path = tmp_path / "traj.csv"
        dump_trajectory(frames, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,u,v"
        assert len(frames) == 21 and len(lines) == 1 + 21 * cfg.grid.n_points
        rows = np.loadtxt(path, delimiter=",", skiprows=1).reshape(21, cfg.grid.n_points, 4)
        assert est.shifts
        states = _march_states(params, cfg, step_profile(cfg.grid), 1, est.shifts)
        for (t, u, v), frame in zip(states, rows):
            x = cfg.grid.xs() + _offset_at(est.shifts, t) * cfg.grid.dx
            assert np.allclose(frame, np.column_stack([np.full_like(u, t), x, u, v]),
                               rtol=1e-11, atol=1e-12)
