import dataclasses
import hashlib
import importlib
import os
import re
import types
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavespeed
from wavespeed import cli, scan
from wavespeed.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_negative_exit_zero(self, capsys):
        code, out, _ = run(capsys, "classify", "11", "1", "3", "3")
        assert code == 0
        assert "verdict: Negative" in out
        assert "S1" in out and "N1" in out
        assert "k* bracket" in out

    def test_positive_exit_one(self, capsys):
        code, out, _ = run(capsys, "classify", str(1 / 11), "1", "3", "3")
        assert code == 1
        assert "verdict: Positive" in out
        assert "(reflected)" in out

    def test_inconclusive_exit_two(self, capsys):
        code, out, _ = run(capsys, "classify", "1", "1", "2", "2")
        assert code == 2
        assert "verdict: Inconclusive" in out
        assert "fired: none" in out

    def test_invalid_params_exit_64(self, capsys):
        code, _, err = run(capsys, "classify", "1", "1", "1", "2")
        assert code == 64
        assert "strong competition" in err

    def test_usage_error_exit_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "1", "1", "2"])
        err = capsys.readouterr().err
        assert exc.value.code == 64
        assert "wavespeed classify: error: the following arguments are required: k2" in err

    def test_config_not_utf8_exit_64(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"nx = 5\n\xff\xfe\n")
        code, out, err = run(capsys, "--config", str(cfg), "classify", "11", "1", "3", "3")
        assert code == 64
        assert out == ""
        assert err == f"error: config file {str(cfg)!r} is not valid UTF-8\n"

    @pytest.mark.parametrize("content, code, message", [
        ("nx 5\n", 64, "bad config line: 'nx 5'"),
        (None, 74, "[Errno 2] No such file or directory: {path!r}"),
    ], ids=["line-without-equals", "missing-file"])
    def test_config_file_faults(self, capsys, tmp_path, content, code, message):
        cfg = tmp_path / "scan.cfg"
        if content is not None:
            cfg.write_text(content)
        assert run(capsys, "--config", str(cfg), "classify", "11", "1", "3", "3") == (
            code, "", f"error: {message.format(path=str(cfg))}\n")

    def test_seed_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "11", "1", "3", "3", "--seed", "1"])
        capsys.readouterr()
        assert exc.value.code == 64


class TestSpeed:
    def test_reports_speed_and_verdict(self, capsys):
        code, out, _ = run(
            capsys, "speed", "7", "1", "1.8", "2",
            "--L", "40", "--dx", "0.2", "--dt", "0.05", "--t-end", "60",
        )
        assert code == 0
        assert "c_hat = -" in out
        assert "theory verdict: Negative" in out
        assert "agreement" in out

    def test_nonconvergence_exit_three(self, capsys, monkeypatch):
        # A fast front in a short box, held at its starting length, trips
        # the boundary-margin check.
        monkeypatch.setattr(cli.pde, "GROW_LIMIT", 1.0)
        code, out, _ = run(
            capsys, "speed", "5", "1", "5", "2",
            "--L", "10", "--dx", "0.2", "--dt", "0.05", "--t-end", "60",
        )
        assert code == 3
        assert "converged: no" in out

    def test_the_cap_leaves_a_stopped_run_alone(self, capsys):
        # The run stops at t = 19.5 under every cap; the front is tracked
        # after every step, so the cap cannot move a recentre.
        lines = set()
        for t_end in ("60", "100", "200", "400"):
            code, out, _ = run(capsys, "speed", "11", "1", "3", "3", "--t-end", t_end)
            assert code == 0
            lines.add(next(line for line in out.splitlines() if line.startswith("c_hat")))
        assert lines == {"c_hat = -0.461520669475 +/- 9.24259123009e-06"}

    def test_trajectory_dump(self, capsys, tmp_path):
        # c_u still drifts at t = 5, so the run ends at the cap unconverged.
        path = tmp_path / "traj.csv"
        code, out, err = run(
            capsys, "speed", "1", "1", "2", "2",
            "--L", "10", "--dx", "0.5", "--dt", "0.1", "--t-end", "5",
            "--dump-trajectory", str(path),
        )
        assert code == 3 and err == "not converged: not_relaxed\n"
        assert path.exists()
        assert path.read_text().startswith("t,x,u,v")

    def test_trajectory_dump_runs_the_pde_once(self, capsys, tmp_path, monkeypatch):
        solves = []
        solve = cli.pde.solve_banded
        monkeypatch.setattr(cli.pde, "solve_banded",
                            lambda *args: solves.append(1) or solve(*args))
        code, _, _ = run(
            capsys, "speed", "1", "1", "2", "2",
            "--L", "10", "--dx", "0.5", "--dt", "0.1", "--t-end", "5",
            "--dump-trajectory", str(tmp_path / "traj.csv"),
        )
        assert code == 3
        assert len(solves) == 50

    def test_reason_goes_to_stderr(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.pde, "GROW_LIMIT", 1.0)
        code, out, err = run(
            capsys, "speed", "5", "1", "5", "2",
            "--L", "10", "--dx", "0.2", "--dt", "0.05", "--t-end", "60",
        )
        assert code == 3
        assert err == "not converged: truncation\n"
        assert "truncation" not in out

    def test_trajectory_dump_is_in_the_lab_frame_across_shifts(self, capsys, tmp_path,
                                                                monkeypatch):
        estimates = []
        estimate_speed = cli.pde.estimate_speed

        def kept(*args, **kwargs):
            estimates.append(estimate_speed(*args, **kwargs))
            return estimates[-1]

        monkeypatch.setattr(cli.pde, "estimate_speed", kept)
        path = tmp_path / "traj.csv"
        run(capsys, "speed", "7", "1", "1.8", "2",
            "--L", "10", "--dx", "0.2", "--dt", "0.05", "--t-end", "60",
            "--dump-trajectory", str(path))
        (est,) = estimates
        assert est.shifts
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        last = rows[rows[:, 0] == rows[-1, 0]]
        crossing = cli.pde.front_position(last[:, 1], last[:, 2], 0.5)
        assert crossing == pytest.approx(est.front_trace[-1, 1], abs=1e-9)

    def test_config_settings_reach_the_pde(self, capsys, tmp_path, monkeypatch):
        seen = []

        def fake_estimate(params, config):
            seen.append(config)
            return cli.pde.SpeedEstimate(-0.1, 0.001, np.empty((0, 2)))

        monkeypatch.setattr(cli.pde, "estimate_speed", fake_estimate)
        cfg = tmp_path / "speed.cfg"
        cfg.write_text("L = 60\nt_end = 120\n")
        code, out, _ = run(capsys, "speed", "7", "1", "1.8", "2", "--config", str(cfg))
        assert code == 0
        (config,) = seen
        library = cli.pde.default_config()
        assert config.grid.half_length == 60.0
        assert config.t_end == 120.0
        assert config.dt == library.dt

    def test_sign_contradicting_the_verdict_is_a_disagreement(self, capsys, monkeypatch):
        def fake_estimate(params, config):
            return cli.pde.SpeedEstimate(0.5, 0.001, np.empty((0, 2)))

        monkeypatch.setattr(cli.pde, "estimate_speed", fake_estimate)
        code, out, _ = run(capsys, "speed", "11", "1", "3", "3")
        assert code == 0
        assert "theory verdict: Negative" in out
        assert "DISAGREEMENT: measured sign contradicts the theory verdict" in out


class TestCertify:
    def test_certifies_blocking_point(self, capsys):
        code, out, _ = run(capsys, "certify", "11", "1", "3", "3")
        assert code == 0
        assert "certified: yes" in out
        assert "candidate: p = 2.77200187" in out

    def test_no_candidate_hints_reflection(self, capsys):
        code, out, _ = run(capsys, "certify", "1", "1", "1.1", "5")
        assert code == 4
        assert "no admissible" in out
        assert "reflected parameters" in out

    def test_degenerate_path(self, capsys):
        code, out, _ = run(capsys, "certify", "--degenerate", "0.05", "1", "8", "2")
        assert code == 0
        assert "certified: yes" in out
        assert "phi' jump" in out

    def test_degenerate_fails_above_bound(self, capsys):
        code, out, _ = run(capsys, "certify", "--degenerate", "0.1", "1", "8", "2")
        assert code == 5
        assert "certified: no" in out

    @pytest.mark.parametrize("point", [
        ["0.0048", "1", "180", "6"],  # H* = 0.00479527
        ["0.0006065", "1", "6400", "8"],  # 1% above H*
    ], ids=["k1-180", "k1-6400"])
    def test_degenerate_fails_just_above_bound(self, capsys, point):
        # J > 0 only within about 0.01 of x = 0.
        code, out, _ = run(capsys, "certify", "--degenerate", *point)
        assert code == 5
        assert "certified: no" in out

    def test_quadrature_failure_is_not_certified(self, capsys, tmp_path, monkeypatch):
        # A negative tolerance makes sigma_profile fail its check on every row.
        # Only --export builds the profile; the verdict needs none.
        monkeypatch.setattr(cli.supersol, "_QUAD_TOL", -1.0)
        point = ["certify", "5", "1", "1.1", "1.02"]
        code, out, err = run(capsys, *point, "--export", str(tmp_path / "prof"))
        assert code == 5
        assert out == ""
        assert err.startswith("error: profile quadrature failed: position quadrature error")
        assert list(tmp_path.iterdir()) == []
        code, out, err = run(capsys, *point)
        assert code == 0
        assert "candidate: p = 1.1," in out and "certified: yes" in out
        assert err == ""

    def test_export_near_p_one(self, capsys, tmp_path):
        # p = k1 = 1.1, where G cancels near s = 1 unless formed in 1 - s.
        prefix = tmp_path / "P"
        code, out, err = run(capsys, "certify", "5", "1", "1.1", "1.02", "--export", str(prefix))
        assert code == 0
        assert "certified: yes" in out and err == ""
        for name in ("P_phi.txt", "P_psi.txt"):
            assert len((tmp_path / name).read_text().splitlines()) == 6503

    def test_peak_next_to_one_keeps_its_digits(self, capsys):
        # The peak of q sits at u = -p log s = 49.098, where s rounds to 1.
        code, out, _ = run(capsys, "certify", "10", "1", "11", "3", "--p", "1e20", "--a", "1")
        assert code == 5
        assert "max I = 0.428571428571 at 1 - s = 4.90982269221e-19\n" in out

    @pytest.mark.parametrize("p", ["2e5", "1e308"])
    def test_unresolvable_p_is_not_certified(self, capsys, p):
        # A large p gets a verdict from the closed forms; at 1e308 the
        # coefficients of q overflow and the candidate is refused.
        code, out, err = run(capsys, "certify", "11", "1", "3", "3", "--p", p, "--a", "1")
        assert "nan" not in out + err
        if p == "2e5":
            assert code == 5
            assert "certified: no" in out and err == ""
        else:
            assert code == 64
            assert err.startswith("error: residual scale factors must be finite")
            assert err.count("\n") == 1 and out == ""

    @pytest.mark.parametrize("point, flags", [
        (["11", "1", "3", "3"], ["--p", "2", "--a", "100"]),
        (["11", "1", "60", "3"], ["--p", "50", "--a", "5"]),
    ], ids=["p2-a100", "p50-a5"])
    def test_accurate_table_passes_guard_at_any_scale(self, capsys, point, flags):
        # A large a reaches the residuals, which refuse the candidate.
        code, out, err = run(capsys, "certify", *point, *flags)
        assert code == 5
        assert "certified: no" in out
        assert err == ""

    @pytest.mark.parametrize("argv", [
        ["1", "1", "3", "2", "--p", "2", "--a", "1", "--tol", "nan"],
        ["--degenerate", "0.05", "1", "8", "2", "--tol", "-1"],
    ], ids=["smooth-nan", "degenerate-negative"])
    def test_tol_checked_before_output(self, capsys, argv):
        code, out, err = run(capsys, "certify", *argv)
        assert code == 64
        assert out == ""
        assert err == f"error: tol must be positive and finite, got {float(argv[-1])!r}\n"

    def test_explicit_candidate(self, capsys):
        code, out, _ = run(
            capsys, "certify", "11", "1", "3", "3",
            "--p", "2.7720018754307674", "--a", "0.5222329678670935",
        )
        assert code == 0

    def test_config_candidate(self, capsys, tmp_path):
        cfg = tmp_path / "certify.cfg"
        cfg.write_text("p = 2.5\na = 0.5\n")
        code, out, _ = run(capsys, "certify", "11", "1", "3", "3", "--config", str(cfg))
        assert "candidate: p = 2.5, a = 0.5 " in out
        assert code == 5

    def test_config_values_reach_a_command_with_a_bare_double_dash(self, capsys, tmp_path):
        cfg = tmp_path / "certify.cfg"
        cfg.write_text("tol = 0.001\n")
        code, out, _ = run(capsys, "--config", str(cfg), "certify", "--", "11", "1", "3", "3")
        assert code == 0
        assert out.endswith("(tolerance 0.001)\n")

    def test_config_delta(self, capsys, tmp_path):
        cfg = tmp_path / "certify.cfg"
        cfg.write_text("delta = 0.01\n")
        code, out, _ = run(
            capsys, "certify", "--degenerate", "0.05", "1", "8", "2", "--config", str(cfg)
        )
        assert "piecewise profile: delta=0.01 " in out
        assert code == 5

    def test_export_tables(self, capsys, tmp_path):
        prefix = tmp_path / "prof"
        code, out, _ = run(
            capsys, "certify", "11", "1", "3", "3", "--export", str(prefix)
        )
        assert code == 0
        assert (tmp_path / "prof_phi.txt").exists()
        assert (tmp_path / "prof_psi.txt").exists()

    def test_export_large_p(self, capsys, tmp_path):
        # The rows sit at fixed distances from 0 and 1, so any p gets tables
        # of the usual size, however wide the profile is.
        prefix = tmp_path / "P"
        code, out, err = run(capsys, "certify", "11", "1", "3", "3",
                             "--p", "3000", "--a", "0.001", "--export", str(prefix))
        assert code == 5
        assert "certified: no" in out and err == ""
        for name in ("P_phi.txt", "P_psi.txt"):
            assert len((tmp_path / name).read_text().splitlines()) == 6503

    @pytest.mark.parametrize("argv, message", [
        (["--degenerate", "--export", "prof", "0.05", "1", "8", "2"],
         "--p, --a and --export do not apply with --degenerate"),
        (["--delta", "0.1", "--export", "prof", "11", "1", "3", "3"],
         "--delta applies only with --degenerate"),
        (["--degenerate", "--p", "2", "--a", "1", "0.05", "1", "8", "2"],
         "--p, --a and --export do not apply with --degenerate"),
        (["--p", "2", "11", "1", "3", "3"], "--p and --a must be given together"),
    ], ids=["degenerate-export", "delta-without-degenerate", "degenerate-p-a", "p-without-a"])
    def test_flag_misuse_exit_64(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "certify", *argv)
        assert code == 64
        assert err == f"error: {message}\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []


class TestScan:
    @pytest.mark.parametrize("config, flags", [
        ("", ["--k2", "7"]),
        ("", ["--r", "40"]),
        ("k2 = 7\nr = 40\n", []),
    ], ids=["k2-flag", "r-flag", "config"])
    def test_sym_plane_rejects_k2_and_r(self, capsys, tmp_path, config, flags):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(config)
        code, out, err = run(capsys, "--config", str(cfg), "scan", "--plane", "sym",
                             "--nx", "5", "--ny", "5", *flags, "--output-dir", str(tmp_path))
        assert code == 64
        assert err == "error: k2 and r apply only to the k1d plane\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == [cfg]

    def test_writes_outputs_and_counts(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "scan", "--plane", "sym",
            "--xrange", "1:10", "--yrange", "1.000001:4",
            "--nx", "10", "--ny", "7",
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "scan.csv").exists()
        assert (tmp_path / "scan.svg").exists()
        assert "cells fired per criterion" in out
        assert "S1:" in out

    def test_rerun_byte_identical(self, capsys, tmp_path):
        args = [
            "scan", "--plane", "k1d", "--k2", "2", "--r", "1", "--log",
            "--xrange", "1.05:50", "--yrange", "0.001:100",
            "--nx", "12", "--ny", "9",
        ]
        run(capsys, *args, "--output-dir", str(tmp_path / "a"))
        run(capsys, *args, "--output-dir", str(tmp_path / "b"))
        assert (tmp_path / "a/scan.csv").read_bytes() == (tmp_path / "b/scan.csv").read_bytes()
        assert (tmp_path / "a/scan.svg").read_bytes() == (tmp_path / "b/scan.svg").read_bytes()

    def test_env_var_output_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("WAVESPEED_OUT", str(tmp_path / "env_out"))
        code, _, _ = run(
            capsys, "scan", "--plane", "sym",
            "--xrange", "1:4", "--yrange", "1.5:2.5", "--nx", "4", "--ny", "3",
        )
        assert code == 0
        assert (tmp_path / "env_out" / "scan.csv").exists()

    def test_config_file_defaults_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "# scan settings\n"
            "plane = sym\n"
            "xrange = 1:4\n"
            "yrange = 1.5:2.5\n"
            "nx = 5\n"
            "ny = 4\n"
            f"output_dir = {tmp_path / 'from_config'}\n"
        )
        code, _, _ = run(capsys, "--config", str(cfg), "scan", "--ny", "3")
        assert code == 0
        csv_path = tmp_path / "from_config" / "scan.csv"
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 1 + 5 * 3  # nx from config, ny from flag

    def test_config_log_false_gives_linear_axes(self, capsys, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("log = false\n")
        code, _, _ = run(
            capsys, "--config", str(cfg), "scan", "--plane", "k1d",
            "--nx", "5", "--ny", "3", "--output-dir", str(tmp_path),
        )
        assert code == 0
        rows = [line.split(",") for line in (tmp_path / "scan.csv").read_text().splitlines()[1:]]
        xs = sorted({float(row[0]) for row in rows})
        assert np.allclose(np.diff(xs), xs[1] - xs[0])

    def test_output_dir_precedence(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "xrange = 1:4\nyrange = 1.5:2.5\nnx = 4\nny = 3\n"
            f"output_dir = {tmp_path / 'from_config'}\n"
        )
        monkeypatch.setenv("WAVESPEED_OUT", str(tmp_path / "from_env"))
        assert run(capsys, "--config", str(cfg), "scan")[0] == 0
        assert (tmp_path / "from_env" / "scan.csv").exists()
        for argv in (
            ["--output-dir", str(tmp_path / "flag_first"), "--config", str(cfg), "scan"],
            ["--config", str(cfg), "scan", "--output-dir", str(tmp_path / "flag_last")],
        ):
            assert run(capsys, *argv)[0] == 0
        assert (tmp_path / "flag_first" / "scan.csv").exists()
        assert (tmp_path / "flag_last" / "scan.csv").exists()
        assert not (tmp_path / "from_config").exists()

    @pytest.mark.parametrize("config, flags, message", [
        ("nx = abc\n", [], "argument --nx: invalid int value: 'abc'"),
        ("", ["--xrange", "5"], "argument --xrange: expected LO:HI, got '5'"),
    ])
    def test_malformed_value_exit_64(self, capsys, tmp_path, config, flags, message):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(config)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "scan", *flags, "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert exc.value.code == 64
        assert f"wavespeed scan: error: {message}" in err
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("key", ["nxx", "t-end", "front_level", "fit_window",
                                     "help", "config"])
    def test_unknown_config_key_exit_64(self, capsys, tmp_path, key):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(f"{key} = 5\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "scan", "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert exc.value.code == 64
        assert f"wavespeed: error: unknown config key '{key}'" in err
        assert not (tmp_path / "scan.csv").exists()

    def test_unwritable_output_exit_74(self, capsys, tmp_path):
        # The prefix names a directory that does not exist under the output directory.
        code, out, err = run(capsys, "scan", "--nx", "3", "--ny", "2",
                             "--output-dir", str(tmp_path), "--out-prefix", "sub/x")
        assert (code, out) == (74, "")
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["speed", "7", "1", "1.8", "2", "--L", "20", "--dx", "0.2", "--dt", "0.05",
         "--dump-trajectory"],
        ["certify", "11", "1", "3", "3", "--export"],
    ], ids=["speed-dump", "certify-export"])
    def test_unwritable_file_prints_no_result_exit_74(self, capsys, tmp_path, argv):
        # The file is written before the result is printed, so a failed write prints none.
        code, out, err = run(capsys, *argv, str(tmp_path / "missing" / "out"))
        assert (code, out) == (74, "")
        assert err.startswith("error: [Errno 2] ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_reference_line_off_the_plane(self, capsys, tmp_path):
        # k2^2 overflows to inf; it falls off the plane, so no dashed line is drawn.
        code, _, err = run(capsys, "scan", "--plane", "k1d", "--k2", "1e300",
                           "--nx", "5", "--ny", "3", "--output-dir", str(tmp_path))
        assert code == 0 and err == ""
        assert (tmp_path / "scan.csv").exists()
        assert "<line" not in (tmp_path / "scan.svg").read_text()

    def test_flag_equal_to_its_default_beats_the_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("plane = k1d\n")
        argv = ["scan", "--plane", "sym", "--nx", "4", "--ny", "3", "--output-dir"]
        assert run(capsys, "--config", str(cfg), *argv, str(tmp_path / "config"))[0] == 0
        assert run(capsys, *argv, str(tmp_path / "plain"))[0] == 0
        for name in ("scan.csv", "scan.svg"):
            config, plain = (tmp_path / run_dir / name for run_dir in ("config", "plain"))
            assert config.read_bytes() == plain.read_bytes()

    def test_config_key_of_another_command_is_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("L = 60\nnx = 4\nny = 3\n")
        code, _, _ = run(capsys, "--config", str(cfg), "scan", "--output-dir", str(tmp_path))
        assert code == 0
        assert len((tmp_path / "scan.csv").read_text().splitlines()) == 1 + 4 * 3


# sha256 of the exit code and stdout of `wavespeed certify` on the smooth
# recipe at an N1 point (11,1,3,3) and an N2 point (12.2,1,1.9,2), the
# piecewise family at its default and at a given offset, and an explicit
# candidate that fails (d); then of the exported tables and of a small
# trajectory dump with the stdout of its `speed` run (numpy 2.4.6, x86-64).
CERTIFY_RUNS = [
    ["11", "1", "3", "3"],
    ["12.2", "1", "1.9", "2"],
    ["--degenerate", "0.05", "1", "8", "2"],
    ["--degenerate", "--delta", "0.1", "0.05", "1", "8", "2"],
    ["--p", "2", "--a", "1", "1", "1", "3", "2"],
]
CERTIFY_GOLDEN = "f62cc01d0fd43f14ce7d6eb74c870d23d065d755cedce953de89f0d52e7c9faf"
EXPORT_GOLDEN = "f2da7f4220f443e307b2014391b0ba678145abeefdfebf3ab757b7ca18bb780f"
DUMP_GOLDEN = "f12bcab595a19f98b5375dee6272bfb95711cf82f31b8751871354b0eeb65246"


class TestCertifyGoldenOutput:
    def test_certify_bytes(self, capsys):
        digest = hashlib.sha256()
        for argv in CERTIFY_RUNS:
            code = main(["certify", *argv])
            digest.update(f"exit {code}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == CERTIFY_GOLDEN

    def test_export_bytes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["certify", "11", "1", "3", "3", "--export", "prof"])
        digest = hashlib.sha256(f"exit {code}\n{capsys.readouterr().out}".encode())
        for name in ("prof_phi.txt", "prof_psi.txt"):
            digest.update((tmp_path / name).read_bytes())
        assert digest.hexdigest() == EXPORT_GOLDEN

    def test_trajectory_dump_bytes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["speed", "1", "1", "2", "2", "--L", "5", "--dx", "0.5", "--dt", "0.1",
                     "--t-end", "3", "--dump-trajectory", "traj.csv"])
        digest = hashlib.sha256(f"exit {code}\n{capsys.readouterr().out}".encode())
        digest.update((tmp_path / "traj.csv").read_bytes())
        assert digest.hexdigest() == DUMP_GOLDEN


_POINT = ["11", "1", "3", "3"]
_TINY_D = "d and its reciprocal must be positive and finite, got 1e-320"


class TestNonFiniteInputs:
    @pytest.mark.parametrize("argv, message", [
        (["speed", *_POINT, "--dx", "0"], "dx must be positive and finite, got 0.0"),
        (["speed", *_POINT, "--dt", "nan"], "dt must be positive and finite, got nan"),
        (["speed", *_POINT, "--L", "nan"], "L must be positive and finite, got nan"),
        (["speed", *_POINT, "--t-end", "inf"], "t_end must be positive and finite, got inf"),
        (["certify", *_POINT, "--p", "nan", "--a", "1"], "candidate requires finite p > 1"),
        (["certify", *_POINT, "--p", "inf", "--a", "1"], "candidate requires finite p > 1"),
        (["certify", *_POINT, "--p", "2", "--a", "nan"], "candidate requires finite p > 1"),
        (["certify", *_POINT, "--p", "2", "--a", "inf"], "candidate requires finite p > 1"),
        (["certify", *_POINT, "--tol", "nan"], "tol must be positive and finite, got nan"),
        (["certify", *_POINT, "--tol", "0"], "tol must be positive and finite, got 0.0"),
        (["certify", "--degenerate", "0.05", "1", "8", "2", "--tol", "inf"],
         "tol must be positive and finite, got inf"),
        (["scan", "--plane", "k1d", "--r", "0"], "r must be positive and finite, got 0.0"),
        (["scan", "--plane", "k1d", "--r", "-1"], "r must be positive and finite, got -1.0"),
        (["scan", "--plane", "k1d", "--r", "nan"], "r must be positive and finite, got nan"),
        (["scan", "--plane", "k1d", "--r", "inf"], "r must be positive and finite, got inf"),
        (["scan", "--plane", "k1d", "--k2", "nan"], "need finite k2 > 1 and pde_stride >= 1"),
        (["scan", "--plane", "k1d", "--k2", "inf"], "need finite k2 > 1 and pde_stride >= 1"),
        (["scan", "--plane", "k1d", "--xrange", "1.5:inf"],
         "ranges must be finite, positive and increasing"),
        (["certify", *_POINT, "--p", "2", "--a", "1e-200"], "candidate requires finite p > 1"),
        (["certify", *_POINT, "--p", "2", "--a", "1e300"], "candidate requires finite p > 1"),
        (["certify", "1e10", "1", "3", "3", "--p", "2", "--a", "1e150"],
         "residual scale factors must be finite, got (d/r) a^2 = inf"),
        (["certify", *_POINT, "--p", "1e10", "--a", "1e150"],
         "residual scale factors must be finite, got (d/r) a^2 = 1.1e+301, p a^2 = inf"),
        # The exchange of species inverts d; the grid is capped before it is built.
        (["classify", "1e-320", "1", "3", "3"], _TINY_D),
        (["certify", "1e-320", "1", "3", "3"], _TINY_D),
        (["speed", "1e-320", "1", "3", "3"], _TINY_D),
        (["scan", "--plane", "sym", "--xrange", "1e-320:1"], _TINY_D),
        (["classify", "1", "0", "3", "3"],
         "r and its reciprocal must be positive and finite, got 0.0"),
        (["speed", "1", "0", "3", "3"],
         "r and its reciprocal must be positive and finite, got 0.0"),
        (["certify", "1", "-0", "3", "3"],
         "r and its reciprocal must be positive and finite, got -0.0"),
        (["speed", *_POINT, "--dx", "1e-300"],
         "dx=1e-300 on [-40.0, 40.0] needs over 1000000 nodes"),
        (["speed", *_POINT, "--dt", "1e-310"], "need t_end / dt < 100000000, got inf"),
        (["speed", *_POINT, "--t-end", "1e300", "--dt", "1e-10"],
         "need t_end / dt < 100000000, got inf"),
        (["certify", *_POINT, "--p", "1e300", "--a", "1"],
         "residual scale factors must be finite, got (d/r) a^2 = 11.0, p a^2 = 1e+300, "
         "6 p^2 a^2 = inf"),
    ])
    def test_exit_64_with_message(self, capsys, tmp_path, argv, message):
        code, out, err = run(capsys, *argv, "--output-dir", str(tmp_path))
        assert code == 64
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "scan.csv").exists()


class TestRepeatedCalls:
    """``main`` reuses one parser across calls, and no call's settings reach the next."""

    def test_config_values_do_not_reach_the_next_call(self, capsys, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("nx = 5\n")
        argv = ["scan", "--plane", "sym", "--ny", "3", "--output-dir", str(tmp_path)]
        rows = []
        for config in (["--config", str(cfg)], []):
            assert run(capsys, *config, *argv)[0] == 0
            rows.append(len((tmp_path / "scan.csv").read_text().splitlines()))
        assert rows == [1 + 5 * 3, 1 + scan.plane_spec("sym").nx * 3]

    def test_config_tol_does_not_reach_the_next_call(self, capsys, tmp_path):
        cfg = tmp_path / "certify.cfg"
        cfg.write_text("tol = 0.001\n")
        assert run(capsys, "--config", str(cfg), "certify", *_POINT)[1].endswith(
            "(tolerance 0.001)\n")
        assert run(capsys, "certify", *_POINT)[1].endswith("(tolerance 1e-08)\n")

    def test_env_output_dir_does_not_reach_the_next_call(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["scan", "--plane", "sym", "--nx", "4", "--ny", "3"]
        monkeypatch.setenv("WAVESPEED_OUT", "env_out")
        assert run(capsys, *argv)[0] == 0
        monkeypatch.delenv("WAVESPEED_OUT")
        assert run(capsys, *argv)[0] == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["env_out", "scan.csv", "scan.svg"]
        assert sorted(p.name for p in (tmp_path / "env_out").iterdir()) == ["scan.csv", "scan.svg"]

    def test_parser_is_built_once(self, capsys, tmp_path, monkeypatch):
        builds = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
        monkeypatch.delenv("WAVESPEED_OUT", raising=False)
        cli._shared_parser.cache_clear()
        assert run(capsys, "classify", *_POINT)[0] == 0
        assert run(capsys, "certify", *_POINT)[0] == 0
        assert run(capsys, "scan", "--plane", "sym", "--nx", "4", "--ny", "3",
                   "--output-dir", str(tmp_path))[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["classify", "11"])
        assert exc.value.code == 64
        assert len(builds) == 1

    def test_values_of_other_commands_build_no_parser(self, capsys, tmp_path, monkeypatch):
        # Only scan reads the output directory, and nx is an option of scan alone.
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(f"nx = 4\noutput_dir = {tmp_path / 'from_config'}\n")
        builds = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
        monkeypatch.setenv("WAVESPEED_OUT", str(tmp_path / "from_env"))
        cli._shared_parser.cache_clear()
        for command in ("classify", "certify"):
            plain = run(capsys, command, *_POINT)
            assert run(capsys, "--config", str(cfg), command, *_POINT) == plain
        assert len(builds) == 1
        assert not any(tmp_path.glob("from_*"))


def test_cli_import_loads_no_solvers_or_process_pools():
    # Each of scipy.optimize and scipy.integrate adds about 0.2 s and 20 MB
    # to every command's start-up, so the CLI's modules import neither at
    # module level.  The process pool of pde.estimate_speeds (about 8 ms) is
    # imported only by a call that forks, and the parser is built by the
    # first call of main, not by the import.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    heavy = ["scipy.optimize", "scipy.integrate", "multiprocessing", "concurrent.futures.process"]
    probe = (f"import sys, wavespeed.cli; print(sorted(set({heavy!r}) & set(sys.modules)), "
             "wavespeed.cli._shared_parser.cache_info().misses)")
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[] 0\n"


def test_speed_flags_are_the_library_settings():
    # A SimConfig field that goes takes its flag with it, and a new one gets one.
    _, commands = cli._build_parser()
    flags = {action.dest for action in commands["speed"]._actions if action.option_strings}
    settings = {field.name for field in dataclasses.fields(cli.pde.SimConfig)} - {"grid"}
    assert flags - {"help", "config", "output_dir", "dump_trajectory"} == {"L", "dx"} | settings


def test_readme_imports_are_the_package_surface():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    imports = re.findall(r"^from (wavespeed[.\w]*) import (.+)$", readme, re.MULTILINE)
    top = {name for module, names in imports if module == "wavespeed"
           for name in names.split(", ")}
    public = {name for name, value in vars(wavespeed).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert top and public == top
    for module, names in imports:
        for name in names.split(", "):
            assert hasattr(importlib.import_module(module), name), (module, name)


def test_console_script_runs_classify(capsys, monkeypatch):
    # The installed `wavespeed` command is the [project.scripts] entry point.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["wavespeed"]
    module, _, name = target.partition(":")
    monkeypatch.setattr(sys, "argv", ["wavespeed", "classify", "11", "1", "3", "3"])
    with pytest.raises(SystemExit) as exc:
        getattr(importlib.import_module(module), name)()
    assert exc.value.code == 0
    assert "verdict: Negative" in capsys.readouterr().out
