"""Command-line front end: classify, speed, certify, scan.

Exit codes
    classify: 0 Negative, 1 Positive, 2 Inconclusive
    speed:    0 measured, 3 not converged
    certify:  0 certified, 4 no candidate found, 5 residuals not certified
    scan:     0 on success
    64 invalid parameters or usage, 74 output I/O failure

All floating output uses 12 significant digits so reruns are reproducible
byte for byte.  Configuration precedence: flags > config file > defaults;
the output directory additionally honors the WAVESPEED_OUT environment
variable (flags > WAVESPEED_OUT > config file > current directory).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .model import ParameterError, validate
from . import theory, supersol, pde, scan as scan_mod

EXIT_NEGATIVE = 0
EXIT_POSITIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_NOT_CONVERGED = 3
EXIT_NO_CANDIDATE = 4
EXIT_NOT_CERTIFIED = 5
EXIT_USAGE = 64
EXIT_IO = 74

_CONFIG_HELP = """\
config file: one "key = value" per line; keys are long option names with
dashes replaced by underscores (e.g. "t_end = 200", "nx = 121"); '#' starts
a comment.  Precedence: command-line flags > config file > defaults.
Output directory: --output-dir > WAVESPEED_OUT environment variable >
config file > current directory.
"""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class _Parser(argparse.ArgumentParser):
    # Exit code 2 belongs to an Inconclusive verdict, so usage errors
    # leave through 64 instead of argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="flat key = value config file")
    common.add_argument("--output-dir", default=argparse.SUPPRESS,
                        help="directory for emitted files")
    parser = _Parser(
        prog="wavespeed",
        description="Sign of the propagation speed of bistable competition fronts.",
        epilog=_CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    def add_params(p):
        p.add_argument("d", type=float)
        p.add_argument("r", type=float)
        p.add_argument("k1", type=float)
        p.add_argument("k2", type=float)

    p_classify = add_parser("classify", help="evaluate every sign criterion")
    add_params(p_classify)

    p_speed = add_parser("speed", help="measure the front speed from a PDE run")
    add_params(p_speed)
    p_speed.add_argument("--L", type=float, default=None, help="domain half-length")
    p_speed.add_argument("--dx", type=float, default=None)
    p_speed.add_argument("--dt", type=float, default=None)
    p_speed.add_argument("--t-end", type=float, default=None)
    p_speed.add_argument("--front-level", type=float, default=None)
    p_speed.add_argument("--fit-window", type=float, default=None)
    p_speed.add_argument("--dump-trajectory", default=None, metavar="PATH",
                         help="write sampled (t,x,u,v) rows (large output)")

    p_certify = add_parser("certify", help="build and certify a blocking profile")
    add_params(p_certify)
    p_certify.add_argument("--p", type=float, default=None, help="profile exponent")
    p_certify.add_argument("--a", type=float, default=None, help="spatial scaling")
    p_certify.add_argument("--degenerate", action="store_const", const=True,
                           default=None, help="use the piecewise small-d family")
    p_certify.add_argument("--delta", type=float, default=None,
                           help="offset for the piecewise family")
    p_certify.add_argument("--tol", type=float, default=None,
                           help="certification tolerance (default 1e-8)")
    p_certify.add_argument("--export", default=None, metavar="PREFIX",
                           help="write profile tables next to PREFIX")

    p_scan = add_parser("scan", help="sweep a parameter plane, emit CSV and SVG")
    p_scan.add_argument("--plane", choices=("sym", "k1d"), default=None)
    p_scan.add_argument("--xrange", default=None, metavar="LO:HI")
    p_scan.add_argument("--yrange", default=None, metavar="LO:HI")
    p_scan.add_argument("--nx", type=int, default=None)
    p_scan.add_argument("--ny", type=int, default=None)
    p_scan.add_argument("--log", action="store_const", const=True, default=None,
                        help="log scale on both axes")
    p_scan.add_argument("--with-pde", action="store_const", const=True, default=None,
                        help="run the speed oracle on a strided subsample")
    p_scan.add_argument("--k2", type=float, default=None)
    p_scan.add_argument("--r", type=float, default=None)
    p_scan.add_argument("--out-prefix", default=None)
    return parser


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"bad config line: {raw.rstrip()!r}")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def _setting(args, config: dict[str, str], key: str, default, cast=float):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        raw = config[key]
        if cast is bool:
            return raw.lower() in ("1", "true", "yes", "on")
        return cast(raw)
    return default


def _parse_range(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    return float(lo), float(hi)


def _output_dir(args, config: dict[str, str]) -> Path:
    explicit = getattr(args, "output_dir", None)
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get("WAVESPEED_OUT")
    if env:
        return Path(env)
    if "output_dir" in config:
        return Path(config["output_dir"])
    return Path(".")


def _verdict_lines(verdict: theory.SignVerdict) -> list[str]:
    labels = {row.id: row.label for row in theory.CRITERIA}
    names = []
    for cid in verdict.fired:
        label = labels[cid]
        if cid in verdict.fired_reflected:
            label += " (reflected)"
        names.append(label)
    lines = [f"verdict: {verdict.sign.value}"]
    lines.append("fired: " + (", ".join(names) if names else "none"))
    return lines


def cmd_classify(args, config) -> int:
    params = validate(args.d, args.r, args.k1, args.k2)
    verdict = theory.classify(params)
    print(f"parameters: d={_fmt(params.d)} r={_fmt(params.r)} "
          f"k1={_fmt(params.k1)} k2={_fmt(params.k2)}")
    for line in _verdict_lines(verdict):
        print(line)
    bounds = theory.kstar_bounds(params.d, params.r, params.k2)
    print(f"k* bracket at (d={_fmt(params.d)}, r={_fmt(params.r)}, "
          f"k2={_fmt(params.k2)}): "
          f"k_lower = {_fmt(bounds.k_lower)} (pos1), "
          f"k_upper = {_fmt(bounds.k_upper)} (neg3)")
    return {
        theory.Sign.NEGATIVE: EXIT_NEGATIVE,
        theory.Sign.POSITIVE: EXIT_POSITIVE,
        theory.Sign.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }[verdict.sign]


def cmd_speed(args, config) -> int:
    params = validate(args.d, args.r, args.k1, args.k2)
    sim_config = pde.default_config(
        L=_setting(args, config, "L", 200.0),
        dx=_setting(args, config, "dx", 0.1),
        dt=_setting(args, config, "dt", 0.02),
        t_end=_setting(args, config, "t_end", 400.0),
        front_level=_setting(args, config, "front_level", 0.5),
        fit_window=_setting(args, config, "fit_window", 0.5),
    )
    estimate = pde.estimate_speed(params, sim_config)
    verdict = theory.classify(params)
    print(f"parameters: d={_fmt(params.d)} r={_fmt(params.r)} "
          f"k1={_fmt(params.k1)} k2={_fmt(params.k2)}")
    print(f"c_hat = {_fmt(estimate.c_hat)} +/- {_fmt(estimate.stderr)}")
    print(f"converged: {'yes' if estimate.converged else 'no'}")
    for line in _verdict_lines(verdict):
        print("theory " + line)
    if verdict.sign is not theory.Sign.INCONCLUSIVE and estimate.converged:
        expected_negative = verdict.sign is theory.Sign.NEGATIVE
        decisive = abs(estimate.c_hat) > 2.0 * estimate.stderr + 0.02
        if decisive and (estimate.c_hat < 0.0) != expected_negative:
            print("DISAGREEMENT: measured sign contradicts the theory verdict")
        else:
            print("agreement: measured speed is consistent with the verdict")
    if args.dump_trajectory:
        frames = pde.simulate(params, sim_config, pde.step_profile(sim_config.grid))
        pde.dump_trajectory(frames, sim_config.grid, args.dump_trajectory)
        print(f"trajectory written to {args.dump_trajectory}")
    if not estimate.converged:
        return EXIT_NOT_CONVERGED
    return 0


def _print_report(report: supersol.ResidualReport) -> None:
    print(f"max I = {_fmt(report.max_I)} at x = {_fmt(report.x_at_max_I)}")
    print(f"max J = {_fmt(report.max_J)} at x = {_fmt(report.x_at_max_J)}")
    if report.jump_phi is not None:
        print(f"phi' jump at 0 = {_fmt(report.jump_phi)}")
        print(f"psi' jump at 0 = {_fmt(report.jump_psi)}")
    print(f"certified: {'yes' if report.certified else 'no'} "
          f"(tolerance {_fmt(report.tol)})")


def cmd_certify(args, config) -> int:
    params = validate(args.d, args.r, args.k1, args.k2)
    tol = _setting(args, config, "tol", 1e-8)
    degenerate = bool(_setting(args, config, "degenerate", False, cast=bool))

    if degenerate:
        ds = supersol.degenerate_build(params, args.delta)
        print(f"piecewise profile: delta={_fmt(ds.delta)} gamma={_fmt(ds.gamma_)} "
              f"beta={_fmt(ds.beta_)} xi={_fmt(ds.xi)} eta={_fmt(ds.eta)}")
        print(f"matching level m0 = {_fmt(ds.m0)}, minimizer fraction m* = {_fmt(ds.m_star)}")
        report = supersol.degenerate_residuals(ds, params, tol=tol)
        _print_report(report)
        return 0 if report.certified else EXIT_NOT_CERTIFIED

    if (args.p is None) != (args.a is None):
        print("error: --p and --a must be given together", file=sys.stderr)
        return EXIT_USAGE
    if args.p is not None:
        cand = supersol.SupersolCandidate(p=args.p, a=args.a)
    else:
        cand = supersol.choose_p_a(params)
        if cand is None:
            print("no admissible (p, a) candidate at these parameters")
            verdict = theory.classify(params)
            if verdict.sign is theory.Sign.POSITIVE:
                rp = theory.reflect(params)
                print("the point lies in a certified positive-speed region; "
                      "try certifying the reflected parameters: "
                      f"certify {_fmt(rp.d)} {_fmt(rp.r)} {_fmt(rp.k1)} {_fmt(rp.k2)}")
            return EXIT_NO_CANDIDATE
    conds = supersol.admissibility_conditions(cand, params)
    print(f"candidate: p = {_fmt(cand.p)}, a = {_fmt(cand.a)} "
          f"(a^2 = {_fmt(cand.a * cand.a)})")
    print("conditions (a)(b)(c)(d): " + " ".join(str(c) for c in conds))
    profile = supersol.sigma_profile(cand.p)
    table = supersol.build_supersolution(cand, profile)
    report = supersol.residuals_IJ(table, params, tol=tol)
    _print_report(report)
    if args.export:
        table.save_tables(args.export)
        print(f"profile tables written to {args.export}_phi.txt / _psi.txt")
    return 0 if report.certified else EXIT_NOT_CERTIFIED


def cmd_scan(args, config) -> int:
    plane = _setting(args, config, "plane", "sym", cast=str)
    log = bool(_setting(args, config, "log", plane == "k1d", cast=bool))
    if plane == "sym":
        default_x, default_y = (1.0, 10.0), (1.0 + 1e-9, 4.0)
        default_nx, default_ny = 91, 31
    else:
        default_x, default_y = (1.02, 100.0), (1e-3, 1e3)
        default_nx, default_ny = 121, 61
    xrange = args.xrange or config.get("xrange")
    yrange = args.yrange or config.get("yrange")
    spec = scan_mod.ScanSpec(
        plane=plane,
        x_range=_parse_range(xrange) if xrange else default_x,
        y_range=_parse_range(yrange) if yrange else default_y,
        nx=int(_setting(args, config, "nx", default_nx, cast=int)),
        ny=int(_setting(args, config, "ny", default_ny, cast=int)),
        x_scale="log" if log else "linear",
        y_scale="log" if log else "linear",
        with_pde=bool(_setting(args, config, "with_pde", False, cast=bool)),
        k2=_setting(args, config, "k2", 2.0),
        r=_setting(args, config, "r", 1.0),
    )
    style = {"x_scale": spec.x_scale, "y_scale": spec.y_scale}
    if plane == "k1d":
        dataset = scan_mod.figure2_dataset(spec.k2, spec.r, spec)
        samples = dataset.samples
        style["reference_x"] = dataset.reference_k1
    else:
        samples = scan_mod.scan_plane(spec)

    out_dir = _output_dir(args, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = _setting(args, config, "out_prefix", "scan", cast=str)
    csv_path = out_dir / f"{prefix}.csv"
    svg_path = out_dir / f"{prefix}.svg"
    try:
        scan_mod.emit_csv(samples, csv_path)
        scan_mod.emit_svg(samples, svg_path, style)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {csv_path} ({len(samples)} samples) and {svg_path}")
    print("cells fired per criterion:")
    for key, count in scan_mod.mask_counts(samples).items():
        print(f"  {key}: {count}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = {}
    try:
        config_path = getattr(args, "config", None)
        if config_path:
            config = _load_config(config_path)
        handler = {
            "classify": cmd_classify,
            "speed": cmd_speed,
            "certify": cmd_certify,
            "scan": cmd_scan,
        }[args.command]
        return handler(args, config)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
