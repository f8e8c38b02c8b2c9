"""Command-line front end: classify, speed, certify, scan.

Exit codes
    classify: 0 Negative, 1 Positive, 2 Inconclusive
    speed:    0 measured, 3 not converged
    certify:  0 certified, 4 no candidate found, 5 residuals not certified
              (also with --export when the profile fails its quadrature,
              as for p above about 5e143)
    scan:     0 on success
    64 invalid parameters or usage, 74 config read or output write failure

All floating output uses 12 significant digits so reruns are reproducible
byte for byte.  Configuration precedence: flags > config file > defaults;
scan's output directory additionally honors the WAVESPEED_OUT environment
variable (flags > WAVESPEED_OUT > config file > current directory).

``main(argv)`` may be called repeatedly in one process.  It builds its
parser on the first call and never changes it: config values are parsed as
the flags they name, so no setting carries over to the next call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .model import CompetitionParams, ParameterError, check_positive, validate
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
config file: one "key = value" per line; '#' starts a comment.  Every long
option of the chosen command but --help and --config is a key, its name
with underscores for dashes ("t_end = 200", "output_dir = out").  Keys of
another command's options are ignored, so one file can serve all four; a
key that is no command's option exits 64.  A value is read exactly as the
flag it names ("nx = 121" as --nx=121), and a switch is on for
1/true/yes/on, off otherwise.  A file that is not valid UTF-8 exits 64.
Precedence: command-line flags > config file > defaults.
Directory for scan's CSV and SVG: --output-dir > WAVESPEED_OUT environment
variable > config file > current directory.
"""

_TRUE = ("1", "true", "yes", "on")
# Options of `speed` that are keywords of pde.default_config, with their help.
_PDE_SETTINGS = {
    "L": "starting half-length of the co-moving window, which grows to hold the front's tails",
    "dx": "grid spacing",
    "dt": "time step",
    "t_end": "cap on the run's length",
}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class _Parser(argparse.ArgumentParser):
    # Exit code 2 belongs to an Inconclusive verdict, so usage errors
    # leave through 64 instead of argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from None


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The parser and its subparsers by command name.  An option whose default
    the library holds defaults to None or SUPPRESS (absent unless given)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="flat key = value config file")
    common.add_argument("--output-dir", default=argparse.SUPPRESS,
                        help="directory for scan's CSV and SVG")
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
    for key, text in _PDE_SETTINGS.items():
        p_speed.add_argument("--" + key.replace("_", "-"), type=float,
                             default=argparse.SUPPRESS, help=text)
    p_speed.add_argument("--dump-trajectory", metavar="PATH",
                         help="write sampled (t,x,u,v) rows (large output)")

    p_certify = add_parser("certify", help="build and certify a blocking profile")
    add_params(p_certify)
    p_certify.add_argument("--p", type=float, help="profile exponent")
    p_certify.add_argument("--a", type=float, help="spatial scaling")
    p_certify.add_argument("--degenerate", action="store_true",
                           help="use the piecewise small-d family")
    p_certify.add_argument("--delta", type=float,
                           help="offset for the piecewise family")
    p_certify.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                           help="certification tolerance")
    p_certify.add_argument("--export", metavar="PREFIX",
                           help="write profile tables next to PREFIX")

    p_scan = add_parser("scan", help="sweep a parameter plane, emit CSV and SVG")
    p_scan.add_argument("--plane", choices=("sym", "k1d"), help="plane to sweep (default: sym)")
    p_scan.add_argument("--xrange", type=_parse_range, metavar="LO:HI")
    p_scan.add_argument("--yrange", type=_parse_range, metavar="LO:HI")
    p_scan.add_argument("--nx", type=int)
    p_scan.add_argument("--ny", type=int)
    p_scan.add_argument("--log", action="store_const", const=True,
                        help="log scale on both axes (default: the plane's)")
    p_scan.add_argument("--with-pde", action="store_true",
                        help="run the speed oracle on a strided subsample, one forked worker per "
                             "CPU of the affinity mask (on macOS, of the machine), each given the "
                             "next point as it finishes one (same output; taskset -c 0: no fork)")
    p_scan.add_argument("--k2", type=float)
    p_scan.add_argument("--r", type=float)
    p_scan.add_argument("--out-prefix", help="stem of the CSV and SVG names (default: scan)")
    return parser, sub.choices


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ParameterError(f"config file {path!r} is not valid UTF-8") from None
    values: dict[str, str] = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"bad config line: {raw.rstrip()!r}")
        key, val = line.split("=", 1)
        values[key.strip()] = val.strip()
    return values


@functools.cache
def _shared_parser() -> tuple[_Parser, dict[str, dict[str, argparse.Action]]]:
    """The parser of ``_build_parser()``, built on the first call and never
    changed (building takes over a millisecond, about ten times a certify
    run), and each command's config keys: the dests of its long options but
    ``help`` and ``config``, with their actions."""
    parser, commands = _build_parser()
    # argparse lists a parser's actions nowhere public.
    return parser, {name: {action.dest: action for action in command._actions
                           if action.option_strings and action.dest not in ("help", "config")}
                    for name, command in commands.items()}


def _print_parameters(params: CompetitionParams) -> None:
    print(f"parameters: d={_fmt(params.d)} r={_fmt(params.r)} "
          f"k1={_fmt(params.k1)} k2={_fmt(params.k2)}")


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


def cmd_classify(args) -> int:
    params = validate(args.d, args.r, args.k1, args.k2)
    verdict = theory.classify(params)
    _print_parameters(params)
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


def cmd_speed(args) -> int:
    params = validate(args.d, args.r, args.k1, args.k2)
    sim_config = pde.default_config(
        **{key: getattr(args, key) for key in _PDE_SETTINGS if key in args}
    )
    # Without a dump the call keeps its two-argument form, the one that
    # wrappers of estimate_speed (bench/workloads.py) accept.  The dump is
    # written before anything is printed, so a failed write prints no result.
    if args.dump_trajectory:
        frames = []
        estimate = pde.estimate_speed(params, sim_config, frames=frames)
        pde.dump_trajectory(frames, args.dump_trajectory)
    else:
        estimate = pde.estimate_speed(params, sim_config)
    verdict = theory.classify(params)
    _print_parameters(params)
    print(f"c_hat = {_fmt(estimate.c_hat)} +/- {_fmt(estimate.stderr)}")
    print(f"converged: {'yes' if estimate.converged else 'no'}")
    if not estimate.converged:
        print(f"not converged: {estimate.reason}", file=sys.stderr)
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
        print(f"trajectory written to {args.dump_trajectory}")
    if not estimate.converged:
        return EXIT_NOT_CONVERGED
    return 0


def _print_report(report: supersol.ResidualReport) -> None:
    rests = report.from_one or (None, None)
    for name, value, at, rest in (("I", report.max_I, report.at_max_I, rests[0]),
                                  ("J", report.max_J, report.at_max_J, rests[1])):
        # Near s = 1 only 1 - s has digits to show.
        near_one = rest is not None and at > 0.5
        where = f"1 - s = {_fmt(rest)}" if near_one else f"{report.coordinate} = {_fmt(at)}"
        print(f"max {name} = {_fmt(value)} at {where}")
    if report.jump_phi is not None:
        print(f"phi' jump at 0 = {_fmt(report.jump_phi)}")
        print(f"psi' jump at 0 = {_fmt(report.jump_psi)}")
    print(f"certified: {'yes' if report.certified else 'no'} "
          f"(tolerance {_fmt(report.tol)})")


def cmd_certify(args) -> int:
    params = validate(args.d, args.r, args.k1, args.k2)
    if args.degenerate and not (args.p is None and args.a is None and args.export is None):
        raise ParameterError("--p, --a and --export do not apply with --degenerate")
    if args.delta is not None and not args.degenerate:
        raise ParameterError("--delta applies only with --degenerate")
    if (args.p is None) != (args.a is None):
        raise ParameterError("--p and --a must be given together")
    given = {"tol": args.tol} if "tol" in args else {}
    check_positive(**given)

    if args.degenerate:
        ds = supersol.degenerate_build(params, args.delta)
        print(f"piecewise profile: delta={_fmt(ds.delta)} gamma={_fmt(ds.gamma_)} "
              f"beta={_fmt(ds.beta_)} xi={_fmt(ds.xi)} eta={_fmt(ds.eta)}")
        print(f"matching level m0 = {_fmt(ds.m0)}, minimizer fraction m* = {_fmt(ds.m_star)}")
        report = supersol.degenerate_residuals(ds, params, **given)
        _print_report(report)
        return 0 if report.certified else EXIT_NOT_CERTIFIED

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
    report = supersol.residuals_IJ(cand, params, **given)
    try:
        profile = supersol.sigma_profile(cand.p) if args.export else None
    except supersol.ProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CERTIFIED
    if profile is not None:  # before the report, so a failed write prints none
        supersol.save_tables(cand, profile, args.export)
    conds = supersol.admissibility_conditions(cand, params)
    print(f"candidate: p = {_fmt(cand.p)}, a = {_fmt(cand.a)} "
          f"(a^2 = {_fmt(cand.a * cand.a)})")
    print("conditions (a)(b)(c)(d): " + " ".join(str(c) for c in conds))
    _print_report(report)
    if profile is not None:
        print(f"profile tables written to {args.export}_phi.txt / _psi.txt")
    return 0 if report.certified else EXIT_NOT_CERTIFIED


def cmd_scan(args) -> int:
    scale = None if args.log is None else ("log" if args.log else "linear")
    spec = scan_mod.plane_spec(
        args.plane or "sym",
        x_range=args.xrange,
        y_range=args.yrange,
        nx=args.nx,
        ny=args.ny,
        x_scale=scale,
        y_scale=scale,
        with_pde=args.with_pde,
        k2=args.k2,
        r=args.r,
    )
    plane = scan_mod.scan_plane(spec)

    out_dir = Path(getattr(args, "output_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = "scan" if args.out_prefix is None else args.out_prefix
    csv_path = out_dir / f"{prefix}.csv"
    svg_path = out_dir / f"{prefix}.svg"
    try:
        scan_mod.emit_csv(plane, csv_path)
        scan_mod.emit_svg(plane, svg_path)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {csv_path} ({len(plane)} samples) and {svg_path}")
    print("cells fired per criterion:")
    for key, count in scan_mod.mask_counts(plane).items():
        print(f"  {key}: {count}")
    return 0


def main(argv=None) -> int:
    parser, keys = _shared_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        values = _load_config(args.config) if "config" in args else {}
        for key in values:
            if not any(key in command_keys for command_keys in keys.values()):
                parser.error(f"unknown config key {key!r}")
        out_dir = os.environ.get("WAVESPEED_OUT") or values.get("output_dir")
        # Each value becomes the flag it names unless a flag set that option (to
        # anything but None, or False for a switch).  Keys of another command's
        # options are ignored, and so is the output directory, set below.
        flags, off = [], []
        for key, text in values.items():
            action, given = keys[args.command].get(key), getattr(args, key, None)
            if action is None or key == "output_dir" or given is not None and given is not False:
                continue
            if action.nargs != 0:
                flags.append(f"{action.option_strings[0]}={text}")
            elif text.lower() in _TRUE:
                flags.append(action.option_strings[0])
            else:
                off.append(key)
        if flags:
            # Before a bare "--", after which every word is positional.
            cut = argv.index("--") if "--" in argv else len(argv)
            args = parser.parse_args(argv[:cut] + flags + argv[cut:])
        for key in off:
            setattr(args, key, False)
        if args.command == "scan" and out_dir and "output_dir" not in args:
            args.output_dir = out_dir  # the flag, before or after the command, beats both
        handler = {
            "classify": cmd_classify,
            "speed": cmd_speed,
            "certify": cmd_certify,
            "scan": cmd_scan,
        }[args.command]
        return handler(args)
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
