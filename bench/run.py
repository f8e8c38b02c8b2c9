"""wavespeed benchmark: one closed-loop workload per run, every output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: plane-sweep, certify-batch, front-speed, oracle-scan (see
BENCHMARK.json for why each is there).  The program is imported from the
``src`` directory beside this one; the run reads and writes only inside that
checkout.

A run holds a fixed number of operations, as many as fill ``--seconds`` at
the workload's nominal pace, so the same seed gives the same operations and
the same failures on a fast or a slow host.  ``--trace 0`` measures with no
instrumentation and prints the end-to-end metrics; operation times are
scaled by the machine-speed probe of calibrate.py, timed on a wall-clock
timer throughout the run.  ``--trace 1`` runs each operation twice,
untraced then with spans around the calls between modules (see spans.py),
and prints the per-layer metrics per operation plus the tracing overhead.
The last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the workload's own
figures and the run environment.
"""

from __future__ import annotations

import os

# One BLAS thread: the workloads are single-caller and the figures steadier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
# A traced run times each operation untraced, then traced: about this many
# operations' worth of time per input.
TRACED_PAIR_COST = 2.5


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("plane-sweep", "certify-batch", "front-speed", "oracle-scan"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_program():
    """Import wavespeed from this checkout's src, or exit 2 without a result."""
    if not (SRC / "wavespeed" / "cli.py").is_file():
        print(f"error: no wavespeed sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import wavespeed
    from wavespeed import cli, model, pde, scan, supersol, theory

    if Path(wavespeed.__file__).resolve().parent != SRC / "wavespeed":
        print(f"error: imported wavespeed from {wavespeed.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return {"cli": cli, "model": model, "pde": pde, "scan": scan,
            "supersol": supersol, "theory": theory}


def _child_seconds(cmd: list[str]) -> float:
    """Wall time from starting ``cmd`` to the monotonic clock reading it prints.

    Reading the end in the child, not when ``subprocess`` notices the exit,
    keeps the 50 ms polling step of a wait with a timeout out of the figure.
    """
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(cmd, check=True, timeout=120, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return float(done.stdout.split()[-1]) - t0


def _setup_seconds(args) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing wavespeed.cli and generating
    inputs, each followed by one running ``calibrate.BASE_IMPORT``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    setup, base = [], []
    for _ in range(SETUP_PROBES):
        setup.append(_child_seconds(cmd))
        base.append(_child_seconds([sys.executable, "-c", calibrate.BASE_IMPORT]))
    return setup, base


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _environment(args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = "unknown"
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "process_threads": threads,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _count(workload, seconds: float, cost: float) -> int:
    """Operations in a run: as many as take ``seconds`` at the workload's nominal pace.

    The count depends on the arguments alone, so runs with the same seed
    attempt the same operations, whatever the host's speed at the time.
    """
    return max(1, int(seconds / (cost * workload.OP_S)))


def _fmt(name, value, unit) -> str:
    shown = "n/a" if value is None else f"{value:.6g}"
    return f"{name} = {shown} {unit}"


def main(argv=None) -> int:
    args = _args(argv)
    mods = _import_program()
    import numpy as np

    import spans
    import workloads
    from stats import median

    workload = workloads.WORKLOADS[args.workload]()
    ops = workload.prepare(np.random.default_rng(args.seed))
    if args.probe_setup:
        next(ops)
        print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        return 0
    setup, base = _setup_seconds(args)
    setup_s = median(setup) * calibrate.BASE_NOMINAL_S / median(base)

    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    probe = calibrate.Probe()
    ctx = workloads.Context(mods=mods, main=mods["cli"].main, tmp=tmp, clock=probe.clock)
    undo = workload.tap(ctx) if hasattr(workload, "tap") else []
    untraced, traced = [], []
    tracer = spans.Tracer()
    try:
        if args.trace == 0:
            probe.start()
            try:
                for op in islice(ops, _count(workload, args.seconds, 1.0)):
                    untraced.append(workload.run(op, ctx))
            finally:
                probe.stop()
        else:
            traced_ctx = workloads.Context(
                mods=mods, main=tracer.wrap("cli.main", mods["cli"].main), tmp=tmp)

            def pair(op):
                untraced.append(workload.run(op, ctx))
                patched = spans.install(tracer, mods)
                try:
                    traced.append(workload.run(op, traced_ctx))
                finally:
                    spans.uninstall(patched)

            for op in islice(ops, _count(workload, args.seconds, TRACED_PAIR_COST)):
                pair(op)
    finally:
        spans.uninstall(undo)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    outcomes = untraced + traced
    reasons = sum((o.reasons for o in outcomes), Counter())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("# environment " + json.dumps(_environment(args)))
    print("# failure reasons " + json.dumps(dict(reasons)))

    if args.trace == 0:
        latencies = [o.seconds for o in untraced if not o.crashed] or [o.seconds for o in untraced]
        op_mean_ms = 1e3 * sum(latencies) / len(latencies)
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_mean_scaled_ms": (op_mean_ms * probe.scale(), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        figures = {
            "setup_s": (setup_s, "s"),
            "setup_unscaled_s": (median(setup), "s"),
            "base_import_s": (median(base), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "op_mean_ms": (op_mean_ms, "ms"),
            "op_p50_ms": (1e3 * median(latencies), "ms"),
            "probe_mean_ms": (1e3 * sum(probe.samples) / len(probe.samples), "ms"),
            "probe_samples": (len(probe.samples), "count"),
            **workloads.common_report(untraced),
            **workload.report(untraced),
        }
        print(f"# {args.workload}: {len(untraced)} operations, "
              f"{sum(o.attempted for o in untraced)} attempted")
        for name, (value, unit) in figures.items():
            print(_fmt(name, value, unit))
    else:
        fails = sum((o.reasons for o in traced), Counter())
        values, absent = spans.layer_values(
            tracer, len(traced), fails,
            untraced_s=sum(o.seconds for o in untraced),
            traced_s=sum(o.seconds for o in traced),
        )
        metrics = {name: (value, spans.LAYER_METRICS[name][0]) for name, value in values.items()}
        print(f"# {args.workload}: {len(traced)} traced operations, per operation")
        if absent:
            print("# absent (a wrapped name no longer exists): " + ", ".join(absent))
        for name, (value, unit) in metrics.items():
            print(_fmt(name, value, unit))

    result = {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
