"""Machine-speed probe: a fixed computation that no wavespeed code runs.

On a shared host the speed of a core drifts by a fifth or more, in phases
from under a second to minutes (clock frequency, neighbours' cache and
memory traffic), and every timing of a run moves with it.  While a run
measures, a wall-clock timer interrupts the program every ``EVERY_S``
seconds and times ``BURST`` passes of the probe, so the probe sees the same
mix of fast and slow phases as the operations around it.  The end-to-end
times are scaled by ``NOMINAL_S / mean(probe)`` to read as if the host ran at
its reference speed, and the time spent in the probe is left out of them
(``Probe.clock``).

The probe mixes the kinds of work the package does: interpreted float
arithmetic and small objects formatted into CSV rows (``theory``, ``scan``,
the CLI), element-wise numpy on arrays of PDE-grid and profile size
(``model``, ``supersol``) and a tridiagonal banded solve (``pde``).  It
imports nothing from the package, so a change to the program cannot change
it.

Set-up time is scaled the same way by ``BASE_IMPORT``: a fresh interpreter
that imports only the libraries wavespeed builds on, started after each
set-up probe.
"""

from __future__ import annotations

import math
import signal
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from scipy.linalg import solve_banded

# Mean probe time on the reference host: a 2-core x86-64 KVM guest on a
# Xeon Sapphire Rapids, numpy with one OpenBLAS thread.
NOMINAL_S = 4.8e-3
EVERY_S = 0.25
BURST = 3
# A fresh interpreter importing numpy and scipy.linalg, and its median wall
# time on the reference host.
BASE_IMPORT = "import time, numpy, scipy.linalg; print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"
BASE_NOMINAL_S = 0.42

_N = 4001
_BANDS = np.vstack([np.full(_N, -1.0), np.full(_N, 3.0), np.full(_N, -1.0)])
_X0 = np.linspace(-1.0, 1.0, _N)
_S = np.linspace(0.0, 12.0, 20_000)


@dataclass(frozen=True)
class _Cell:
    x: float
    y: float
    flags: dict


_KEYS = tuple("abcdefgh")


def _kernel() -> float:
    acc = 0.0
    for i in range(1500):
        acc += math.exp(-1e-3 * i) * math.sin(0.5 * i)
    rows = []
    for i in range(300):
        x = 1.0 + 0.01 * i
        cell = _Cell(x, 2.0 * x, {k: (x * j) % 1.0 > 0.5 for j, k in enumerate(_KEYS, 1)})
        flags = ("1" if v else "0" for v in cell.flags.values())
        rows.append(",".join([f"{cell.x:.6g}", f"{cell.y:.6g}", *flags]))
    acc += len("\n".join(rows))
    x = _X0
    for _ in range(8):
        x = solve_banded((1, 1), _BANDS, x)
        x = np.tanh(x) * (1.0 - x * x) + 0.5 * np.sqrt(np.abs(x))
    for p in (1.5, 2.0, 3.0):
        profile = np.cumsum(np.exp(-(_S**p)) * np.diff(_S, prepend=0.0))
        acc += float(profile[-1])
    return acc + float(x.sum())


class Probe:
    """Probe samples taken on a wall-clock timer between ``start`` and ``stop``."""

    def __init__(self):
        _kernel()  # warm-up, untimed
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _fire(self, signum, frame) -> None:
        t_in = perf_counter()
        for _ in range(BURST):
            t0 = perf_counter()
            _kernel()
            self.samples.append(perf_counter() - t0)
        self.spent += perf_counter() - t_in

    def clock(self) -> float:
        """Wall time with the time spent in the probe taken out."""
        return perf_counter() - self.spent

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        if not self.samples:  # a run shorter than EVERY_S
            self._fire(None, None)

    def scale(self) -> float:
        """Factor that turns a time measured in this run into reference-host time."""
        return NOMINAL_S * len(self.samples) / sum(self.samples)
