"""Parameter-plane sweeps with per-criterion masks and CSV/SVG emission.

Two planes are supported: the symmetric (d, k) plane (r = 1, k1 = k2 = k)
and the (k1, d/r) plane at fixed k2 and r.  Every grid cell records which
criteria fired, the combined verdict, and optionally a PDE speed estimate
on a strided subsample (the oracle costs 10-300 ms per point, the criteria
microseconds; ``pde.estimate_speeds`` runs the points across the CPUs,
with output identical to one process).  Output ordering is row-major
over (y, x) and fully deterministic, so reruns are byte-identical.

A sweep is columnar.  :func:`scan_plane` hands the whole grid to
``theory.evaluate_criteria`` once, as arrays that broadcast over (y, x),
and returns a :class:`Plane`: one bool array per criterion row, a sign code
per cell and the oracle estimates.  :func:`emit_csv`, :func:`emit_svg` and
:func:`mask_counts` write from those arrays, the files one row run at a
time.  ``theory.classify`` reads the same table through the same evaluator
at one point, so a cell's verdict is the verdict at its parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CompetitionParams, ParameterError, check_positive
from . import theory
from .theory import SignVerdict
from . import pde


_MAX_CELLS = 10_000_000  # a 1000 x 1000 sweep takes about 100 MB


@dataclass(frozen=True)
class ScanSpec:
    """Grid specification for a plane sweep.

    ``plane`` is "sym" (x = d, y = k) or "k1d" (x = k1, y = d/r at fixed k2
    and r).  Scales are "linear" or "log".  When ``with_pde`` is set, the
    oracle runs on cells whose indices are multiples of ``pde_stride``.
    """

    plane: str
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    nx: int
    ny: int
    x_scale: str = "linear"
    y_scale: str = "linear"
    with_pde: bool = False
    pde_stride: int = 10
    k2: float = 2.0
    r: float = 1.0
    pde_config: "pde.SimConfig | None" = None

    def __post_init__(self):
        if self.plane not in ("sym", "k1d"):
            raise ParameterError(f"unknown plane {self.plane!r}")
        if self.nx < 2 or self.ny < 2:
            raise ParameterError("nx and ny must be at least 2")
        if self.nx * self.ny > _MAX_CELLS:
            raise ParameterError(f"nx * ny = {self.nx * self.ny} exceeds {_MAX_CELLS} cells")
        for scale in (self.x_scale, self.y_scale):
            if scale not in ("linear", "log"):
                raise ParameterError(f"unknown scale {scale!r}")
        (xlo, xhi), (ylo, yhi) = self.x_range, self.y_range
        if not (0.0 < xlo < xhi < math.inf and 0.0 < ylo < yhi < math.inf):
            raise ParameterError("ranges must be finite, positive and increasing")
        check_positive(r=self.r)
        if not (1.0 < self.k2 < math.inf and self.pde_stride >= 1):
            raise ParameterError("need finite k2 > 1 and pde_stride >= 1")
        # Two corners hold the extreme d, d/r and k; once both pass, y r is finite.
        for x, y in zip(self.x_range, self.y_range):
            CompetitionParams(*_cell(self, x, y))

    def x_values(self) -> np.ndarray:
        return _axis(self.x_range, self.nx, self.x_scale)

    def y_values(self) -> np.ndarray:
        return _axis(self.y_range, self.ny, self.y_scale)


# The default grid of each plane, as ScanSpec fields.
PLANE_DEFAULTS = {
    "sym": {"x_range": (1.0, 10.0), "y_range": (1.0 + 1e-9, 4.0), "nx": 91, "ny": 31,
            "x_scale": "linear", "y_scale": "linear"},
    "k1d": {"x_range": (1.02, 100.0), "y_range": (1e-3, 1e3), "nx": 121, "ny": 61,
            "x_scale": "log", "y_scale": "log"},
}


def plane_spec(plane: str, **fields) -> ScanSpec:
    """A ScanSpec on ``plane``: fields not given, or given as None, take the
    plane's default grid from ``PLANE_DEFAULTS`` and then ScanSpec's defaults.
    The sym plane fixes k1 = k2 and r = 1, so it takes neither ``k2`` nor ``r``."""
    if plane not in PLANE_DEFAULTS:
        raise ParameterError(f"unknown plane {plane!r}")
    given = {key: value for key, value in fields.items() if value is not None}
    if plane == "sym" and given.keys() & {"k2", "r"}:
        raise ParameterError("k2 and r apply only to the k1d plane")
    return ScanSpec(plane=plane, **{**PLANE_DEFAULTS[plane], **given})


def _cell(spec: ScanSpec, x, y) -> tuple:
    """(d, r, k1, k2) at (x, y), on numbers or broadcasting arrays: (d, 1, k, k)
    at (x, y) = (d, k) on the sym plane, (y r, r, k1, k2) at (k1, d/r) on k1d."""
    if spec.plane == "sym":
        return x, 1.0, y, y
    return y * spec.r, spec.r, x, spec.k2


def _axis(rng: tuple[float, float], n: int, scale: str) -> np.ndarray:
    if scale == "log":
        return np.geomspace(rng[0], rng[1], n)
    return np.linspace(rng[0], rng[1], n)


@dataclass(frozen=True)
class RegionSample:
    """One grid cell: its coordinates, combined sign and optional speed."""

    x: float
    y: float
    combined: SignVerdict
    c_num: "pde.SpeedEstimate | None" = None


@dataclass(frozen=True, eq=False)
class Plane:
    """A swept plane, held by column.

    ``hits`` has one (ny, nx) bool array per criterion row, read directly
    and at the reflection; ``hits.signs()`` folds them into a code of
    ``theory.SIGN_OF_CODE`` per cell and ``hits.verdict((iy, ix))`` gives
    the verdict of one cell.  ``c_num`` holds the oracle estimates by
    row-major cell index.  On the k1d plane ``hits`` keeps the
    symmetric-only rows too, since they count in the verdict on the
    diagonal, though they are no CSV column.  Iterating the plane yields
    one :class:`RegionSample` per cell, row-major over (y, x).
    """

    spec: ScanSpec
    xs: np.ndarray
    ys: np.ndarray
    hits: theory.CriterionHits
    c_num: dict[int, "pde.SpeedEstimate"]

    def __len__(self) -> int:
        return self.xs.size * self.ys.size

    def __iter__(self):
        for index, (iy, ix) in enumerate(np.ndindex(self.ys.size, self.xs.size)):
            yield RegionSample(float(self.xs[ix]), float(self.ys[iy]),
                               self.hits.verdict((iy, ix)), self.c_num.get(index))

    def masks(self) -> list[tuple[str, np.ndarray]]:
        """(CSV key, (ny, nx) hits) of each criterion column, in column order:
        the table rows, minus the symmetric-only rows on the k1d plane, then
        the same rows read at the reflection, keyed ``R_<row>``."""
        ids = [row.id for row in theory.CRITERIA
               if self.spec.plane == "sym" or not row.symmetric_only]
        return ([(cid.value, self.hits.direct[cid]) for cid in ids]
                + [(f"R_{cid.value}", self.hits.reflected[cid]) for cid in ids])


def scan_plane(spec: ScanSpec) -> Plane:
    """Evaluate all criteria on the grid; rows over y, columns over x.

    The criterion table is read once for the whole plane, on arrays.  With
    ``with_pde`` set, the speed oracle runs on the strided subsample through
    ``pde.estimate_speeds``; a failed or unstable run is recorded as a
    non-converged estimate, never a fatal error.
    """
    xs = spec.x_values()
    ys = spec.y_values()
    params = theory.ParamArrays(*_cell(spec, xs[None, :], ys[:, None]))
    hits = theory.evaluate_criteria(params)
    hits.signs()  # fold once here, so a polarity conflict raises from the sweep
    c_num = {}
    if spec.with_pde:
        cells = [(iy, ix) for iy in range(0, ys.size, spec.pde_stride)
                 for ix in range(0, xs.size, spec.pde_stride)]
        estimates = pde.estimate_speeds([(params.at(cell), spec.pde_config) for cell in cells])
        c_num = {iy * xs.size + ix: est for (iy, ix), est in zip(cells, estimates)}
    return Plane(spec, xs, ys, hits, c_num)


def mask_counts(plane: Plane) -> dict[str, int]:
    """Number of cells on which each criterion (and each reflection) fired."""
    return {key: int(np.count_nonzero(hits)) for key, hits in plane.masks()}


_SIGN_TEXT = {code: sign.value for code, sign in theory.SIGN_OF_CODE.items()}


def emit_csv(plane: Plane, path) -> None:
    """Write the plane as CSV: x, y, one 0/1 column per criterion, verdict, speed.

    One row run at a time: a run is a stretch of adjacent cells in a row with
    the same hits, the same sign and no estimate, so its lines differ only
    in the x label and the run is one join of those labels.  A cell that
    holds an estimate is a run of its own.  The x and y labels and the
    "flags,verdict," text of each distinct hits and sign pair are formatted once.
    """
    if not plane:
        raise ParameterError("emit_csv requires a nonempty plane")
    keys, hits = zip(*plane.masks())
    header = ["x", "y", *keys, "combined", "c_num", "stderr", "converged"]
    nx, size = plane.xs.size, len(plane)
    cells = np.stack([*hits, plane.hits.signs()])  # (column, y, x); signs last
    # A run starts at each row's first cell, where the hits or sign change
    # along x, and at and after each estimate; index `size` closes the last.
    starts = np.ones(size + 1, dtype=bool)
    starts[:-1].reshape(-1, nx)[:, 1:] = (cells[..., 1:] != cells[..., :-1]).any(axis=0)
    estimates = np.fromiter(plane.c_num, dtype=np.intp, count=len(plane.c_num))
    starts[estimates] = starts[estimates + 1] = True
    starts = np.flatnonzero(starts).tolist()
    xs = [f"{x:.12g}" for x in plane.xs.tolist()]
    ys = [f",{y:.12g}," for y in plane.ys.tolist()]
    kinds = list(map(tuple, cells.reshape(len(cells), size)[:, starts[:-1]].T.tolist()))
    texts = {key: ",".join(map(str, key[:-1])) + f",{_SIGN_TEXT[key[-1]]}," for key in set(kinds)}
    parts = [",".join(header) + "\n"]
    for start, end, key in zip(starts, starts[1:], kinds):
        iy, ix = divmod(start, nx)
        est = plane.c_num.get(start)
        speed = ",," if est is None else f"{est.c_hat:.12g},{est.stderr:.12g},{int(est.converged)}"
        tail = f"{ys[iy]}{texts[key]}{speed}\n"
        parts += (tail.join(xs[ix:end - iy * nx]), tail)
    with open(path, "w") as fh:
        fh.write("".join(parts))


# The colour of each criterion column's layer, by CSV key, in drawing
# order: the priors and their reflections below the new criteria.
_PALETTE = {
    "PRIOR_I": "#b0b0b0", "PRIOR_II": "#999999", "PRIOR_III": "#8a8a8a",
    "PRIOR_VII": "#7b7b7b", "PRIOR_VIII": "#6c6c6c",
    "R_PRIOR_I": "#d9c2a8", "R_PRIOR_II": "#d9c2a8", "R_PRIOR_III": "#d9c2a8",
    "R_PRIOR_VII": "#d9c2a8", "R_PRIOR_VIII": "#d9c2a8",
    "DEG_NEG": "#4477cc", "R_DEG_NEG": "#dd8855",
    "NEG3": "#5599dd", "POS1": "#dd6644", "R_NEG3": "#e0bb88",
    "N1": "#9955cc", "N2": "#cc55aa", "S1": "#7744bb", "S2": "#bb4499",
    "R_N1": "#e09966", "R_N2": "#e0aa77", "R_S1": "#eab388", "R_S2": "#eac499",
    "R_POS1": "#66aadd",
}


def _group(attributes: str, children: list[str]) -> str:
    """An SVG group element; one with no children closes itself."""
    if not children:
        return f"<g {attributes} />"
    return f"<g {attributes}>{''.join(children)}</g>"


def _reference_k1(spec: ScanSpec) -> dict[str, float]:
    """The dashed verticals of a k1d plane, by label: k1 = sqrt(k2), k2 and
    k2^2 mark the conjectured all-ratio positive threshold, the symmetric
    point and the conjectured all-ratio negative threshold.  Empty on the
    sym plane."""
    if spec.plane != "k1d":
        return {}
    return {"sqrt_k2": math.sqrt(spec.k2), "k2": spec.k2, "k2_squared": spec.k2 * spec.k2}


def emit_svg(plane: Plane, path) -> None:
    """Render the criterion masks as layered colored row runs with axes and a legend.

    Each layer draws one ``<rect>`` per maximal run of adjacent hit cells in
    a row, row-major, so the default planes' maps take 9.6 KB (sym) and
    19.4 KB (k1d) where one ``<rect>`` per cell took 331 KB and 783 KB.  The
    tick labels follow the scales of ``plane.spec``; a k1d plane also gets
    the reference verticals of :func:`_reference_k1`.
    """
    if not plane:
        raise ParameterError("emit_svg requires a nonempty plane")
    xs, ys = plane.xs.tolist(), plane.ys.tolist()
    nx, ny = len(xs), len(ys)
    x_log = plane.spec.x_scale == "log"
    y_log = plane.spec.y_scale == "log"

    width, height = 720, 520
    ml, mr, mt, mb = 60, 170, 20, 50
    pw, ph = width - ml - mr, height - mt - mb
    cw, ch = pw / nx, ph / ny

    masks = dict(plane.masks())
    layers = [(key, colour) for key, colour in _PALETTE.items() if key in masks]
    # The runs of every layer at once: along the zero-padded rows of the
    # stacked masks the changes alternate start, end, in row-major order.
    padded = np.zeros((len(layers), ny, nx + 2), dtype=bool)
    padded[:, :, 1:-1] = np.stack([masks[key] for key, _ in layers])
    start, end = np.flatnonzero(np.diff(padded)).reshape(-1, 2).T
    layer, row = np.divmod(start // (nx + 1), ny)
    # Each run's <rect> from a head per column, a top per row and a tail per
    # run length.
    heads = np.array([f'<rect x="{ml + ix * cw:.2f}" y="' for ix in range(nx)], dtype=object)
    tops = np.array([f'{mt + (ny - 1 - iy) * ch:.2f}" width="' for iy in range(ny)],
                    dtype=object)
    tails = np.array([f'{n * cw:.2f}" height="{ch:.2f}" />' for n in range(1, nx + 1)],
                     dtype=object)
    rects = (heads[start % (nx + 1)] + tops[row] + tails[end - start - 1]).tolist()
    bounds = np.searchsorted(layer, range(len(layers) + 1)).tolist()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white" />',
    ]
    drawn = []
    for (key, colour), lo, hi in zip(layers, bounds, bounds[1:]):
        if lo == hi:
            continue
        parts.append(_group(f'fill-opacity="0.55" id="criterion-{key}" fill="{colour}"',
                            rects[lo:hi]))
        drawn.append((key, colour))

    # Frame and tick labels.
    parts.append(_group('id="axes" stroke="black" fill="none"',
                        [f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" />']))
    labels = []
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = _axis_value(xs[0], xs[-1], frac, x_log)
        yv = _axis_value(ys[0], ys[-1], frac, y_log)
        tx = ml + frac * pw
        ty = mt + (1.0 - frac) * ph
        labels.append(f'<text text-anchor="middle" x="{tx:.1f}" y="{height - mb + 16}">'
                      f'{xv:.4g}</text>')
        labels.append(f'<text text-anchor="end" x="{ml - 6}" y="{ty + 4:.1f}">{yv:.4g}</text>')

    refs = _reference_k1(plane.spec)
    lines = []
    for name, xv in refs.items():
        frac = _axis_fraction(xs[0], xs[-1], xv, x_log)
        if not (0.0 <= frac <= 1.0):
            continue
        px = ml + frac * pw
        lines.append(f'<line x1="{px:.2f}" x2="{px:.2f}" y1="{mt}" y2="{mt + ph}" />')
        labels.append(f'<text text-anchor="middle" x="{px:.1f}" y="{mt - 6}">{name}</text>')
    parts.append(_group('font-size="11" id="labels"', labels))
    if refs:
        parts.append(_group('stroke-dasharray="4 3" id="reference-lines" stroke="#222222"',
                            lines))

    legend = []
    for i, (key, colour) in enumerate(drawn):
        ly = mt + 14 + 18 * i
        legend.append(f'<rect fill-opacity="0.55" x="{ml + pw + 12}" y="{ly - 10}" '
                      f'width="12" height="12" fill="{colour}" />')
        legend.append(f'<text x="{ml + pw + 30}" y="{ly}">{key}</text>')
    parts.append(_group('font-size="11" id="legend"', legend))
    parts.append("</svg>")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("<?xml version='1.0' encoding='utf-8'?>\n")
        fh.write("".join(parts))


def _axis_value(lo: float, hi: float, frac: float, log: bool) -> float:
    if log:
        return lo * (hi / lo) ** frac
    return lo + (hi - lo) * frac


def _axis_fraction(lo: float, hi: float, value: float, log: bool) -> float:
    if log:
        return math.log(value / lo) / math.log(hi / lo)
    return (value - lo) / (hi - lo)
