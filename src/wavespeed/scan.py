"""Parameter-plane sweeps with per-criterion masks and CSV/SVG emission.

Two planes are supported: the symmetric (d, k) plane (r = 1, k1 = k2 = k)
and the (k1, d/r) plane at fixed k2 and r.  Every grid cell records which
criteria fired, the combined verdict, and optionally a PDE speed estimate
on a strided subsample (the oracle costs seconds per point, the criteria
microseconds).  Output ordering is row-major over (y, x) and fully
deterministic, so reruns are byte-identical.

A sweep is columnar.  :func:`scan_plane` hands the whole grid to
``theory.evaluate_criteria`` once, as arrays that broadcast over (y, x),
and returns a :class:`Plane`: one bool array per criterion row, a sign code
per cell and the oracle estimates.  :func:`emit_csv`, :func:`emit_svg` and
:func:`mask_counts` write from those arrays.  ``theory.classify`` reads the
same table through the same evaluator at one point, so a cell's verdict is
the verdict at its parameters.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import CompetitionParams, ParameterError, check_positive
from . import theory
from .theory import CriterionId, SignVerdict
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
        # Two corner cells hold the extreme d, d/r and k: both must be valid points.
        for x, y in zip(self.x_range, self.y_range):
            sym = self.plane == "sym"
            CompetitionParams(*((x, 1.0, y, y) if sym else (y * self.r, self.r, x, self.k2)))

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


def _axis(rng: tuple[float, float], n: int, scale: str) -> np.ndarray:
    if scale == "log":
        return np.geomspace(rng[0], rng[1], n)
    return np.linspace(rng[0], rng[1], n)


@dataclass(frozen=True)
class RegionSample:
    """One grid cell: criterion verdicts, combined sign, optional speed."""

    x: float
    y: float
    verdicts: dict[CriterionId, bool]
    reflected_verdicts: dict[CriterionId, bool]
    combined: SignVerdict
    c_num: "pde.SpeedEstimate | None" = None


def _plane_params(spec: ScanSpec, xs: np.ndarray, ys: np.ndarray) -> theory.ParamArrays:
    """The parameters of every cell, as arrays over (y, x) that broadcast:
    (d, 1, k, k) at (x, y) = (d, k) on the sym plane, (y r, r, k1, k2) at
    (x, y) = (k1, d/r) on the k1d plane."""
    if spec.plane == "sym":
        k = ys[:, None]
        return theory.ParamArrays(xs[None, :], 1.0, k, k)
    return theory.ParamArrays(ys[:, None] * spec.r, spec.r, xs[None, :], spec.k2)


def _plane_columns(plane: str) -> tuple[tuple[str, CriterionId, bool], ...]:
    """(CSV key, row, read at the reflection) of each criterion column: the
    table rows, minus the symmetric-only rows on the k1d plane, then the
    same rows read at the reflection."""
    rows = [row for row in theory.CRITERIA if plane == "sym" or not row.symmetric_only]
    return (tuple((row.id.value, row.id, False) for row in rows)
            + tuple((f"R_{row.id.value}", row.id, True) for row in rows))


_COLUMNS = {plane: _plane_columns(plane) for plane in PLANE_DEFAULTS}


@dataclass(frozen=True, eq=False)
class Plane(Sequence):
    """A swept plane, held by column.

    ``hits`` has one (ny, nx) bool array per criterion row, read directly
    and at the reflection, and ``hits.signs()`` folds them into a code of
    ``theory.SIGN_OF_CODE`` per cell; ``c_num`` the oracle estimates by
    row-major cell index.  On the k1d plane ``hits`` keeps the symmetric-only
    rows too, since they count in the verdict on the diagonal, though they
    are no CSV column.  As a sequence the plane holds one
    :class:`RegionSample` per cell, row-major over (y, x), built on access.
    """

    spec: ScanSpec
    xs: np.ndarray
    ys: np.ndarray
    hits: theory.CriterionHits
    c_num: dict[int, "pde.SpeedEstimate"]

    def __len__(self) -> int:
        return self.xs.size * self.ys.size

    def __getitem__(self, index: int) -> RegionSample:
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("plane cell index out of range")
        iy, ix = divmod(index, self.xs.size)
        columns = _COLUMNS[self.spec.plane]
        return RegionSample(
            float(self.xs[ix]), float(self.ys[iy]),
            verdicts={cid: bool(self.hits.direct[cid][iy, ix])
                      for _, cid, mirrored in columns if not mirrored},
            reflected_verdicts={cid: bool(self.hits.reflected[cid][iy, ix])
                                for _, cid, mirrored in columns if mirrored},
            combined=self.hits.verdict((iy, ix)),
            c_num=self.c_num.get(index),
        )

    def masks(self) -> list[tuple[str, np.ndarray]]:
        """(CSV key, (ny, nx) hits) of each criterion column, in column order."""
        return [
            (key, (self.hits.reflected if mirrored else self.hits.direct)[cid])
            for key, cid, mirrored in _COLUMNS[self.spec.plane]
        ]


def scan_plane(spec: ScanSpec) -> Plane:
    """Evaluate all criteria on the grid; rows over y, columns over x.

    The criterion table is read once for the whole plane, on arrays.  With
    ``with_pde`` set, the speed oracle runs on the strided subsample; a
    failed or unstable run is recorded as a non-converged estimate, never a
    fatal error.
    """
    xs = spec.x_values()
    ys = spec.y_values()
    params = _plane_params(spec, xs, ys)
    hits = theory.evaluate_criteria(params)
    hits.signs()  # fold once here, so a polarity conflict raises from the sweep
    c_num = {}
    if spec.with_pde:
        for iy in range(0, ys.size, spec.pde_stride):
            for ix in range(0, xs.size, spec.pde_stride):
                try:
                    est = pde.estimate_speed(params.at((iy, ix)), spec.pde_config)
                except pde.SimulationError:
                    est = pde.SpeedEstimate(math.nan, math.inf, np.empty((0, 2)), False, "stiff")
                c_num[iy * xs.size + ix] = est
    return Plane(spec, xs, ys, hits, c_num)


def mask_counts(plane: Plane) -> dict[str, int]:
    """Number of cells on which each criterion (and each reflection) fired."""
    return {key: int(np.count_nonzero(hits)) for key, hits in plane.masks()}


_SIGN_TEXT = {code: sign.value for code, sign in theory.SIGN_OF_CODE.items()}


def emit_csv(plane: Plane, path) -> None:
    """Write the plane as CSV: x, y, one 0/1 column per criterion, verdict, speed."""
    if not plane:
        raise ParameterError("emit_csv requires a nonempty plane")
    keys, hits = zip(*plane.masks())
    header = ["x", "y", *keys, "combined", "c_num", "stderr", "converged"]
    # Each cell's criterion columns as one "0,1,..." string, cut from a
    # single byte buffer of digits and commas.
    width = 2 * len(hits) - 1
    chars = np.full((len(plane), width), ord(","), dtype=np.uint8)
    chars[:, ::2] = ord("0") + np.stack(hits, axis=-1).reshape(len(plane), -1)
    text = chars.tobytes().decode("ascii")
    flags = [text[i:i + width] for i in range(0, len(text), width)]
    signs = [_SIGN_TEXT[code] for code in plane.hits.signs().ravel().tolist()]
    xs = [f"{x:.12g}" for x in plane.xs.tolist()]
    lines = [",".join(header)]
    index = 0
    for y in plane.ys.tolist():
        y = f"{y:.12g}"
        for x in xs:
            est = plane.c_num.get(index)
            if est is None:
                speed = ",,"
            else:
                speed = f"{est.c_hat:.12g},{est.stderr:.12g},{int(est.converged)}"
            lines.append(f"{x},{y},{flags[index]},{signs[index]},{speed}")
            index += 1
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# Layer rank (lower draws first) and colour of each criterion's mask, then of
# its reflected mask.  Priors render below the new criteria.
_SVG_STYLE = {
    CriterionId.PRIOR_I: ((0, "#b0b0b0"), (5, "#d9c2a8")),
    CriterionId.PRIOR_II: ((1, "#999999"), (6, "#d9c2a8")),
    CriterionId.PRIOR_III: ((2, "#8a8a8a"), (7, "#d9c2a8")),
    CriterionId.PRIOR_VII: ((3, "#7b7b7b"), (8, "#d9c2a8")),
    CriterionId.PRIOR_VIII: ((4, "#6c6c6c"), (9, "#d9c2a8")),
    CriterionId.DEG_NEG: ((10, "#4477cc"), (11, "#dd8855")),
    CriterionId.NEG3: ((12, "#5599dd"), (14, "#e0bb88")),
    CriterionId.POS1: ((13, "#dd6644"), (23, "#66aadd")),
    CriterionId.N1: ((15, "#9955cc"), (19, "#e09966")),
    CriterionId.N2: ((16, "#cc55aa"), (20, "#e0aa77")),
    CriterionId.S1: ((17, "#7744bb"), (21, "#eab388")),
    CriterionId.S2: ((18, "#bb4499"), (22, "#eac499")),
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
    return {"sqrt_k2": math.sqrt(spec.k2), "k2": spec.k2, "k2_squared": spec.k2 ** 2}


def emit_svg(plane: Plane, path) -> None:
    """Render the criterion masks as layered colored cells with axes and a legend.

    The tick labels follow the scales of ``plane.spec``; a k1d plane also
    gets the reference verticals of :func:`_reference_k1`.
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
    cell_x = [f"{ml + ix * cw:.2f}" for ix in range(nx)]
    cell_y = [f"{mt + (ny - 1 - iy) * ch:.2f}" for iy in range(ny)]
    cell_size = f'width="{cw:.2f}" height="{ch:.2f}"'

    layers = []
    for (key, hits), (_, cid, mirrored) in zip(plane.masks(), _COLUMNS[plane.spec.plane]):
        rank, colour = _SVG_STYLE[cid][mirrored]
        layers.append((rank, key, colour, hits))
    layers.sort(key=lambda layer: layer[0])

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white" />',
    ]
    drawn = []
    for _, key, colour, hits in layers:
        rows, cols = np.nonzero(hits)  # row-major, the order of the cells
        if not rows.size:
            continue
        parts.append(_group(
            f'fill-opacity="0.55" id="criterion-{key}" fill="{colour}"',
            [f'<rect x="{cell_x[ix]}" y="{cell_y[iy]}" {cell_size} />'
             for iy, ix in zip(rows.tolist(), cols.tolist())],
        ))
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
