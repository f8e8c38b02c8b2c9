"""Parameter-plane sweeps with per-criterion masks and CSV/SVG emission.

Two planes are supported: the symmetric (d, k) plane (r = 1, k1 = k2 = k)
and the (k1, d/r) plane at fixed k2 and r.  Every grid cell records which
criteria fired, the combined verdict, and optionally a PDE speed estimate
on a strided subsample (the oracle costs seconds per point, the criteria
microseconds).  Output ordering is row-major over (y, x) and fully
deterministic, so reruns are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from xml.etree import ElementTree as ET

import numpy as np

from .model import CompetitionParams, ParameterError
from . import theory
from .theory import CriterionId, SignVerdict
from . import pde


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
        for scale in (self.x_scale, self.y_scale):
            if scale not in ("linear", "log"):
                raise ParameterError(f"unknown scale {scale!r}")
        (xlo, xhi), (ylo, yhi) = self.x_range, self.y_range
        if not (0.0 < xlo < xhi and 0.0 < ylo < yhi):
            raise ParameterError("ranges must be positive and increasing")
        if self.plane == "sym" and ylo <= 1.0:
            raise ParameterError("symmetric plane requires k > 1")
        if self.plane == "k1d" and (xlo <= 1.0 or self.k2 <= 1.0):
            raise ParameterError("k1d plane requires k1 > 1 and k2 > 1")

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
    plane's default grid from ``PLANE_DEFAULTS`` and then ScanSpec's defaults."""
    if plane not in PLANE_DEFAULTS:
        raise ParameterError(f"unknown plane {plane!r}")
    given = {key: value for key, value in fields.items() if value is not None}
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


def _params_at(spec: ScanSpec, x: float, y: float) -> CompetitionParams:
    if spec.plane == "sym":
        return CompetitionParams(x, 1.0, y, y)
    return CompetitionParams(y * spec.r, spec.r, x, spec.k2)


def _plane_columns(plane: str) -> tuple[tuple[CriterionId, ...], tuple[CriterionId, ...]]:
    """Direct and reflected criterion columns: the table rows, minus the
    symmetric-only rows on the k1d plane."""
    rows = [row for row in theory.CRITERIA if plane == "sym" or not row.symmetric_only]
    return tuple(row.id for row in rows), tuple(row.id for row in rows if row.reflectable)


_COLUMNS = {plane: _plane_columns(plane) for plane in ("sym", "k1d")}


def _evaluate_cell(spec: ScanSpec, x: float, y: float) -> RegionSample:
    hits = theory.evaluate_criteria(_params_at(spec, x, y))
    direct, reflected = _COLUMNS[spec.plane]
    return RegionSample(
        x=float(x), y=float(y),
        verdicts={cid: hits.direct[cid] for cid in direct},
        reflected_verdicts={cid: hits.reflected[cid] for cid in reflected},
        combined=hits.verdict(),
    )


def scan_plane(spec: ScanSpec) -> list[RegionSample]:
    """Evaluate all criteria on the grid; rows over y, columns over x.

    With ``with_pde`` set, the speed oracle runs on the strided subsample;
    a failed or unstable run is recorded as a non-converged estimate, never
    a fatal error.
    """
    xs = spec.x_values()
    ys = spec.y_values()
    samples = []
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            sample = _evaluate_cell(spec, float(x), float(y))
            if spec.with_pde and ix % spec.pde_stride == 0 and iy % spec.pde_stride == 0:
                try:
                    est = pde.estimate_speed(
                        _params_at(spec, float(x), float(y)), spec.pde_config
                    )
                except pde.SimulationError:
                    est = pde.SpeedEstimate(
                        float("nan"), float("inf"), np.empty((0, 2)), False
                    )
                sample = replace(sample, c_num=est)
            samples.append(sample)
    return samples


@dataclass(frozen=True)
class Fig2Dataset:
    """The (k1, d/r) sweep at fixed k2 plus the reference competition levels."""

    samples: list[RegionSample]
    reference_k1: dict[str, float]
    spec: ScanSpec


def figure2_dataset(k2: float, r: float = 1.0, spec: ScanSpec | None = None) -> Fig2Dataset:
    """Double-logarithmic (k1, d/r) sweep with the reference verticals.

    The verticals k1 = sqrt(k2), k1 = k2 and k1 = k2^2 mark the conjectured
    all-ratio positive threshold, the symmetric point, and the conjectured
    all-ratio negative threshold.
    """
    if spec is None:
        spec = plane_spec("k1d", k2=k2, r=r)
    samples = scan_plane(spec)
    return Fig2Dataset(
        samples=samples,
        reference_k1={
            "sqrt_k2": math.sqrt(k2),
            "k2": float(k2),
            "k2_squared": float(k2) ** 2,
        },
        spec=spec,
    )


# CSV column key of each criterion, read directly and at the reflection.
_DIRECT_KEY = {row.id: row.id.value for row in theory.CRITERIA}
_REFLECTED_KEY = {row.id: f"R_{row.id.value}" for row in theory.CRITERIA}


def _criterion_columns(sample: RegionSample):
    """(CSV column key, hit) for each criterion column of ``sample``, in column order."""
    for cid, hit in sample.verdicts.items():
        yield _DIRECT_KEY[cid], hit
    for cid, hit in sample.reflected_verdicts.items():
        yield _REFLECTED_KEY[cid], hit


def mask_counts(samples: list[RegionSample]) -> dict[str, int]:
    """Number of cells on which each criterion (and each reflection) fired."""
    counts: dict[str, int] = {}
    for sample in samples:
        for key, hit in _criterion_columns(sample):
            counts[key] = counts.get(key, 0) + int(hit)
    return counts


def emit_csv(samples: list[RegionSample], path) -> None:
    """Write samples as CSV: x, y, one 0/1 column per criterion, verdict, speed."""
    if not samples:
        raise ParameterError("emit_csv requires a nonempty sample list")
    header = (
        ["x", "y"]
        + [key for key, _ in _criterion_columns(samples[0])]
        + ["combined", "c_num", "stderr", "converged"]
    )
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for s in samples:
            row = [f"{s.x:.12g}", f"{s.y:.12g}"]
            row += [str(int(hit)) for _, hit in _criterion_columns(s)]
            row.append(s.combined.sign.value)
            if s.c_num is None:
                row += ["", "", ""]
            else:
                row += [
                    f"{s.c_num.c_hat:.12g}",
                    f"{s.c_num.stderr:.12g}",
                    str(int(s.c_num.converged)),
                ]
            fh.write(",".join(row) + "\n")


def load_csv(path) -> list[dict]:
    """Parse a file written by :func:`emit_csv` back into row dictionaries."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            rows.append(dict(zip(header, parts)))
    return rows


# One fixed color per criterion; priors render below the new criteria.
_SVG_COLORS = {
    "PRIOR_I": "#b0b0b0",
    "PRIOR_II": "#999999",
    "PRIOR_III": "#8a8a8a",
    "PRIOR_VII": "#7b7b7b",
    "PRIOR_VIII": "#6c6c6c",
    "DEG_NEG": "#4477cc",
    "N1": "#9955cc",
    "N2": "#cc55aa",
    "S1": "#7744bb",
    "S2": "#bb4499",
    "NEG3": "#5599dd",
    "POS1": "#dd6644",
    "DEG_POS": "#dd8855",
    "R_N1": "#e09966",
    "R_N2": "#e0aa77",
    "R_NEG3": "#e0bb88",
    "R_S1": "#eab388",
    "R_S2": "#eac499",
    "R_PRIOR_I": "#d9c2a8",
    "R_PRIOR_II": "#d9c2a8",
    "R_PRIOR_III": "#d9c2a8",
    "R_PRIOR_VII": "#d9c2a8",
    "R_PRIOR_VIII": "#d9c2a8",
}
_SVG_ORDER = [
    "PRIOR_I", "PRIOR_II", "PRIOR_III", "PRIOR_VII", "PRIOR_VIII",
    "R_PRIOR_I", "R_PRIOR_II", "R_PRIOR_III", "R_PRIOR_VII", "R_PRIOR_VIII",
    "DEG_NEG", "DEG_POS", "NEG3", "POS1", "R_NEG3",
    "N1", "N2", "S1", "S2", "R_N1", "R_N2", "R_S1", "R_S2",
]


def emit_svg(
    samples: list[RegionSample],
    path,
    style: dict | None = None,
) -> None:
    """Render the criterion masks as layered colored cells with axes and a legend.

    ``style`` may carry ``reference_x``: a mapping of label -> x value drawn
    as dashed verticals (used for the k1-plane reference levels).
    """
    if not samples:
        raise ParameterError("emit_svg requires a nonempty sample list")
    style = style or {}
    xs = sorted({s.x for s in samples})
    ys = sorted({s.y for s in samples})
    nx, ny = len(xs), len(ys)
    x_log = style.get("x_scale", "linear") == "log"
    y_log = style.get("y_scale", "linear") == "log"

    width, height = 720, 520
    ml, mr, mt, mb = 60, 170, 20, 50
    pw, ph = width - ml - mr, height - mt - mb
    cw, ch = pw / nx, ph / ny
    x_index = {x: i for i, x in enumerate(xs)}
    y_index = {y: i for i, y in enumerate(ys)}

    svg = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=str(width),
        height=str(height),
        viewBox=f"0 0 {width} {height}",
    )
    ET.SubElement(svg, "rect", x="0", y="0", width=str(width), height=str(height),
                  fill="white")

    masks: dict[str, list[RegionSample]] = {}
    for s in samples:
        for key, hit in _criterion_columns(s):
            if hit:
                masks.setdefault(key, []).append(s)

    drawn = []
    for key in _SVG_ORDER:
        cells = masks.get(key)
        if not cells:
            continue
        group = ET.SubElement(svg, "g", id=f"criterion-{key}",
                              fill=_SVG_COLORS.get(key, "#444444"),
                              attrib={"fill-opacity": "0.55"})
        for s in cells:
            px = ml + x_index[s.x] * cw
            py = mt + (ny - 1 - y_index[s.y]) * ch
            ET.SubElement(group, "rect", x=f"{px:.2f}", y=f"{py:.2f}",
                          width=f"{cw:.2f}", height=f"{ch:.2f}")
        drawn.append(key)

    # Frame and tick labels.
    axes = ET.SubElement(svg, "g", id="axes", stroke="black", fill="none")
    ET.SubElement(axes, "rect", x=str(ml), y=str(mt), width=str(pw), height=str(ph))
    labels = ET.SubElement(svg, "g", id="labels", attrib={"font-size": "11"})
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = _axis_value(xs[0], xs[-1], frac, x_log)
        yv = _axis_value(ys[0], ys[-1], frac, y_log)
        tx = ml + frac * pw
        ty = mt + (1.0 - frac) * ph
        ET.SubElement(labels, "text", x=f"{tx:.1f}", y=str(height - mb + 16),
                      attrib={"text-anchor": "middle"}).text = f"{xv:.4g}"
        ET.SubElement(labels, "text", x=str(ml - 6), y=f"{ty + 4:.1f}",
                      attrib={"text-anchor": "end"}).text = f"{yv:.4g}"

    refs = style.get("reference_x") or {}
    if refs:
        ref_group = ET.SubElement(svg, "g", id="reference-lines", stroke="#222222",
                                  attrib={"stroke-dasharray": "4 3"})
        for name, xv in refs.items():
            frac = _axis_fraction(xs[0], xs[-1], xv, x_log)
            if not (0.0 <= frac <= 1.0):
                continue
            px = ml + frac * pw
            ET.SubElement(ref_group, "line", x1=f"{px:.2f}", x2=f"{px:.2f}",
                          y1=str(mt), y2=str(mt + ph))
            ET.SubElement(labels, "text", x=f"{px:.1f}", y=str(mt - 6),
                          attrib={"text-anchor": "middle"}).text = name

    legend = ET.SubElement(svg, "g", id="legend", attrib={"font-size": "11"})
    for i, key in enumerate(drawn):
        ly = mt + 14 + 18 * i
        ET.SubElement(legend, "rect", x=str(ml + pw + 12), y=str(ly - 10),
                      width="12", height="12",
                      fill=_SVG_COLORS.get(key, "#444444"),
                      attrib={"fill-opacity": "0.55"})
        ET.SubElement(legend, "text", x=str(ml + pw + 30), y=str(ly)).text = key

    ET.ElementTree(svg).write(path, xml_declaration=True, encoding="unicode")


def _axis_value(lo: float, hi: float, frac: float, log: bool) -> float:
    if log:
        return lo * (hi / lo) ** frac
    return lo + (hi - lo) * frac


def _axis_fraction(lo: float, hi: float, value: float, log: bool) -> float:
    if log:
        return math.log(value / lo) / math.log(hi / lo)
    return (value - lo) / (hi - lo)
