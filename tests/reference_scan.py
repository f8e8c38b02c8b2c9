"""Reference for the scan plane's CSV and SVG.

``emit_csv`` writes one string per cell: it formats each row with an
f-string, cutting its criterion columns from one byte buffer of digits and
commas.  ``emit_svg`` walks each row of each layer in a plain loop and
formats one ``<rect>`` per maximal run of adjacent hit cells, as wide as
the run, so the default planes' maps take 9.6 KB (sym) and 19.4 KB (k1d).
``scan.emit_csv`` and ``scan.emit_svg`` write the same bytes from pieces
formatted once per plane; the tests compare the two byte for byte.
"""

from __future__ import annotations

import itertools

import numpy as np

from wavespeed.model import ParameterError
from wavespeed.scan import (_PALETTE, _SIGN_TEXT, Plane, _axis_fraction, _axis_value,
                            _group, _reference_k1)


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


def emit_svg(plane: Plane, path) -> None:
    """Render the criterion masks as layered colored row runs with axes and a legend.

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

    masks = dict(plane.masks())
    layers = [(key, colour, masks[key]) for key, colour in _PALETTE.items() if key in masks]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white" />',
    ]
    drawn = []
    for key, colour, hits in layers:
        rects = []
        for iy, row in enumerate(hits.tolist()):
            ix = 0
            for hit, run in itertools.groupby(row):
                n = len(list(run))
                if hit:
                    rects.append(f'<rect x="{ml + ix * cw:.2f}" y="{mt + (ny - 1 - iy) * ch:.2f}" '
                                 f'width="{n * cw:.2f}" height="{ch:.2f}" />')
                ix += n
        if not rects:
            continue
        parts.append(_group(f'fill-opacity="0.55" id="criterion-{key}" fill="{colour}"', rects))
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
