import csv
import hashlib
import math
import multiprocessing
import re
from dataclasses import replace
from xml.etree import ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavespeed import cli, theory
from wavespeed.model import ParameterError, validate
from wavespeed.pde import SpeedEstimate, default_config
from wavespeed.theory import (
    CRITERIA,
    CriterionId,
    PolarityConflictError,
    Sign,
    classify,
    degenerate_ratio_bound,
)
from wavespeed.scan import (
    _PALETTE,
    PLANE_DEFAULTS,
    Plane,
    ScanSpec,
    emit_csv,
    emit_svg,
    mask_counts,
    scan_plane,
)

import reference_scan


@pytest.fixture(scope="module")
def sym_spec():
    return ScanSpec(
        plane="sym", x_range=(1.0, 10.0), y_range=(1.0 + 1e-9, 4.0), nx=31, ny=16
    )


@pytest.fixture(scope="module")
def sym_plane(sym_spec):
    return scan_plane(sym_spec)


class TestScanPlane:
    def test_row_major_ordering_and_shape(self, sym_spec, sym_plane):
        assert len(sym_plane) == sym_spec.nx * sym_spec.ny
        xs = sym_spec.x_values()
        ys = sym_spec.y_values()
        assert sym_plane.xs.tolist() == xs.tolist()
        assert sym_plane.ys.tolist() == ys.tolist()
        for hits in (sym_plane.hits.direct, sym_plane.hits.reflected):
            assert all(mask.shape == (sym_spec.ny, sym_spec.nx) for mask in hits.values())
        cells = list(sym_plane)
        assert cells[0].x == xs[0] and cells[0].y == ys[0]
        assert cells[sym_spec.nx - 1].x == xs[-1]
        assert cells[sym_spec.nx].y == ys[1]

    def test_determinism(self, sym_spec, sym_plane):
        again = scan_plane(sym_spec)
        assert np.array_equal(sym_plane.xs, again.xs)
        assert np.array_equal(sym_plane.ys, again.ys)
        for row in CRITERIA:
            assert np.array_equal(sym_plane.hits.direct[row.id], again.hits.direct[row.id])
        assert np.array_equal(sym_plane.hits.signs(), again.hits.signs())

    def test_no_cell_in_both_polarity_masks(self, sym_plane):
        hits = sym_plane.hits
        shape = (sym_plane.ys.size, sym_plane.xs.size)
        votes = {-1: np.zeros(shape, bool), +1: np.zeros(shape, bool)}
        for row in CRITERIA:
            votes[row.polarity] |= hits.direct[row.id]
            votes[-row.polarity] |= hits.reflected[row.id]
        assert not (votes[-1] & votes[+1]).any()

    def test_polarity_conflict_raises_from_the_sweep(self, monkeypatch):
        # pos1 forced on votes both ways at every cell, directly and reflected.
        rows = tuple(
            replace(row, predicate=lambda p: np.ones(p.shape, bool))
            if row.id is CriterionId.POS1 else row
            for row in CRITERIA
        )
        monkeypatch.setattr(theory, "CRITERIA", rows)
        with pytest.raises(PolarityConflictError, match=re.escape(
                "at CompetitionParams(d=1.0, r=1.0, k1=1.000000001, k2=1.000000001)")):
            scan_plane(ScanSpec("sym", nx=3, ny=3))

    def test_combined_consistent_with_masks(self, sym_plane):
        hits = sym_plane.hits
        for cell in np.ndindex(sym_plane.ys.size, sym_plane.xs.size):
            if hits.verdict(cell).sign is Sign.INCONCLUSIVE:
                assert not any(mask[cell] for mask in hits.direct.values())
                assert not any(mask[cell] for mask in hits.reflected.values())

    def test_prior_cells_classified_negative(self, sym_plane):
        priors = [
            CriterionId.PRIOR_I, CriterionId.PRIOR_II, CriterionId.PRIOR_III,
            CriterionId.PRIOR_VII, CriterionId.PRIOR_VIII,
        ]
        prior = np.logical_or.reduce([sym_plane.hits.direct[c] for c in priors])
        for cell in zip(*np.nonzero(prior)):
            assert sym_plane.hits.verdict(cell).sign is Sign.NEGATIVE
        assert prior.any()

    def test_neg3_mask_is_upset_in_k1(self):
        spec = ScanSpec(
            plane="k1d", x_range=(1.1, 40.0), y_range=(0.5, 2.0),
            nx=25, ny=3, x_scale="log", k2=2.0,
        )
        plane = scan_plane(spec)
        assert (np.diff(plane.xs) > 0).all()  # each row of a mask runs up in k1
        for fired in plane.hits.direct[CriterionId.NEG3]:
            seen = False
            for f in fired:
                if seen:
                    assert f
                seen = seen or f

    def test_with_pde_subsample(self):
        spec = ScanSpec(
            plane="k1d", x_range=(4.0, 6.0), y_range=(0.8, 1.2), nx=2, ny=2,
            k2=2.0, with_pde=True, pde_stride=2,
            pde_config=default_config(L=40.0, dx=0.2, dt=0.05, t_end=40.0),
        )
        samples = scan_plane(spec)
        with_est = [s for s in samples if s.c_num is not None]
        assert len(with_est) == 1  # only the (0, 0) cell at stride 2
        est = with_est[0].c_num
        assert isinstance(est.converged, bool)

    def test_stiff_cell_is_recorded_with_its_reason(self):
        # At (0.02, 60, 3, 3) the explicit reaction step blows up at t = 0.02.
        spec = ScanSpec(
            plane="k1d", x_range=(3.0, 3.1), y_range=(0.02 / 60, 0.021 / 60), nx=2, ny=2,
            k2=3.0, r=60.0, with_pde=True, pde_stride=2,
        )
        (sample,) = [s for s in scan_plane(spec) if s.c_num is not None]
        assert not sample.c_num.converged
        assert sample.c_num.reason == "stiff"

    def test_sign_agreement_where_conclusive(self):
        spec = ScanSpec(
            plane="k1d", x_range=(1.8, 1.9), y_range=(6.0, 7.0), nx=2, ny=2,
            k2=2.0, with_pde=True, pde_stride=1,
            pde_config=default_config(L=40.0, dx=0.2, dt=0.05, t_end=60.0),
        )
        samples = scan_plane(spec)
        assert multiprocessing.active_children() == []  # every oracle worker joined
        for s in samples:
            est = s.c_num
            if est is None or not est.converged:
                continue
            if s.combined.sign is Sign.INCONCLUSIVE:
                continue
            if abs(est.c_hat) > 2.0 * est.stderr + 0.02:
                expected = est.c_hat < 0.0
                assert (s.combined.sign is Sign.NEGATIVE) == expected


@pytest.fixture(scope="module")
def fig2_plane():
    spec = ScanSpec(
        plane="k1d", x_range=(1.05, 60.0), y_range=(1e-3, 1e2),
        nx=41, ny=31, x_scale="log", y_scale="log", k2=2.0,
    )
    return scan_plane(spec)


def reference_lines(plane, path):
    """{label: x pixel} of the dashed verticals in the SVG of ``plane``."""
    emit_svg(plane, path)
    root = ET.parse(path).getroot()
    labels = next(el for el in root.iter() if el.get("id") == "labels")
    names = [el.text for el in labels if el.get("y") == "14"]  # above the frame
    xs = [float(el.get("x1")) for el in root.iter() if el.tag.endswith("line")]
    assert len(names) == len(xs)
    return dict(zip(names, xs))


def pixel_of(spec, k1):
    """The x pixel of k1 on the log-scaled x axis of ``spec`` (frame 60..550)."""
    lo, hi = spec.x_range
    return 60 + 490 * math.log(k1 / lo) / math.log(hi / lo)


class TestFigure2:
    def test_reference_lines(self, fig2_plane, tmp_path):
        lines = reference_lines(fig2_plane, tmp_path / "fig2.svg")
        assert list(lines) == ["sqrt_k2", "k2", "k2_squared"]
        for name, k1 in zip(lines, (math.sqrt(2.0), 2.0, 4.0)):
            assert lines[name] == pytest.approx(pixel_of(fig2_plane.spec, k1), abs=0.01)

    def test_reference_lines_follow_the_spec(self, tmp_path):
        spec = ScanSpec("k1d", k2=3.0, nx=3, ny=2)
        lines = reference_lines(scan_plane(spec), tmp_path / "k2-3.svg")
        assert lines["k2_squared"] == pytest.approx(pixel_of(spec, spec.k2 ** 2), abs=0.01)
        assert lines["sqrt_k2"] == pytest.approx(pixel_of(spec, math.sqrt(spec.k2)), abs=0.01)

    def test_requires_the_k1d_plane(self, tmp_path):
        # The verticals are levels of k1, so the sym plane draws none.
        assert reference_lines(scan_plane(ScanSpec("sym", nx=3, ny=2)),
                               tmp_path / "sym.svg") == {}

    def test_degenerate_mask_needs_k1_above_k2_squared(self, fig2_plane):
        _, ix = np.nonzero(fig2_plane.hits.direct[CriterionId.DEG_NEG])
        assert ix.size
        assert (fig2_plane.xs[ix] > 4.0).all()

    def test_degenerate_envelope_matches_bound(self, fig2_plane):
        xs, ys = fig2_plane.xs.tolist(), fig2_plane.ys.tolist()
        ix = min((i for i, x in enumerate(xs) if x > 7.5), key=lambda i: abs(xs[i] - 8.0))
        col = xs[ix]
        fired_y = fig2_plane.ys[fig2_plane.hits.direct[CriterionId.DEG_NEG][:, ix]].tolist()
        assert fired_y
        bound = degenerate_ratio_bound(col, 2.0)
        assert max(fired_y) <= bound
        # the grid resolves the envelope to within one log step
        step = ys[1] / ys[0]
        assert max(fired_y) * step * step > bound

    def test_symmetric_point_inconclusive(self):
        spec = ScanSpec(
            plane="k1d", x_range=(2.0, 4.0), y_range=(1.0, 2.0), nx=2, ny=2,
            k2=2.0,
        )
        samples = scan_plane(spec)
        corner = [s for s in samples if s.x == 2.0 and s.y == 1.0]
        assert corner[0].combined.sign is Sign.INCONCLUSIVE


class TestEmission:
    def test_csv_structure_and_roundtrip(self, tmp_path, sym_spec, sym_plane):
        path = tmp_path / "scan.csv"
        emit_csv(sym_plane, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + sym_spec.nx * sym_spec.ny
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        hits = sym_plane.hits
        for row, (iy, ix) in zip(rows, np.ndindex(sym_spec.ny, sym_spec.nx), strict=True):
            assert float(row["x"]) == pytest.approx(sym_plane.xs[ix], rel=1e-11)
            assert float(row["y"]) == pytest.approx(sym_plane.ys[iy], rel=1e-11)
            assert row["combined"] == hits.verdict((iy, ix)).sign.value
            for cid, mask in hits.direct.items():
                assert row[cid.value] == str(int(mask[iy, ix]))
            for cid, mask in hits.reflected.items():
                assert row[f"R_{cid.value}"] == str(int(mask[iy, ix]))
            assert row["c_num"] == ""

    def test_csv_requires_samples(self, tmp_path):
        with pytest.raises(ParameterError):
            emit_csv([], tmp_path / "empty.csv")
        with pytest.raises(ParameterError):
            emit_svg([], tmp_path / "empty.svg")

    def test_csv_deterministic_bytes(self, tmp_path, sym_spec):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        emit_csv(scan_plane(sym_spec), p1)
        emit_csv(scan_plane(sym_spec), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_svg_wellformed_with_groups(self, tmp_path, sym_plane):
        path = tmp_path / "scan.svg"
        emit_svg(sym_plane, path)
        tree = ET.parse(path)  # raises on malformed XML
        root = tree.getroot()
        assert root.tag.endswith("svg")
        groups = [
            el for el in root.iter()
            if el.tag.endswith("g") and el.get("id", "").startswith("criterion-")
        ]
        fired = {k for k, v in mask_counts(sym_plane).items() if v > 0}
        assert {g.get("id")[len("criterion-"):] for g in groups} == fired

    def test_every_criterion_column_is_styled(self, sym_plane, fig2_plane):
        # One layer per sym column, read directly and at the reflection; the
        # palette's order is the drawing order, so no rank can repeat.
        sym_keys = [key for key, _ in sym_plane.masks()]
        assert len(sym_keys) == 2 * len(CRITERIA)
        assert set(_PALETTE) == set(sym_keys)
        assert {key for key, _ in fig2_plane.masks()} < set(_PALETTE)

    def test_svg_reference_lines(self, tmp_path):
        spec = ScanSpec(
            plane="k1d", x_range=(1.05, 60.0), y_range=(1e-2, 1e2),
            nx=11, ny=11, x_scale="log", y_scale="log", k2=2.0,
        )
        path = tmp_path / "fig2.svg"
        emit_svg(scan_plane(spec), path)
        root = ET.parse(path).getroot()
        lines = [
            el for el in root.iter()
            if el.tag.endswith("line")
        ]
        assert len(lines) >= 3

    def test_svg_tick_labels_follow_the_plane_scales(self, tmp_path):
        # The default k1d plane is log-spaced: its middle column is
        # k1 = sqrt(1.02 * 100) = 10.1, where a linear axis would read 50.51.
        path = tmp_path / "log.svg"
        emit_svg(scan_plane(ScanSpec("k1d", nx=5, ny=3)), path)
        root = ET.parse(path).getroot()
        labels = next(el for el in root.iter() if el.get("id") == "labels")
        x_labels = [el.text for el in labels if el.get("text-anchor") == "middle"]
        assert x_labels[2] == "10.1"


SYM_HEADER = (
    "x,y,N1,N2,NEG3,S1,S2,DEG_NEG,POS1,"
    "PRIOR_I,PRIOR_II,PRIOR_III,PRIOR_VII,PRIOR_VIII,"
    "R_N1,R_N2,R_NEG3,R_S1,R_S2,R_DEG_NEG,R_POS1,"
    "R_PRIOR_I,R_PRIOR_II,R_PRIOR_III,R_PRIOR_VII,R_PRIOR_VIII,"
    "combined,c_num,stderr,converged"
)
K1D_HEADER = (
    "x,y,N1,N2,NEG3,DEG_NEG,POS1,R_N1,R_N2,R_NEG3,R_DEG_NEG,R_POS1,"
    "combined,c_num,stderr,converged"
)


class TestCriterionColumns:
    @pytest.mark.parametrize("spec, header", [
        (ScanSpec(plane="sym", x_range=(1.0, 10.0), y_range=(1.0 + 1e-9, 4.0),
                  nx=12, ny=9), SYM_HEADER),
        # The grid holds the symmetric cell k1 = k2 = 2, d/r = 1 at r = 1.
        (ScanSpec(plane="k1d", x_range=(1.5, 2.5), y_range=(0.5, 1.5),
                  nx=3, ny=3, x_scale="linear", y_scale="linear", k2=2.0), K1D_HEADER),
    ], ids=["sym", "k1d"])
    def test_combined_is_classify_and_header_is_fixed(self, tmp_path, spec, header):
        samples = scan_plane(spec)
        points = {(s.x, s.y) for s in samples}
        if spec.plane == "k1d":
            assert (2.0, 1.0) in points
        for s in samples:
            p = (validate(s.x, 1.0, s.y, s.y) if spec.plane == "sym"
                 else validate(s.y * spec.r, spec.r, s.x, spec.k2))
            assert s.combined == classify(p)
        path = tmp_path / "scan.csv"
        emit_csv(samples, path)
        assert path.read_text().splitlines()[0] == header


class TestPlaneSequence:
    def test_pde_stride_must_be_positive(self):
        with pytest.raises(ParameterError, match="pde_stride >= 1"):
            ScanSpec("k1d", with_pde=True, pde_stride=0)
        with pytest.raises(ParameterError, match="pde_stride >= 1"):
            ScanSpec("sym", pde_stride=0)

    def test_cell_count_capped(self):
        # The check runs before any axis is built.
        with pytest.raises(ParameterError, match="exceeds 10000000 cells"):
            ScanSpec("sym", nx=10**6, ny=10**6)
        with pytest.raises(ParameterError, match="exceeds 10000000 cells"):
            ScanSpec("k1d", nx=10**7 // 2, ny=3)
        assert ScanSpec("k1d", nx=10**7 // 2, ny=2).nx == 5 * 10**6

    @pytest.mark.parametrize("fields, message", [
        ({"plane": "polar"}, "unknown plane 'polar'"),
        ({"nx": 1}, "nx and ny must be at least 2"),
        ({"ny": 1}, "nx and ny must be at least 2"),
        ({"y_scale": "ln"}, "unknown scale 'ln'"),
    ], ids=["plane", "nx", "ny", "scale"])
    def test_spec_fields_are_checked(self, fields, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            ScanSpec(**{"plane": "sym", **fields})

    @pytest.mark.parametrize("plane, fields", [
        ("sym", {"x_range": (1.0, 10.0), "y_range": (1.0 + 1e-9, 4.0), "nx": 91, "ny": 31,
                 "x_scale": "linear", "y_scale": "linear", "k2": None, "r": None}),
        ("k1d", {"x_range": (1.02, 100.0), "y_range": (1e-3, 1e3), "nx": 121, "ny": 61,
                 "x_scale": "log", "y_scale": "log", "k2": 2.0, "r": 1.0}),
    ], ids=["sym", "k1d"])
    def test_fields_left_none_take_the_plane_defaults(self, plane, fields):
        spec = ScanSpec(plane)
        assert vars(spec) == {"plane": plane, **fields, "with_pde": False, "pde_stride": 10,
                              "pde_config": None}
        assert PLANE_DEFAULTS[plane] == {key: value for key, value in fields.items()
                                         if value is not None}
        # A given field wins, as it does in a copy with that field changed.
        assert vars(ScanSpec(plane, nx=7)) == {**vars(spec), "nx": 7}
        assert vars(replace(spec, nx=5)) == {**vars(spec), "nx": 5}

    @pytest.mark.parametrize("fields", [{"k2": 5.0}, {"r": 1.0}, {"k2": 2.0, "r": 1.0}],
                             ids=["k2", "r", "both"])
    def test_sym_plane_refuses_k2_and_r(self, fields):
        with pytest.raises(ParameterError, match="^k2 and r apply only to the k1d plane$"):
            ScanSpec("sym", **fields)

    @pytest.mark.parametrize("plane, fields, message", [
        ("sym", {"x_range": (1e-320, 1.0)}, "d and its reciprocal must be positive"),
        ("k1d", {"y_range": (1e-320, 1.0)}, "d and its reciprocal must be positive"),
        ("k1d", {"y_range": (1e-320, 1.0), "r": 1e100}, "d/r and its reciprocal must be positive"),
        ("k1d", {"y_range": (1.0, 1e10), "r": 1e300}, "d must be a finite real, got inf"),
        ("sym", {"y_range": (1.0, 4.0)}, "strong competition violated"),
        ("k1d", {"x_range": (0.5, 4.0)}, "strong competition violated"),
    ], ids=["sym-d", "k1d-d", "k1d-ratio", "k1d-d-overflow", "sym-k", "k1d-k1"])
    def test_corner_cells_must_be_points(self, plane, fields, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            ScanSpec(plane, **fields)

    def test_oracle_estimate_on_its_cell_only(self):
        spec = ScanSpec(
            plane="k1d", x_range=(4.0, 6.0), y_range=(0.8, 1.2), nx=3, ny=3,
            k2=2.0, with_pde=True, pde_stride=2,
            pde_config=default_config(L=10.0, dx=0.5, dt=0.1, t_end=2.0),
        )
        plane = scan_plane(spec)
        holding = [(s.x, s.y) for s in plane if s.c_num is not None]
        xs, ys = spec.x_values(), spec.y_values()
        assert holding == [(xs[ix], ys[iy]) for iy in (0, 2) for ix in (0, 2)]


@st.composite
def plane_specs(draw, max_cells=12):
    """A sym or k1d spec on the plane's default ranges, with drawn grid
    sizes from 2 to ``max_cells``, scales and, on the k1d plane, k2 and r.
    Some k1d planes start on the symmetric line k1 = k2 at r = 1, where the
    symmetric-only rows, which have no CSV column, can decide the sign."""
    plane = draw(st.sampled_from(["sym", "k1d"]))
    fields = {"nx": draw(st.integers(2, max_cells)), "ny": draw(st.integers(2, max_cells)),
              "x_scale": draw(st.sampled_from(["linear", "log"])),
              "y_scale": draw(st.sampled_from(["linear", "log"]))}
    if plane == "k1d":
        fields["k2"] = draw(st.floats(1.05, 6.0))
        fields["r"] = 10.0 ** draw(st.floats(-2.0, 2.0))
        if draw(st.booleans()):
            fields.update(x_range=(fields["k2"], 100.0), r=1.0)
    return ScanSpec(plane, **fields)


# Oracle estimates as the CSV sees them: converged, a speed still moving at
# the cap, and a stiff run recorded as nan, inf.
speed_estimates = st.one_of(
    st.builds(lambda c, e: SpeedEstimate(c, e, np.empty((0, 2))),
              st.floats(-3.0, 3.0), st.floats(0.0, 0.1)),
    st.builds(lambda c, e: SpeedEstimate(c, e, np.empty((0, 2)), "not_relaxed"),
              st.floats(-3.0, 3.0), st.floats(0.0, 10.0)),
    st.just(SpeedEstimate(math.nan, math.inf, np.empty((0, 2)), "stiff")),
)


@st.composite
def emitted_planes(draw):
    """A swept plane whose criterion rows are each kept whole, cleared or cut
    to their first hit (clearing hits adds no vote, so no row conflicts),
    with estimates on drawn cells."""
    swept = scan_plane(draw(plane_specs()))

    def thin(hits):
        keep = draw(st.sampled_from(["all", "none", "first"]))
        if keep == "all":
            return hits
        out = np.zeros_like(hits)
        if keep == "first" and hits.any():
            out.flat[np.flatnonzero(hits)[0]] = True
        return out

    direct = {cid: thin(hits) for cid, hits in swept.hits.direct.items()}
    reflected = {cid: thin(hits) for cid, hits in swept.hits.reflected.items()}
    c_num = draw(st.dictionaries(st.integers(0, len(swept) - 1), speed_estimates, max_size=8))
    return Plane(swept.spec, swept.xs, swept.ys,
                 theory.CriterionHits(swept.hits.params, direct, reflected), c_num)


class TestEmittersMatchReference:
    """emit_csv and emit_svg write the bytes of the per-cell and per-row reference writers."""

    @settings(max_examples=150)
    @given(emitted_planes())
    def test_same_bytes(self, tmp_path_factory, plane):
        out = tmp_path_factory.mktemp("emit")
        for emit, reference in ((emit_csv, reference_scan.emit_csv),
                                (emit_svg, reference_scan.emit_svg)):
            emit(plane, out / "new")
            reference(plane, out / "reference")
            assert (out / "new").read_bytes() == (out / "reference").read_bytes()


def _coded_plane(codes, estimated=()) -> Plane:
    """A k1d plane of ``codes``' shape with every criterion cleared, but for
    N1 on the cells coded 1 and pos1 on those coded 2, so a cell's hits and
    sign follow its code; an estimate sits at each row-major cell index of
    ``estimated``."""
    codes = np.asarray(codes)
    swept = scan_plane(ScanSpec("k1d", nx=codes.shape[1], ny=codes.shape[0]))
    direct = {cid: np.zeros_like(hits) for cid, hits in swept.hits.direct.items()}
    reflected = {cid: np.zeros_like(hits) for cid, hits in swept.hits.reflected.items()}
    direct[CriterionId.N1], direct[CriterionId.POS1] = codes == 1, codes == 2
    c_num = {index: SpeedEstimate(0.25 * index - 1.0, 0.01, np.empty((0, 2)))
             for index in estimated}
    return Plane(swept.spec, swept.xs, swept.ys,
                 theory.CriterionHits(swept.hits.params, direct, reflected), c_num)


# Three rows of seven cells: the middle row is one run of N1 hits.
_MIXED = [[0, 0, 1, 1, 1, 0, 2], [1, 1, 1, 1, 1, 1, 1], [2, 2, 0, 0, 1, 1, 0]]


class TestCsvRunBoundaries:
    """emit_csv splits each row into runs of alike cells; where runs and
    estimates meet, it writes the reference's bytes."""

    @pytest.mark.parametrize("codes, estimated", [
        (_MIXED, [0]),
        (_MIXED, [20]),
        (_MIXED, [6, 7]),
        (_MIXED, [2, 3]),
        (_MIXED, [10]),
        (_MIXED, []),
        (np.zeros((2, 5), dtype=int), [3]),
        (np.arange(21).reshape(3, 7) % 3, []),
        (np.arange(21).reshape(3, 7) % 3, [4, 5]),
    ], ids=["estimate-first-cell", "estimate-last-cell", "estimates-across-row-end",
            "adjacent-estimates", "estimate-inside-long-run", "row-one-run",
            "every-row-one-run", "every-cell-differs", "every-cell-differs-estimates"])
    def test_same_bytes_as_reference(self, tmp_path, codes, estimated):
        plane = _coded_plane(codes, estimated)
        emit_csv(plane, tmp_path / "new.csv")
        reference_scan.emit_csv(plane, tmp_path / "reference.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        rows = list(csv.DictReader((tmp_path / "new.csv").read_text().splitlines()))
        assert [row["N1"] for row in rows] == ["1" if code == 1 else "0"
                                               for code in np.ravel(codes).tolist()]
        assert [i for i, row in enumerate(rows) if row["c_num"]] == sorted(estimated)


def _covered_cells(path, nx: int, ny: int) -> dict[str, np.ndarray]:
    """How many ``<rect>``s of each criterion layer of an emitted SVG cover
    each (y, x) cell, by layer key.  The plot area is the axes frame; a rect
    must sit on the cell grid, up to the 2-decimal rounding of its numbers,
    and covers the cells its x and width span on the row its y names."""
    root = ET.parse(path).getroot()
    frame = next(el for el in root.iter() if el.get("id") == "axes")[0]
    left, top, pw, ph = (float(frame.get(a)) for a in ("x", "y", "width", "height"))
    cw, ch = pw / nx, ph / ny
    covered = {}
    for group in root.iter():
        if not group.get("id", "").startswith("criterion-"):
            continue
        counts = np.zeros((ny, nx), dtype=int)
        for rect in group:
            x, y, w, h = (float(rect.get(a)) for a in ("x", "y", "width", "height"))
            ix, iy, n = round((x - left) / cw), ny - 1 - round((y - top) / ch), round(w / cw)
            assert max(abs(x - left - ix * cw), abs(y - top - (ny - 1 - iy) * ch),
                       abs(w - n * cw), abs(h - ch)) <= 0.0051
            assert n >= 1 and 0 <= ix <= ix + n <= nx and 0 <= iy < ny
            counts[iy, ix:ix + n] += 1
        covered[group.get("id")[len("criterion-"):]] = counts
    return covered


class TestSvgRowRuns:
    """Each layer of the SVG covers exactly its hit cells, each once."""

    @staticmethod
    def _check(plane, path):
        emit_svg(plane, path)
        covered = _covered_cells(path, plane.xs.size, plane.ys.size)
        masks = dict(plane.masks())
        assert covered.keys() == {key for key, hits in masks.items() if hits.any()}
        for key, counts in covered.items():
            np.testing.assert_array_equal(counts, masks[key].astype(int), err_msg=key)

    @pytest.mark.parametrize("plane", ["sym", "k1d"])
    def test_default_planes(self, tmp_path, plane):
        self._check(scan_plane(ScanSpec(plane)), tmp_path / "map.svg")

    @settings(max_examples=60)
    @given(emitted_planes())
    def test_emitted_planes(self, tmp_path_factory, plane):
        self._check(plane, tmp_path_factory.mktemp("runs") / "map.svg")


class TestExchangeSymmetry:
    @settings(max_examples=60)
    @given(plane_specs(max_cells=60))
    def test_reflected_plane_has_the_opposite_signs(self, spec):
        # Exchanging the species, (d, r, k1, k2) -> (1/d, 1/r, k2, k1),
        # reverses the front: every sign flips and inconclusive stays.
        hits = scan_plane(spec).hits
        p = hits.params
        exchanged = theory.evaluate_criteria(theory.ParamArrays(1 / p.d, 1 / p.r, p.k2, p.k1))
        np.testing.assert_array_equal(exchanged.signs(), -hits.signs())


# sha256 of `wavespeed scan` output (numpy 2.4.6, x86-64), with an R_ column
# for every criterion row and one SVG <rect> per row run of a layer's hits.
# The k1d-3-40 --with-pde plane holds a cell whose oracle run fails, written
# as nan,inf,0; the k1d-2-1 one runs the oracle on two cells that both
# converge, so it pins c_num, stderr and converged.
GOLDEN = [
    ([], "818ce98a48a3af7b6ff270c19f9f3b697d7a19da31356793d4c12346fcb4cbfc",
     "010e4f7eaa172d4f9b3a6fd64319f8a839919a32572f33db9839e6071f057ebc"),
    (["--plane", "k1d", "--k2", "2", "--r", "1"],
     "ddbabdfb6c7d79f23aac2982e86d65485cc95751b88260e065f1343ef51c3812",
     "c78ad75c78e41e58a28c5aa006469826592bfea8c12a19ed7cfd8ffc55a39088"),
    (["--plane", "k1d", "--k2", "3", "--r", "40"],
     "085bc54afa023e1ce746bc83c4cc580ba1b980962ef2cfeef29622b774b7c043",
     "15bce15dfaf484eabb5002437f8d9861330b4e151fe3ad894c654eea1b56a3aa"),
    (["--plane", "k1d", "--k2", "3", "--r", "40", "--nx", "4", "--ny", "3", "--with-pde"],
     "eadd23f422213e11c7d738571dd7a2e955a74f3abf92d93ffe81b6312482cecf",
     "c5a999c63021d76c3fd3545c151da80f5d7f935f8b5800da64b602c067180647"),
    (["--plane", "k1d", "--k2", "2", "--r", "1", "--xrange", "3:10", "--yrange", "0.5:5",
      "--nx", "11", "--ny", "2", "--with-pde"],
     "0b53774f84e40539830bcb41507f1e622fe6913f3e5bb055dad99f1c8f4776e0",
     "5b2af8b81e15ad9b1cc65cdc09d1112d3bf0a076e41c62ad381b22f1f7f5cec4"),
]


class TestGoldenOutput:
    @pytest.mark.parametrize("flags, csv_sha, svg_sha", GOLDEN,
                             ids=["sym", "k1d-2-1", "k1d-3-40", "k1d-3-40-pde",
                                  "k1d-2-1-pde"])
    def test_scan_bytes(self, capsys, tmp_path, flags, csv_sha, svg_sha):
        assert cli.main(["scan", *flags, "--output-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert hashlib.sha256((tmp_path / "scan.csv").read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256((tmp_path / "scan.svg").read_bytes()).hexdigest() == svg_sha


# sha256 of the stdout and exit code of `wavespeed classify` on points that
# cover every verdict: N1/neg3/S1 beside reflected pos1, pos1 beside
# reflected N1/neg3/S1, region (i) with N2/S2/(viii), the inconclusive
# symmetric fixed point, and N2 alone.
CLASSIFY_POINTS = [(11, 1, 3, 3), (1 / 11, 1, 3, 3), (5.5, 1, 11 / 6, 11 / 6),
                   (1, 1, 2, 2), (7, 1, 1.8, 2)]
CLASSIFY_GOLDEN = "c1c9aa266b58afaf4f57d39bb2b2343ae9ce5fe3ede2c6a06a6ac3fdb8245938"


class TestClassifyGoldenOutput:
    def test_classify_bytes(self, capsys):
        digest = hashlib.sha256()
        for point in CLASSIFY_POINTS:
            code = cli.main(["classify", *(repr(float(v)) for v in point)])
            digest.update(f"exit {code}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == CLASSIFY_GOLDEN
