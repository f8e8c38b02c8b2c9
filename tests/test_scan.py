import csv
import hashlib
import math
import re
from dataclasses import replace
from xml.etree import ElementTree as ET

import numpy as np
import pytest

from wavespeed import cli, theory
from wavespeed.model import ParameterError, validate
from wavespeed.pde import default_config
from wavespeed.theory import (
    CRITERIA,
    CriterionId,
    PolarityConflictError,
    Sign,
    classify,
    degenerate_ratio_bound,
)
from wavespeed.scan import (
    _SVG_STYLE,
    ScanSpec,
    emit_csv,
    emit_svg,
    mask_counts,
    plane_spec,
    scan_plane,
)


@pytest.fixture(scope="module")
def sym_spec():
    return ScanSpec(
        plane="sym", x_range=(1.0, 10.0), y_range=(1.0 + 1e-9, 4.0), nx=31, ny=16
    )


@pytest.fixture(scope="module")
def sym_samples(sym_spec):
    return scan_plane(sym_spec)


class TestScanPlane:
    def test_row_major_ordering_and_shape(self, sym_spec, sym_samples):
        assert len(sym_samples) == sym_spec.nx * sym_spec.ny
        xs = sym_spec.x_values()
        ys = sym_spec.y_values()
        assert sym_samples[0].x == xs[0] and sym_samples[0].y == ys[0]
        assert sym_samples[sym_spec.nx - 1].x == xs[-1]
        assert sym_samples[sym_spec.nx].y == ys[1]

    def test_determinism(self, sym_spec, sym_samples):
        again = scan_plane(sym_spec)
        for a, b in zip(sym_samples, again):
            assert a.x == b.x and a.y == b.y
            assert a.verdicts == b.verdicts
            assert a.combined.sign == b.combined.sign

    def test_no_cell_in_both_polarity_masks(self, sym_samples):
        for s in sym_samples:
            votes = {-1: False, +1: False}
            for row in CRITERIA:
                votes[row.polarity] |= s.verdicts[row.id]
                votes[-row.polarity] |= s.reflected_verdicts[row.id]
            assert not (votes[-1] and votes[+1])

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
            scan_plane(plane_spec("sym", nx=3, ny=3))

    def test_combined_consistent_with_masks(self, sym_samples):
        for s in sym_samples:
            if s.combined.sign is Sign.INCONCLUSIVE:
                assert not any(s.verdicts.values())
                assert not any(s.reflected_verdicts.values())

    def test_prior_cells_classified_negative(self, sym_samples):
        priors = [
            CriterionId.PRIOR_I, CriterionId.PRIOR_II, CriterionId.PRIOR_III,
            CriterionId.PRIOR_VII, CriterionId.PRIOR_VIII,
        ]
        hit = 0
        for s in sym_samples:
            if any(s.verdicts[c] for c in priors):
                hit += 1
                assert s.combined.sign is Sign.NEGATIVE
        assert hit > 0

    def test_neg3_mask_is_upset_in_k1(self):
        spec = ScanSpec(
            plane="k1d", x_range=(1.1, 40.0), y_range=(0.5, 2.0),
            nx=25, ny=3, x_scale="log", k2=2.0,
        )
        samples = scan_plane(spec)
        ys = sorted({s.y for s in samples})
        for y in ys:
            row = [s for s in samples if s.y == y]
            row.sort(key=lambda s: s.x)
            fired = [s.verdicts[CriterionId.NEG3] for s in row]
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
        for s in scan_plane(spec):
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
        spec = plane_spec("k1d", k2=3.0, nx=3, ny=2)
        lines = reference_lines(scan_plane(spec), tmp_path / "k2-3.svg")
        assert lines["k2_squared"] == pytest.approx(pixel_of(spec, spec.k2 ** 2), abs=0.01)
        assert lines["sqrt_k2"] == pytest.approx(pixel_of(spec, math.sqrt(spec.k2)), abs=0.01)

    def test_requires_the_k1d_plane(self, tmp_path):
        # The verticals are levels of k1, so the sym plane draws none.
        assert reference_lines(scan_plane(plane_spec("sym", nx=3, ny=2)),
                               tmp_path / "sym.svg") == {}

    def test_degenerate_mask_needs_k1_above_k2_squared(self, fig2_plane):
        fired = [s for s in fig2_plane if s.verdicts[CriterionId.DEG_NEG]]
        assert fired
        assert all(s.x > 4.0 for s in fired)

    def test_degenerate_envelope_matches_bound(self, fig2_plane):
        xs = sorted({s.x for s in fig2_plane})
        col = min((x for x in xs if x > 7.5), key=lambda x: abs(x - 8.0))
        fired_y = [
            s.y for s in fig2_plane
            if s.x == col and s.verdicts[CriterionId.DEG_NEG]
        ]
        assert fired_y
        bound = degenerate_ratio_bound(col, 2.0)
        assert max(fired_y) <= bound
        # the grid resolves the envelope to within one log step
        ys = sorted({s.y for s in fig2_plane})
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
    def test_csv_structure_and_roundtrip(self, tmp_path, sym_spec, sym_samples):
        path = tmp_path / "scan.csv"
        emit_csv(sym_samples, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + sym_spec.nx * sym_spec.ny
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row, sample in zip(rows, sym_samples):
            assert float(row["x"]) == pytest.approx(sample.x, rel=1e-11)
            assert float(row["y"]) == pytest.approx(sample.y, rel=1e-11)
            assert row["combined"] == sample.combined.sign.value
            for cid, hit in sample.verdicts.items():
                assert row[cid.value] == str(int(hit))
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

    def test_svg_wellformed_with_groups(self, tmp_path, sym_samples):
        path = tmp_path / "scan.svg"
        emit_svg(sym_samples, path)
        tree = ET.parse(path)  # raises on malformed XML
        root = tree.getroot()
        assert root.tag.endswith("svg")
        groups = [
            el for el in root.iter()
            if el.tag.endswith("g") and el.get("id", "").startswith("criterion-")
        ]
        fired = {k for k, v in mask_counts(sym_samples).items() if v > 0}
        assert {g.get("id")[len("criterion-"):] for g in groups} == fired

    def test_every_criterion_column_is_styled(self):
        # One (direct, reflected) pair of layers per row.
        assert set(_SVG_STYLE) == {row.id for row in CRITERIA}
        ranks = [layer[0] for style in _SVG_STYLE.values() for layer in style]
        assert sorted(ranks) == list(range(len(ranks)))

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
        emit_svg(scan_plane(plane_spec("k1d", nx=5, ny=3)), path)
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
                  nx=3, ny=3, k2=2.0), K1D_HEADER),
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
    def test_negative_index_and_bounds(self, sym_samples):
        assert sym_samples[-1] == sym_samples[len(sym_samples) - 1]
        with pytest.raises(IndexError):
            sym_samples[len(sym_samples)]

    def test_pde_stride_must_be_positive(self):
        with pytest.raises(ParameterError, match="pde_stride >= 1"):
            plane_spec("k1d", with_pde=True, pde_stride=0)

    def test_cell_count_capped(self):
        # The check runs before any axis is built.
        with pytest.raises(ParameterError, match="exceeds 10000000 cells"):
            plane_spec("sym", nx=10**6, ny=10**6)
        with pytest.raises(ParameterError, match="exceeds 10000000 cells"):
            plane_spec("k1d", nx=10**7 // 2, ny=3)
        assert plane_spec("k1d", nx=10**7 // 2, ny=2).nx == 5 * 10**6

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
            plane_spec(plane, **fields)

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


# sha256 of `wavespeed scan` output (numpy 2.4.6, x86-64), with an R_ column
# for every criterion row.  The --with-pde plane holds a cell whose oracle run
# fails, written as nan,inf,0.
GOLDEN = [
    ([], "818ce98a48a3af7b6ff270c19f9f3b697d7a19da31356793d4c12346fcb4cbfc",
     "38c4d575254d44ce9db3691ec47ecc7ab80d86216e78cfe980286cf291da5e75"),
    (["--plane", "k1d", "--k2", "2", "--r", "1"],
     "ddbabdfb6c7d79f23aac2982e86d65485cc95751b88260e065f1343ef51c3812",
     "1e147040549245ea89ba7b775ec78f0807d6213ad8cb0176c500391caf107b7a"),
    (["--plane", "k1d", "--k2", "3", "--r", "40"],
     "085bc54afa023e1ce746bc83c4cc580ba1b980962ef2cfeef29622b774b7c043",
     "669e569199361f5079a8cc9ba0eb9a8086e3eb5751a7c6711bd62fa76674a036"),
    (["--plane", "k1d", "--k2", "3", "--r", "40", "--nx", "4", "--ny", "3", "--with-pde"],
     "eadd23f422213e11c7d738571dd7a2e955a74f3abf92d93ffe81b6312482cecf",
     "96005ade2d6cb18fd0d361a38819402e7afce73c2772a56c4faa56ebdb709390"),
]


class TestGoldenOutput:
    @pytest.mark.parametrize("flags, csv_sha, svg_sha", GOLDEN,
                             ids=["sym", "k1d-2-1", "k1d-3-40", "k1d-3-40-pde"])
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
