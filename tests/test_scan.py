import hashlib
import math
from xml.etree import ElementTree as ET

import numpy as np
import pytest

from wavespeed import cli
from wavespeed.model import ParameterError, validate
from wavespeed.pde import default_config
from wavespeed.theory import CRITERIA, CriterionId, Sign, classify, degenerate_ratio_bound
from wavespeed.scan import (
    _SVG_STYLE,
    ScanSpec,
    emit_csv,
    emit_svg,
    figure2_dataset,
    load_csv,
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
        negative = [
            CriterionId.N1, CriterionId.N2, CriterionId.NEG3, CriterionId.S1,
            CriterionId.S2, CriterionId.DEG_NEG, CriterionId.PRIOR_I,
            CriterionId.PRIOR_II, CriterionId.PRIOR_III, CriterionId.PRIOR_VII,
            CriterionId.PRIOR_VIII,
        ]
        for s in sym_samples:
            neg = any(s.verdicts[c] for c in negative)
            pos = any(s.verdicts[c] for c in (CriterionId.POS1, CriterionId.DEG_POS))
            pos = pos or any(s.reflected_verdicts.values())
            assert not (neg and pos)

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
def dataset():
    spec = ScanSpec(
        plane="k1d", x_range=(1.05, 60.0), y_range=(1e-3, 1e2),
        nx=41, ny=31, x_scale="log", y_scale="log", k2=2.0,
    )
    return figure2_dataset(spec)


class TestFigure2:
    def test_reference_lines(self, dataset):
        assert dataset.reference_k1["sqrt_k2"] == pytest.approx(math.sqrt(2.0))
        assert dataset.reference_k1["k2"] == 2.0
        assert dataset.reference_k1["k2_squared"] == 4.0

    def test_reference_lines_follow_the_spec(self):
        spec = plane_spec("k1d", k2=2.0, nx=3, ny=2)
        reference = figure2_dataset(spec).reference_k1
        assert reference["k2_squared"] == spec.k2 ** 2
        assert reference["sqrt_k2"] == math.sqrt(spec.k2)

    def test_requires_the_k1d_plane(self):
        with pytest.raises(ParameterError):
            figure2_dataset(plane_spec("sym", nx=3, ny=2))

    def test_degenerate_mask_needs_k1_above_k2_squared(self, dataset):
        fired = [s for s in dataset.samples if s.verdicts[CriterionId.DEG_NEG]]
        assert fired
        assert all(s.x > 4.0 for s in fired)

    def test_degenerate_envelope_matches_bound(self, dataset):
        xs = sorted({s.x for s in dataset.samples})
        col = min((x for x in xs if x > 7.5), key=lambda x: abs(x - 8.0))
        fired_y = [
            s.y for s in dataset.samples
            if s.x == col and s.verdicts[CriterionId.DEG_NEG]
        ]
        assert fired_y
        bound = degenerate_ratio_bound(col, 2.0)
        assert max(fired_y) <= bound
        # the grid resolves the envelope to within one log step
        ys = sorted({s.y for s in dataset.samples})
        step = ys[1] / ys[0]
        assert max(fired_y) * step * step > bound

    def test_symmetric_point_inconclusive(self):
        spec = ScanSpec(
            plane="k1d", x_range=(2.0, 4.0), y_range=(1.0, 2.0), nx=2, ny=2,
            k2=2.0,
        )
        samples = figure2_dataset(spec).samples
        corner = [s for s in samples if s.x == 2.0 and s.y == 1.0]
        assert corner[0].combined.sign is Sign.INCONCLUSIVE


class TestEmission:
    def test_csv_structure_and_roundtrip(self, tmp_path, sym_spec, sym_samples):
        path = tmp_path / "scan.csv"
        emit_csv(sym_samples, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + sym_spec.nx * sym_spec.ny
        rows = load_csv(path)
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
        for row in CRITERIA:
            direct, reflected = _SVG_STYLE[row.id]
            assert direct is not None
            assert (reflected is not None) == row.reflectable
        ranks = [layer[0] for style in _SVG_STYLE.values() for layer in style if layer]
        assert sorted(ranks) == list(range(len(ranks)))

    def test_svg_reference_lines(self, tmp_path):
        spec = ScanSpec(
            plane="k1d", x_range=(1.05, 60.0), y_range=(1e-2, 1e2),
            nx=11, ny=11, x_scale="log", y_scale="log", k2=2.0,
        )
        ds = figure2_dataset(spec)
        path = tmp_path / "fig2.svg"
        emit_svg(ds.samples, path, {"reference_x": ds.reference_k1})
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
    "x,y,N1,N2,NEG3,S1,S2,DEG_NEG,POS1,DEG_POS,"
    "PRIOR_I,PRIOR_II,PRIOR_III,PRIOR_VII,PRIOR_VIII,"
    "R_N1,R_N2,R_NEG3,R_S1,R_S2,"
    "R_PRIOR_I,R_PRIOR_II,R_PRIOR_III,R_PRIOR_VII,R_PRIOR_VIII,"
    "combined,c_num,stderr,converged"
)
K1D_HEADER = (
    "x,y,N1,N2,NEG3,DEG_NEG,POS1,DEG_POS,R_N1,R_N2,R_NEG3,"
    "combined,c_num,stderr,converged"
)


class TestCriterionColumns:
    @pytest.mark.parametrize("spec, header", [
        (ScanSpec(plane="sym", x_range=(1.0, 10.0), y_range=(1.0 + 1e-9, 4.0),
                  nx=12, ny=9), SYM_HEADER),
        # The grid holds the symmetric cell k1 = k2 = 2, d/r = 1 at r = 1.
        (ScanSpec(plane="k1d", x_range=(1.5, 2.5), y_range=(0.5, 1.5),
                  nx=3, ny=3, k2=2.0), K1D_HEADER),
    ])
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


# sha256 of `wavespeed scan` output as the per-cell ElementTree writer
# produced it (numpy 2.4.6, x86-64).  The --with-pde plane holds a cell whose
# oracle run fails, written as nan,inf,0.
GOLDEN = [
    ([], "fb69ab1635bbf0806904bded3055215580bc9427e972bef128c70c9bd67bb826",
     "14f199f63ca435bcb86560b49712302077a15d355e0146fbe9ab136e2f344954"),
    (["--plane", "k1d", "--k2", "2", "--r", "1"],
     "c079d438e102d4c8fc0e4dd5290a321ce4a7ac0a9970218de64b9f41174fa539",
     "3aadc53467762839007db9e4df9332053716b01c12f6949fa84053ca5a420b59"),
    (["--plane", "k1d", "--k2", "3", "--r", "40"],
     "d4189fb6fe871702e965377995fa243f5fc14a555c6befc42b13baede52a1c61",
     "05304f29f3df41dcb389c61a86d1158c20c09ef52f6dbbe8fdd29d24681395d3"),
    (["--plane", "k1d", "--k2", "3", "--r", "40", "--nx", "4", "--ny", "3", "--with-pde"],
     "48853d2401a92653f2adcc20664c72a2605991f9557d1566b7d4ade15a3b0a8d",
     "72d2825b7eaf172fbdde2a0df9fef3f8d6820e5e9faebd1561331796947a6356"),
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
# cover every verdict: N1/neg3/S1, pos1 beside reflected hits, region (i)
# with N2/S2/(viii), the inconclusive symmetric fixed point, and N2 alone.
CLASSIFY_POINTS = [(11, 1, 3, 3), (1 / 11, 1, 3, 3), (5.5, 1, 11 / 6, 11 / 6),
                   (1, 1, 2, 2), (7, 1, 1.8, 2)]
CLASSIFY_GOLDEN = "cd345de38cddb12d304526f03905e6e6008ede17dc0ba7330ae9faba3ff5c4bb"


class TestClassifyGoldenOutput:
    def test_classify_bytes(self, capsys):
        digest = hashlib.sha256()
        for point in CLASSIFY_POINTS:
            code = cli.main(["classify", *(repr(float(v)) for v in point)])
            digest.update(f"exit {code}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == CLASSIFY_GOLDEN
