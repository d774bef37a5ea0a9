import hashlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subplanck import wigner
from subplanck.cli import main, parse_complex


def _read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return comments, header, np.array(rows)


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0+4i", 4j),
            ("3", 3.0),
            ("4i", 4j),
            ("-1.5-2i", -1.5 - 2j),
            ("1+i", 1 + 1j),
            ("-i", -1j),
            ("2.5e-1+0i", 0.25),
        ],
    )
    def test_forms(self, text, value):
        assert parse_complex(text) == pytest.approx(value)

    def test_rejects_garbage(self):
        with pytest.raises(Exception):
            parse_complex("four")


class TestWignerCommand:
    def test_cat_field_files(self, tmp_path):
        out = tmp_path / "cat"
        assert main(["wigner", "--alpha", "0+4i", "--m", "2", "--out", str(out)]) == 0
        comments, header, rows = _read_csv(tmp_path / "cat.csv")
        assert header == ["re", "im", "w"]
        assert comments[0].startswith("# subplanck wigner")
        pgm = (tmp_path / "cat.pgm").read_bytes()
        assert pgm.startswith(b"P5\n")
        # two lobes at +-4i plus tall central fringes
        w = rows[:, 2]
        assert w.max() > 1.9
        center = rows[np.argmin(rows[:, 0] ** 2 + rows[:, 1] ** 2)]
        assert abs(center[2]) > 1.5

    def test_vacuum_peak_pixel_at_center(self, tmp_path):
        out = tmp_path / "vac"
        assert main(["wigner", "--alpha", "0+0i", "--m", "1", "--gammas", "0", "--out", str(out)]) == 0
        data = (tmp_path / "vac.pgm").read_bytes()
        head, raster = data.split(b"255\n", 1)
        nx, ny = (int(v) for v in head.split(b"\n")[1].split())
        img = np.frombuffer(raster, dtype=np.uint8).reshape(ny, nx)
        iy, ix = np.unravel_index(np.argmax(img), img.shape)
        assert img[iy, ix] == 255
        assert abs(ix - (nx - 1) / 2) <= 0.5 and abs(iy - (ny - 1) / 2) <= 0.5

    def test_product_mode_cancellation(self, tmp_path, capsys):
        beta = np.pi / (2 * np.sqrt(2) * 4)
        code = main([
            "wigner", "--alpha", "0+4i", "--m", "4", "--product",
            "--pert", "displacement", "--s", f"{beta:.17g}", "--phi", f"{np.pi/4:.17g}",
            "--out", str(tmp_path / "prod"),
        ])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("product_integral=")
        assert abs(float(line.split("=")[1])) < 1e-3

    def test_range_edge_field_is_finite(self, tmp_path):
        out = tmp_path / "edge"
        assert main([
            "wigner", "--alpha", "0+20i", "--m", "2", "--bounds", "-0.5", "0.5", "-0.5", "0.5",
            "--nx", "61", "--ny", "61", "--out", str(out),
        ]) == 0
        _, _, rows = _read_csv(tmp_path / "edge.csv")
        assert rows.shape == (61 * 61, 3)
        assert np.all(np.isfinite(rows))
        assert rows[:, 2].max() > 1.9  # central cat fringe at full height

    def test_non_finite_field_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(wigner, "_axis_factors", lambda points, centres, k: np.full((points.size, centres.size), np.nan))
        out = tmp_path / "nan"
        assert main(["wigner", "--alpha", "0+2i", "--m", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_perturbed_field_underresolution_is_reported(self, tmp_path, capsys):
        # the base cat is resolved at this step but the state displaced to 6i is not
        argv = [
            "wigner", "--alpha", "0+4i", "--m", "2", "--pert", "displacement", "--s", "2",
            "--phi", "1.5707963267948966", "--bounds", "-8", "8", "-8", "8", "--nx", "201", "--ny", "201",
            "--out", str(tmp_path / "x"),
        ]
        with pytest.warns(wigner.UnderresolvedGridWarning):
            assert main(argv) == 0
        assert "warning: grid under-resolves the interference fringes" in capsys.readouterr().err

    def test_product_requires_pert(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["wigner", "--alpha", "0+4i", "--m", "4", "--product", "--out", str(tmp_path / "x")])


class TestOverlapCommand:
    def test_cat_fringe_zeros(self, tmp_path):
        out = tmp_path / "ov.csv"
        assert main([
            "overlap", "--alpha", "0+4i", "--m", "2", "--pert", "displacement",
            "--s-max", "0.4", "--points", "129", "--out", str(out),
        ]) == 0
        _, header, rows = _read_csv(out)
        assert header == ["magnitude", "exact", "approx"]
        s, exact, approx = rows[:, 0], rows[:, 1], rows[:, 2]
        np.testing.assert_allclose(approx, (1 + np.cos(16 * s)) / 2, atol=1e-12)
        # one overlap zero fits inside [0, 0.4]: s = pi/16; revival near pi/8
        assert exact[np.argmin(np.abs(s - np.pi / 16))] < 1e-3
        assert exact[np.argmin(np.abs(s - np.pi / 8))] > 0.8

    def test_single_coherent_gaussian_decay(self, tmp_path):
        out = tmp_path / "sql.csv"
        assert main([
            "overlap", "--alpha", "3+0i", "--m", "1", "--gammas", "0", "--phi", "0.0",
            "--s-max", "1.0", "--points", "11", "--out", str(out),
        ]) == 0
        _, _, rows = _read_csv(out)
        s, exact, approx = rows[:, 0], rows[:, 1], rows[:, 2]
        np.testing.assert_allclose(exact, np.exp(-(s**2)), atol=1e-12)
        np.testing.assert_allclose(approx, 1.0, atol=1e-12)  # no fringes at all

    def test_quadrature_column(self, tmp_path):
        out = tmp_path / "ovq.csv"
        assert main([
            "overlap", "--alpha", "0+2i", "--m", "2", "--s-max", "0.3", "--points", "5",
            "--quadrature", "--out", str(out),
        ]) == 0
        _, header, rows = _read_csv(out)
        assert header[-1] == "quadrature"
        np.testing.assert_allclose(rows[:, 3], rows[:, 1], atol=1e-6)

    def test_quadrature_column_large_compass(self, tmp_path):
        # |alpha| = 20 needs a 2463 x 2459 grid; the factor-space quadrature
        # stays at the Gram overlap through the first dark fringe
        out = tmp_path / "ovq20.csv"
        assert main([
            "overlap", "--alpha", "0+20i", "--m", "4", "--s-max", "0.1", "--points", "9",
            "--quadrature", "--out", str(out),
        ]) == 0
        _, _, rows = _read_csv(out)
        assert rows[:, 1].min() < 1e-2
        assert np.max(np.abs(rows[:, 3] - rows[:, 1])) <= 1e-9

    def test_quadrature_non_finite_factors_exit_nonzero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(wigner, "_axis_factors", lambda points, centres, k: np.full((points.size, centres.size), np.nan))
        out = tmp_path / "nan.csv"
        code = main(["overlap", "--alpha", "0+2i", "--m", "2", "--s-max", "0.3", "--points", "5", "--quadrature",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_rotation_zeros(self, tmp_path):
        out = tmp_path / "rot.csv"
        assert main([
            "overlap", "--alpha", "0+4i", "--m", "2", "--pert", "rotation",
            "--s-max", "0.15", "--points", "301", "--out", str(out),
        ]) == 0
        _, _, rows = _read_csv(out)
        theta, exact = rows[:, 0], rows[:, 1]
        # first dark fringe is deep; the next one has reduced contrast
        # because the Gaussian envelope has decayed to ~0.5 by 3 pi/64
        assert exact[np.argmin(np.abs(theta - np.pi / 64))] < 2e-2
        assert exact[np.argmin(np.abs(theta - 3 * np.pi / 64))] < 0.12


class TestProtocolCommand:
    def test_dispersive_fringe_table(self, tmp_path):
        out = tmp_path / "disp.csv"
        # 65 points over [0, pi/4] place s = pi/8 exactly on the grid
        assert main([
            "protocol", "--regime", "dispersive", "--alpha", "0+4i",
            "--s-max", f"{np.pi / 4:.17g}", "--points", "65", "--out", str(out),
        ]) == 0
        comments, header, rows = _read_csv(out)
        assert header == ["s", "p_e", "p_g"]
        assert "regime=dispersive" in comments[0]
        s, p_e, p_g = rows[:, 0], rows[:, 1], rows[:, 2]
        assert p_e[0] == 0.0
        np.testing.assert_allclose(p_e, (1 - np.cos(16 * s)) / 2, atol=1e-12)
        np.testing.assert_allclose(p_e + p_g, 1.0, atol=1e-12)
        # fringe period pi/8: the first return to zero
        idx = np.argmin(np.abs(s - np.pi / 8))
        assert p_e[idx] < 1e-10

    def test_resonant_starts_bright(self, tmp_path):
        out = tmp_path / "res.csv"
        assert main([
            "protocol", "--regime", "resonant", "--alpha", "0+4i",
            "--s-max", "0.2", "--points", "5", "--out", str(out),
        ]) == 0
        _, _, rows = _read_csv(out)
        assert rows[0, 1] == 1.0


class TestEstimateCommand:
    def test_summary_and_rows(self, tmp_path, capsys):
        out = tmp_path / "est.csv"
        assert main([
            "estimate", "--alpha", "0+4i", "--repetitions", "4000", "--trials", "64",
            "--seed", "9", "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "empirical_sigma=" in printed and "theory_sigma=" in printed
        comments, header, rows = _read_csv(out)
        assert header == ["trial", "r", "s_tilde"]
        assert rows.shape == (64, 3)
        assert any("summary" in c for c in comments)
        # mid-fringe default: estimates cluster around pi/32
        assert abs(rows[:, 2].mean() - np.pi / 32) < 0.01


class TestFeasibilityCommand:
    def test_cavity_report(self, capsys):
        assert main(["feasibility", "--omega0", "3e5", "--nbar", "20", "--budget", "0.015"]) == 0
        out = capsys.readouterr().out
        assert "decoherence_threshold_s=0.001873" in out
        assert "verdict=insufficient" in out

    def test_ion_report_via_period(self, capsys):
        assert main([
            "feasibility", "--period", "140e-6", "--nbar", "20", "--budget", "0.01", "--regime", "ion",
        ]) == 0
        out = capsys.readouterr().out
        assert "interaction_time_s=0.000626" in out
        assert "verdict=favorable" in out


class TestDeterminismAndErrors:
    def test_byte_identical_reruns(self, tmp_path):
        argsets = [
            ["wigner", "--alpha", "0+2i", "--m", "2", "--out", None],
            ["overlap", "--alpha", "0+2i", "--m", "2", "--s-max", "0.3", "--points", "17", "--out", None],
            ["protocol", "--regime", "resonant", "--alpha", "0+2i", "--s-max", "0.3", "--points", "9", "--out", None],
            ["estimate", "--alpha", "0+4i", "--repetitions", "500", "--trials", "16", "--seed", "3", "--out", None],
        ]
        for args in argsets:
            blobs = []
            for run in ("a", "b"):
                target = tmp_path / f"{args[0]}_{run}"
                argv = [v if v is not None else str(target) for v in args]
                assert main(argv) == 0
                paths = sorted(tmp_path.glob(f"{args[0]}_{run}*"))
                blobs.append(b"".join(p.read_bytes() for p in paths))
            assert blobs[0] == blobs[1]

    def test_argument_errors_exit_nonzero(self):
        with pytest.raises(SystemExit) as err:
            main(["overlap", "--alpha", "0+4i"])  # missing required --s-max/--out
        assert err.value.code != 0

    def test_validation_error_leaves_no_file(self, tmp_path):
        out = tmp_path / "bad.csv"
        code = main([
            "estimate", "--alpha", "0+4i", "--trials", "0", "--out", str(out),
        ])
        assert code == 1
        assert not out.exists()
        assert not list(tmp_path.glob(".subplanck-*"))

    def test_output_mode_follows_umask(self, tmp_path):
        out = tmp_path / "pe.csv"
        previous = os.umask(0o022)
        try:
            code = main(["protocol", "--regime", "dispersive", "--alpha", "0+4i", "--s-max", "0.4", "--points", "5",
                         "--out", str(out)])
        finally:
            os.umask(previous)
        assert code == 0
        assert out.stat().st_mode & 0o777 == 0o644


def test_cli_import_loads_no_scipy():
    # scipy is most of a cold start and the CLI needs none of it to import
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import subplanck.cli, sys; print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


class TestPinnedOutputs:
    """sha256 of CLI outputs.  Any change to their arithmetic or formatting
    alters these bytes and must be recorded as a change of output."""

    CASES = {
        "protocol_dispersive": (
            ["protocol", "--regime", "dispersive", "--alpha", "0+4i", "--s-max", "0.4", "--points", "65"],
            "98407d92b1b1caca9fbebb676d4dfe422ad0f5c9e54fa15d5094ed385bcf56b1",
        ),
        "protocol_resonant": (
            ["protocol", "--regime", "resonant", "--alpha", "1+3i", "--pert", "rotation", "--dt-fraction", "0.7",
             "--s-max", "0.05", "--points", "33"],
            "45da605ba7172c451e572b926c2b475e68edbcc5292ca488274db4a1a79e7c68",
        ),
        "estimate_dispersive": (
            ["estimate", "--alpha", "0+4i", "--repetitions", "4000", "--trials", "64", "--seed", "9"],
            "7e2630a2c3d5c04051146510e2092ef3344a25579f2cfa4a3071e446929c68b9",
        ),
        "estimate_resonant": (
            ["estimate", "--alpha", "2-3i", "--s", "0.03", "--repetitions", "250000", "--trials", "16", "--seed", "5",
             "--convention", "resonant"],
            "443db90df3875ecd391116d42a6138c4e7854c23af049896f3be5ee550abf5f9",
        ),
        "overlap_displacement": (
            ["overlap", "--alpha", "0+4i", "--m", "2", "--s-max", "0.4", "--points", "129"],
            "d236c092df25d70407afb16721a7aaf73c20ea3016db2035c620278bbc2ee4d1",
        ),
        "overlap_rotation": (
            ["overlap", "--alpha", "3+1i", "--m", "4", "--gammas", "0,0.5,1,1.5", "--pert", "rotation",
             "--s-max", "0.05", "--points", "41"],
            "043669972630de55ba3704903b6df45d5517c82942928d6e7e50a2c891efda3b",
        ),
        # the quadrature column is pinned as of the factor-space kernel; it
        # moved by <= 5.6e-16 from the sampled-grid trapezoid sums before it
        "overlap_quadrature": (
            ["overlap", "--alpha", "0+4i", "--m", "2", "--s-max", "0.4", "--points", "33", "--quadrature"],
            "4fea0d324026aca64483859d8eeab04f5246aa71b2fa19b714b7cf62337ffd94",
        ),
    }

    # (argv, CSV sha256, PGM sha256) of `wigner` renders: the README cat and
    # compass product, the gallery's rotated displaced cat, and the |alpha| = 20
    # range edge
    WIGNER_CASES = {
        "cat": (
            ["wigner", "--alpha", "0+4i", "--m", "2"],
            "ae982d9221374022482f9300f7d4093d97b33b778148f59b28f60e3a177f05d8",
            "f6a2ea6820adcbde01b992ced846f17d9e18a8f552ff244d4d6d181f04399fa0",
        ),
        "cat_rotated": (
            ["wigner", "--alpha", "0+4i", "--m", "2", "--displace", "0+4i", "--pert", "rotation",
             "--s", f"{math.pi / 64:.17g}"],
            "867dda2a4c42b5599cdc5685fdb3789ba54d84a933574ac0e2038148aff709d2",
            "33f5e4d1a593ea56126f360b1e2845dd9c71f219229b0be7dccad6b794d3930e",
        ),
        "range_edge_a20": (
            ["wigner", "--alpha", "0+20i", "--m", "2", "--bounds", "-0.5", "0.5", "-0.5", "0.5",
             "--nx", "61", "--ny", "61"],
            "859f66b63c6121375db0bf51c4779c5f3ea1cb4876faa7317e161f421f478ce1",
            "cc37e42319560087422f662bd60a5104c6460dcc4390d60f78be675691d77be1",
        ),
        "compass_product": (
            ["wigner", "--alpha", "0+4i", "--m", "4", "--product", "--pert", "displacement",
             "--s", "0.2776801836348979", "--phi", "0.7853981633974483"],
            "41e7b06f9eda6f950b82ade230441aa991396bbbd71827cd0f0e9c1d1bbb802c",
            "eed9dd2f0feb948248a46edc0c732da5259ef104865087e8af92e3165608b85b",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_digest(self, tmp_path, name):
        argv, digest = self.CASES[name]
        out = tmp_path / f"{name}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(WIGNER_CASES))
    def test_wigner_digest(self, tmp_path, name):
        argv, csv_digest, pgm_digest = self.WIGNER_CASES[name]
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.with_suffix(".csv").read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256(out.with_suffix(".pgm").read_bytes()).hexdigest() == pgm_digest


def test_gallery_script_renders(tmp_path, capsys):
    # the only caller of --displace, --pert rotation without --product, and
    # two --product renders in one run
    script = Path(__file__).resolve().parents[1] / "scripts" / "render_wigner_gallery.py"
    spec = importlib.util.spec_from_file_location("render_wigner_gallery", script)
    gallery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gallery)
    assert gallery.run(tmp_path) == 0
    assert len(list(tmp_path.glob("*.csv"))) == 5
    assert len(list(tmp_path.glob("*.pgm"))) == 5
    assert "wrote 5 CSV and 5 PGM files" in capsys.readouterr().out
