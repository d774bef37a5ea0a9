import hashlib
import importlib.util
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from subplanck import protocol, states, wigner
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

    def test_perturbed_field_underresolution_is_reported(self, tmp_path):
        # the base cat is resolved at this step but the state displaced to 6i
        # is not; its UnderresolvedGridWarning is the one report on stderr
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [
            "wigner", "--alpha", "0+4i", "--m", "2", "--pert", "displacement", "--s", "2",
            "--phi", "1.5707963267948966", "--bounds", "-8", "8", "-8", "8", "--nx", "201", "--ny", "201",
            "--out", "x",
        ]
        result = subprocess.run([sys.executable, "-m", "subplanck.cli", *argv], cwd=tmp_path, env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stderr.count("under-resolve") == 1, result.stderr
        assert "UnderresolvedGridWarning" in result.stderr

    def test_product_requires_pert(self, tmp_path, capsys):
        assert main(["wigner", "--alpha", "0+4i", "--m", "4", "--product", "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["wigner"], ["overlap", "--s-max", "0.3"]])
    def test_wrong_gamma_count_exits_nonzero(self, tmp_path, capsys, command):
        argv = [*command, "--alpha", "0+4i", "--m", "4", "--gammas", "0,1", "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: expected 4 gamma phases, got 2\n"
        assert list(tmp_path.iterdir()) == []

    def test_product_underresolution_reported_once_per_field(self, tmp_path):
        # both rendered fields are under-resolved on this grid; each reports
        # itself once and the product integral adds no report of its own
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [
            "wigner", "--alpha", "0+4i", "--m", "4", "--product", "--pert", "displacement", "--s", "0.27",
            "--phi", "0.78", "--bounds", "-8", "8", "-8", "8", "--nx", "41", "--ny", "41", "--out", "u",
        ]
        result = subprocess.run([sys.executable, "-m", "subplanck.cli", *argv], cwd=tmp_path, env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stderr.count("UnderresolvedGridWarning") == 2, result.stderr
        assert result.stderr.count("under-resolved") == 2, result.stderr

    @pytest.mark.parametrize(
        "grid_args",
        [
            ["--bounds", "-1", "1", "-1", "1"],
            ["--nx", "11", "--ny", "11"],
            ["--nx", "0", "--ny", "0", "--bounds", "-1", "1", "-1", "1"],
        ],
        ids=["bounds_without_counts", "counts_without_bounds", "zero_counts"],
    )
    def test_explicit_grid_is_all_or_none(self, tmp_path, capsys, grid_args):
        # a partial or invalid explicit grid is an error, never a silent
        # fall-back to the auto grid
        argv = ["wigner", "--alpha", "0+2i", "--m", "2", *grid_args, "--out", str(tmp_path / "a")]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ")
        assert out == ""
        assert list(tmp_path.iterdir()) == []


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

    def test_resonant_at_zero_amplitude(self, tmp_path):
        # no fringe at alpha = 0: every row is bright, with the regime warning
        out = tmp_path / "res0.csv"
        with pytest.warns(UserWarning, match="mesoscopic"):
            assert main([
                "protocol", "--regime", "resonant", "--alpha", "0",
                "--s-max", "0.1", "--points", "3", "--out", str(out),
            ]) == 0
        _, _, rows = _read_csv(out)
        assert rows[:, 1].tolist() == [1.0, 1.0, 1.0]
        assert rows[:, 2].tolist() == [0.0, 0.0, 0.0]

    def test_infinite_s_max_rejected_before_the_sweep(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([
                "protocol", "--regime", "dispersive", "--alpha", "0+4i",
                "--s-max", "inf", "--points", "3", "--out", str(tmp_path / "bad.csv"),
            ]) == 1
        assert capsys.readouterr().err == "error: perturbation magnitude must be finite and >= 0, got inf\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("regime", ["dispersive", "resonant"])
    def test_grid_is_one_evaluation(self, tmp_path, monkeypatch, regime):
        # the sweep builds no state and no protocol result per point
        calls = Counter()
        init, result_init = states.CoherentSuperposition.__init__, protocol.ProtocolResult.__init__

        def counted_state(self, *args):
            calls["state"] += 1
            init(self, *args)

        def counted_result(self, *args, **kwargs):
            calls["result"] += 1
            result_init(self, *args, **kwargs)

        monkeypatch.setattr(states.CoherentSuperposition, "__init__", counted_state)
        monkeypatch.setattr(protocol.ProtocolResult, "__init__", counted_result)
        counts = []
        for points in (3, 2000):
            calls.clear()
            assert main(["protocol", "--regime", regime, "--alpha", "0+4i", "--s-max", "0.2", "--points", str(points),
                         "--out", str(tmp_path / f"{points}.csv")]) == 0
            counts.append(dict(calls))
        assert counts[0] == counts[1]


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--alpha", "0+4i", "--s", "nan"],
            ["estimate", "--alpha", "0"],
            ["protocol", "--regime", "dispersive", "--alpha", "0+4i", "--s-max", "inf", "--points", "3"],
        ],
        ids=["estimate_nan_s", "estimate_zero_alpha", "protocol_infinite_s_max"],
    )
    def test_arithmetic_failure_exits_nonzero(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "bad.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["feasibility", "--omega0", "nan", "--nbar", "20", "--budget", "1"],
            ["estimate", "--alpha", "0+4i", "--s", "5", "--out", "bad.csv"],
            ["protocol", "--regime", "dispersive", "--alpha", "0+4i", "--s-max", "0.3", "--points", "0",
             "--out", "bad.csv"],
            ["overlap", "--alpha", "0+4i", "--m", "2", "--s-max", "-0.1", "--out", "bad.csv"],
            # the dispersive sequence has no interaction time; the flag was
            # ignored but recorded in the CSV header
            ["protocol", "--regime", "dispersive", "--alpha", "0+4i", "--dt-fraction", "0.3", "--s-max", "0.1",
             "--points", "3", "--out", "bad.csv"],
            # 16 components at radius 0.2 cancel in the Gram norm, which gave
            # an overlap of 1.0549 at s = 0
            ["overlap", "--alpha", "0.2", "--m", "16", "--gammas", ",".join(["0", repr(math.pi)] * 8),
             "--s-max", "0.1", "--points", "3", "--out", "bad.csv"],
        ],
        ids=["feasibility_nan_omega0", "estimate_s_beyond_branch", "protocol_zero_points", "overlap_negative_s_max",
             "protocol_dispersive_dt_fraction", "overlap_norm_lost_to_cancellation"],
    )
    def test_invalid_input_exits_nonzero(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ")
        assert out == ""
        assert list(tmp_path.iterdir()) == []

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


SCIPY_FREE_ARGV = [
    ["wigner", "--alpha", "0+2i", "--m", "2", "--out", "cat"],
    ["wigner", "--alpha", "0+2i", "--m", "4", "--product", "--pert", "displacement", "--s", "0.2", "--out", "prod"],
    ["overlap", "--alpha", "0+2i", "--m", "2", "--s-max", "0.3", "--points", "5", "--quadrature", "--out", "ov.csv"],
    ["overlap", "--alpha", "0+2i", "--m", "2", "--pert", "rotation", "--s-max", "0.1", "--points", "5",
     "--quadrature", "--out", "rot.csv"],
    ["protocol", "--regime", "dispersive", "--alpha", "0+2i", "--s-max", "0.3", "--points", "5", "--out", "d.csv"],
    ["protocol", "--regime", "resonant", "--alpha", "0+2i", "--s-max", "0.3", "--points", "5", "--out", "r.csv"],
    ["estimate", "--alpha", "0+2i", "--repetitions", "100", "--trials", "4", "--out", "est.csv"],
    ["feasibility", "--omega0", "3e5", "--nbar", "20", "--budget", "0.015"],
]


def test_library_and_every_subcommand_run_without_scipy(tmp_path):
    # scipy serves only the test oracles: with every scipy import made to
    # fail, the refinement, the sampler and each subcommand still run
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"""
import sys
sys.modules["scipy"] = None
from subplanck import cli, estimation, metrology
metrology.locate_first_zero(4j, 2)
metrology.locate_first_zero(4j, 2, kind="rotation", search_max=0.05)
estimation.estimator_calibration(0.05, 4j, 1000, 8, 1)
for argv in {SCIPY_FREE_ARGV!r}:
    assert cli.main(argv) == 0, argv
"""
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert len(list(tmp_path.glob("*.csv"))) == sum("--out" in argv for argv in SCIPY_FREE_ARGV)


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
        # the estimate streams are pinned as of the exact Generator.binomial
        # sampler, which replaced uniform counting and the normal approximation
        "estimate_dispersive": (
            ["estimate", "--alpha", "0+4i", "--repetitions", "4000", "--trials", "64", "--seed", "9"],
            "8799b8852ba32a4812cfa389493bcfd6982c4e997be2c112944c72d95b787ab6",
        ),
        "estimate_resonant": (
            ["estimate", "--alpha", "2-3i", "--s", "0.03", "--repetitions", "250000", "--trials", "16", "--seed", "5",
             "--convention", "resonant"],
            "91ccba5c133c365a335b66d06083eddad1c0b4a50d62ae7cf17a401b70edec17",
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
