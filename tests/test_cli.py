import argparse
import hashlib
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subplanck import cli, metrology, protocol, states, wigner
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


def _kernel_text(values):
    """The field writer's text of each value, NULs dropped."""
    rows = cli._g17_text(np.asarray(values, dtype=float))
    return [row.tobytes().replace(b"\0", b"").decode() for row in rows]


def _format_text(values):
    return [cli._FLOAT_FMT % v for v in values]


class TestSampleText:
    """The vectorized %.17g kernel of the field writer, byte for byte
    against the format it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_matches_format_on_any_finite_double(self, values):
        assert _kernel_text(values) == _format_text(values)

    @pytest.mark.parametrize(
        "value, text",
        [
            (1234567890123456.75, "1234567890123456.8"),
            (1234567890123456.25, "1234567890123456.2"),
            (4503599627370495.5, "4503599627370495.5"),
            (9.9999999999999991e-05, "9.9999999999999991e-05"),
            (0.0001, "0.0001"),
            (1e16, "10000000000000000"),
            (1e17, "1e+17"),
            (5e-324, "4.9406564584124654e-324"),
            (2.2250738585072014e-308, "2.2250738585072014e-308"),
            (1.7976931348623157e308, "1.7976931348623157e+308"),
            (-0.0, "-0"),
            (0.0, "0"),
        ],
        ids=["tie_up", "tie_down", "half", "below_switch", "switch", "1e16", "1e17", "min_subnormal",
             "min_normal", "max", "neg_zero", "zero"],
    )
    def test_ties_switches_and_extremes(self, value, text):
        assert _format_text([value]) == [text]
        assert _kernel_text([value, -value]) == _format_text([value, -value])

    def test_near_ties_and_neighbours_of_powers_of_ten(self):
        # x = m 2^-(s + k) with m 5^k = 2^(s-1) + d (mod 2^s) puts x 10^k, a
        # 17-digit integer part, d 2^-s from a rounding tie: closer than the
        # kernel's product can tell apart for large s, so only its tie guard
        # gets these right.  Around each power of ten the log10 estimate of
        # the exponent may be off by one, and 17 digits may carry up to it
        near_ties = []
        for k in range(23, 325):
            for s in range(2 * k, 3 * k):
                if 1.2 < 5**k / 2**s < 20:
                    inverse = pow(5**k, -1, 2**s)
                    for d in (*range(-16, 0), *range(1, 17)):
                        m = (2 ** (s - 1) + d) * inverse % 2**s
                        m -= (m - 2**52) // 2**s * 2**s  # the smallest such m >= 2^52
                        if m < 2**53 and 10**16 * 2**s <= m * 5**k < 10**17 * 2**s:
                            near_ties.append(math.ldexp(m, -(s + k)))
        powers = [float(f"1e{p}") for p in range(-307, 17)]
        neighbours = [*powers, *np.nextafter(powers, 0.0), *np.nextafter(np.nextafter(powers, 0.0), 0.0), *np.nextafter(powers, 1.0)]
        values = [*near_ties, *neighbours]
        assert len(near_ties) > 100
        assert _kernel_text(values) == _format_text(values)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(2001).integers(0, 2**64, size=200_000, dtype=np.uint64)
        values = bits.view(float)
        values = values[np.isfinite(values)]
        assert _kernel_text(values) == _format_text(values.tolist())

    def test_kernel_formats_in_range_values_itself(self, monkeypatch):
        # the format is only the fallback: normal values below 1e16 stay in
        # numpy unless they lie within 1e-6 of a rounding tie.  Exact ties
        # are common among large doubles (1/128 of those near 3e12 end in a
        # 5 at the 18th digit); below 1e7 a random double is one with odds
        # under 1e-8, as are the field samples (|W| <= 2)
        formatted = []
        text_rows = cli._text_rows

        def spy(values, width=None):
            formatted.extend(values)
            return text_rows(values, width)

        monkeypatch.setattr(cli, "_text_rows", spy)
        rng = np.random.default_rng(7)
        values = rng.standard_normal(20_000) * 10.0 ** rng.integers(-300, 6, 20_000)
        assert _kernel_text(values) == _format_text(values.tolist())
        assert len(formatted) <= 2

    def test_field_csv_layout(self):
        # the field's axes broadcast against its raster: one line per sample,
        # im descending, re ascending within a row
        grid = wigner.PhaseSpaceGrid(-1.0, 2.0, -0.5, 0.25, 4, 3)
        values = np.arange(12.0).reshape(4, 3) * -1e-7
        columns = [grid.re_points[None, :], grid.im_points[::-1, None], values[:, ::-1].T]
        lines = cli._csv_bytes("t", ["re", "im", "w"], columns).decode().splitlines()
        want = [f"{cli._FLOAT_FMT % x},{cli._FLOAT_FMT % y},{cli._FLOAT_FMT % values[ix, iy]}"
                for iy, y in reversed(list(enumerate(grid.im_points))) for ix, x in enumerate(grid.re_points)]
        assert lines == ["# subplanck t", "re,im,w", *want]

    def test_table_csv_integers_and_floats(self):
        # integers are %d over all of int64, above 2^53 too, next to exact
        # %.17g floats; blocks of lines join with none lost or repeated
        big = 2**63 - 1
        ints = np.array([big, -big, 2**53 + 1, 0, -1] * 4000, dtype=np.int64)
        rng = np.random.default_rng(3)
        floats = rng.standard_normal(ints.size) * 10.0 ** rng.integers(-300, 300, ints.size)
        lines = cli._csv_bytes("t", ["n", "x", "y"], [ints, floats, -floats], ["end"]).decode().splitlines()
        want = [f"{n:d},{cli._FLOAT_FMT % x},{cli._FLOAT_FMT % -x}" for n, x in zip(ints.tolist(), floats.tolist())]
        assert lines == ["# subplanck t", "n,x,y", *want, "# end"]

    @pytest.mark.parametrize("chunks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)],
                             ids=["chunk_minus_1", "chunk", "chunk_plus_1", "twice_chunk_plus_1"])
    def test_reused_chunk_buffer_emits_no_stale_bytes(self, chunks, extra):
        # each block's lines share one buffer: a shorter last chunk must not
        # repeat the lines of the chunk before it, and none may be lost.  The
        # values shrink from line to line, so stale text would show
        rng = np.random.default_rng(chunks + extra)
        n = chunks * cli._CHUNK_LINES + extra
        ints = rng.integers(-(2**62), 2**62, n)
        floats = rng.standard_normal(n) * 10.0 ** np.linspace(5, -300, n)
        lines = cli._csv_bytes("t", ["n", "x"], [ints, floats], ["end"]).decode().splitlines()
        assert lines == ["# subplanck t", "n,x", *(f"{i:d},{cli._FLOAT_FMT % x}" for i, x in zip(ints.tolist(), floats.tolist())), "# end"]

        nx = 100  # a field's chunk is whole grid rows: 40 of them
        ny = chunks * (cli._CHUNK_LINES // nx) + extra
        re, im = rng.standard_normal(nx), rng.standard_normal(ny)
        samples = rng.standard_normal((ny, nx)) * 10.0 ** np.linspace(0, -200, ny)[:, None]
        blocks = [[re[None, :], im[:, None], samples], [re[None, :], im[:1, None], samples[:1]]]  # and a one-row block
        lines = b"".join(cli._csv_chunks("t", ["re", "im", "w"], blocks)).decode().splitlines()
        want = [f"{cli._FLOAT_FMT % x},{cli._FLOAT_FMT % y},{cli._FLOAT_FMT % w}"
                for y, row in zip([*im, im[0]], [*samples, samples[0]]) for x, w in zip(re, row)]
        assert lines == ["# subplanck t", "re,im,w", *want]

    def test_non_finite_raster_raises(self):
        raster = np.zeros((3, 4))
        raster[1, 2] = np.nan
        with pytest.raises(FloatingPointError, match="'w'"):
            cli._csv_bytes("t", ["re", "im", "w"], [np.zeros((1, 4)), np.zeros((3, 1)), raster])


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


class TestNegativeValues:
    # argparse takes only -12 and -1.5 for negative numbers, so each of these
    # read as a flag and ended with "expected one argument" (or "expected 4
    # arguments" for --bounds, which has no --flag=value spelling), exit 2
    @pytest.mark.parametrize("argv,key,value", [
        (["overlap", "--alpha", "-1+2i", "--s-max", "0.1"], "alpha", -1 + 2j),
        (["overlap", "--alpha", "-4i", "--s-max", "0.1"], "alpha", -4j),
        (["overlap", "--alpha", "4i", "--phi", "-1e-1", "--s-max", "0.1"], "phi", -0.1),
        (["protocol", "--regime", "dispersive", "--alpha", "-2+2i", "--s-max", "0.1"], "alpha", -2 + 2j),
        (["wigner", "--alpha", "4i", "--bounds", "-8e0", "8", "-8", "8", "--nx", "9", "--ny", "9"], "bounds",
         [-8.0, 8.0, -8.0, 8.0]),
        (["estimate", "--alpha", "-.5e1i"], "alpha", -5j),
    ], ids=["complex", "imaginary", "exponent", "protocol_complex", "bounds_exponent", "point_exponent"])
    def test_bare_negative_values_parse(self, argv, key, value):
        args = cli.build_parser().parse_args([*argv, "--out", "unused"])
        assert getattr(args, key) == value

    def test_bare_and_equals_spellings_write_the_same_bytes(self, tmp_path):
        argv = ["overlap", "--m", "2", "--s-max", "0.2", "--points", "5", "--out"]
        assert main([*argv, str(tmp_path / "bare.csv"), "--alpha", "-1+2i"]) == 0
        assert main([*argv, str(tmp_path / "equals.csv"), "--alpha=-1+2i"]) == 0
        assert (tmp_path / "bare.csv").read_bytes() == (tmp_path / "equals.csv").read_bytes()

    def test_negative_count_still_reaches_its_check(self, tmp_path, capsys):
        assert main(["wigner", "--alpha", "4i", "--m", "-1", "--out", str(tmp_path / "w")]) == 1
        assert capsys.readouterr().err == "error: --m must be at least 1, got -1\n"

    def test_unknown_flags_still_fail(self):
        with pytest.raises(SystemExit) as err:
            cli.build_parser().parse_args(["overlap", "--alpha", "4i", "--s-max", "0.1", "--out", "o.csv", "-x"])
        assert err.value.code == 2

    def test_every_parser_takes_the_wider_matcher(self):
        # the matcher is a private attribute of argparse: a Python release
        # that renames it would leave the bare spellings above to fail
        assert hasattr(argparse.ArgumentParser(), "_negative_number_matcher")
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for p in (parser, *subparsers.choices.values()):
            assert p._negative_number_matcher is cli._NEGATIVE_NUMBER


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

    def test_non_finite_samples_reach_no_file(self, tmp_path, monkeypatch, capsys):
        # the writer is the last guard: samples that slip past the block
        # kernel's own check stop the command with no file left behind, when
        # the pass that finds the graymap's scale meets them in the first or
        # the last of the three blocks, or only the writing pass does, after
        # two blocks were written
        samples = wigner.WignerField.samples
        monkeypatch.setattr(cli, "_BLOCK_SAMPLES", 1)  # blocks of 64 im columns
        argv = ["wigner", "--alpha", "0+2i", "--m", "2", "--bounds", "-4", "4", "-6", "6", "--nx", "43", "--ny", "201"]
        for poisoned_start, poisoned_visit in ((128, 1), (0, 1), (0, 2)):
            visits = Counter()

            def poisoned(field, columns, poisoned_start=poisoned_start, poisoned_visit=poisoned_visit, visits=visits):
                out = samples(field, columns)
                visits[columns.start] += 1
                if (columns.start, visits[columns.start]) == (poisoned_start, poisoned_visit):
                    out[3, 5] = np.nan
                return out

            monkeypatch.setattr(wigner.WignerField, "samples", poisoned)
            assert main([*argv, "--out", str(tmp_path / "nan")]) == 1
            assert capsys.readouterr().err == "error: non-finite value in column 'w'\n"
            assert list(tmp_path.iterdir()) == []

    def test_memory_error_exits_nonzero_and_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        # a grid whose arrays cannot be allocated is an error line and exit 1,
        # not a traceback, and the half-written CSV's and graymap's temp files
        # are removed
        samples = wigner.WignerField.samples
        visits = Counter()

        def exhausted(field, columns):
            visits[columns.start] += 1
            if visits[0] == 2:  # the last block of the writing pass, after two were written
                raise MemoryError("Unable to allocate the last block")
            return samples(field, columns)

        monkeypatch.setattr(cli, "_BLOCK_SAMPLES", 1)
        monkeypatch.setattr(wigner.WignerField, "samples", exhausted)
        argv = ["wigner", "--alpha", "0+2i", "--m", "2", "--bounds", "-4", "4", "-6", "6", "--nx", "43", "--ny", "201"]
        assert main([*argv, "--out", str(tmp_path / "big")]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate the last block\n"
        assert list(tmp_path.iterdir()) == []

    # (nx, ny, im columns a block or None for the default budget, M, --product):
    # nx from 2 to above 16 384, and last blocks of 1, 2 and 63 columns
    # (joined to the block below) and of 64 and 65 columns
    STREAM_CASES = [
        (2, 130, None, 1, False),
        (2, 130, 64, 1, True),
        (33, 65, 64, 4, False),
        (33, 66, 64, 8, True),
        (33, 127, 64, 16, False),
        (33, 128, 64, 2, False),
        (40, 193, 128, 4, True),
        (16385, 65, None, 2, False),
    ]

    @pytest.mark.filterwarnings("ignore::subplanck.wigner.UnderresolvedGridWarning")
    @pytest.mark.parametrize("nx,ny,width,m,product", STREAM_CASES)
    def test_streamed_output_matches_whole_array(self, tmp_path, monkeypatch, nx, ny, width, m, product):
        # blocks of im columns, written from the top as they are formed, give
        # the bytes of one product over the whole grid, formatted at once
        if width is not None:
            monkeypatch.setattr(cli, "_BLOCK_SAMPLES", width * nx)
        base = states.make_circular_state(2j, m, np.zeros(m))
        grid = wigner.PhaseSpaceGrid(-4.0, 4.0, -6.0, 6.0, nx, ny)
        argv = ["wigner", "--alpha", "0+2i", "--m", str(m), "--bounds", "-4", "4", "-6", "6", "--nx", str(nx), "--ny", str(ny)]
        values = wigner.wigner_field(base, grid).samples(slice(None))
        if product:
            argv += ["--product", "--pert", "displacement", "--s", "0.3", "--phi", "0.7"]
            moved = metrology.PerturbationSpec("displacement", 0.3, 0.7).apply(base, 2j)
            values = values * wigner.wigner_field(moved, grid).samples(slice(None))
        raster = values[:, ::-1].T
        csv = cli._csv_bytes("reference", ["re", "im", "w"], [grid.re_points[None, :], grid.im_points[::-1, None], raster])
        scale = float(np.max(np.abs(raster))) or 1.0
        pixels = np.clip(np.rint(127.5 + 127.5 * raster / scale), 0, 255).astype(np.uint8)
        pgm = f"P5\n{nx} {ny}\n255\n".encode() + pixels.tobytes()

        assert main([*argv, "--out", str(tmp_path / "f")]) == 0
        assert (tmp_path / "f.csv").read_bytes().split(b"\n", 1)[1] == csv.split(b"\n", 1)[1]
        assert (tmp_path / "f.pgm").read_bytes() == pgm

    def test_memory_grows_by_the_field_factors_alone(self, tmp_path):
        # at the default block size, 1792 more rows of 257 samples add only
        # the field's factors, 16 B M^2 a grid row, and a fixed margin: no
        # raster (8 B a sample) or graymap (1 B) is held, and the CSV text
        # (~60 B a sample) never is held whole
        def peak(ny):
            argv = ["wigner", "--alpha", "0+2i", "--m", "4", "--bounds", "-6", "6", "-6", "6", "--nx", "257",
                    "--ny", str(ny), "--out", str(tmp_path / f"r{ny}")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(256)  # tables built on first use
        growth = peak(2048) - peak(256)
        assert growth <= 16 * 4**2 * (2048 - 256) + (1 << 16), growth

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
        assert capsys.readouterr().err == "error: --gammas expects 4 phases, got 2\n"
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
        # |alpha| = 20 needs a 737 x 737 grid (2463 x 2459 by the render step
        # rule); the factor-space quadrature stays at the Gram overlap through
        # the first dark fringe
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

    @pytest.mark.parametrize("kind,s_max", [("rotation", "0.1"), ("displacement", "0.4")])
    def test_quadrature_is_one_field_and_no_overlap(self, tmp_path, monkeypatch, kind, s_max):
        # the column traces each perturbation's Weyl symbol against the
        # target's one field: no perturbed field, no field overlap, and no
        # render field (`wigner_field` builds through `_field` too)
        calls = Counter()

        def counting(name):
            original = getattr(wigner, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return call

        for name in ("_field", "wigner_field", "phase_space_overlap"):
            monkeypatch.setattr(wigner, name, counting(name))
        out = tmp_path / "ovq.csv"
        assert main(["overlap", "--alpha", "0+4i", "--m", "4", "--pert", kind, "--s-max", s_max, "--points", "9",
                     "--quadrature", "--out", str(out)]) == 0
        assert calls == Counter(_field=1)
        _, _, rows = _read_csv(out)
        assert np.max(np.abs(rows[:, 3] - rows[:, 1])) <= 1e-12

    @pytest.mark.parametrize("s_max", ["3", "6.2832"])
    def test_quadrature_refuses_rotations_the_grid_aliases(self, tmp_path, capsys, s_max):
        # past about 2.4 rad (mod 2 pi) the symbol's chirp aliases on this
        # grid; the column is refused before any output, naming the flag
        out = tmp_path / "rot.csv"
        assert main(["overlap", "--alpha", "0+4i", "--m", "4", "--pert", "rotation", "--s-max", s_max,
                     "--quadrature", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --s-max "), captured.err
        assert "resolves rotations up to 2.40" in lines[0]
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_quadrature_keeps_the_rotations_the_grid_resolves(self, tmp_path):
        out = tmp_path / "rot.csv"
        assert main(["overlap", "--alpha", "0+4i", "--m", "4", "--pert", "rotation", "--s-max", "1.5",
                     "--quadrature", "--out", str(out)]) == 0
        _, _, rows = _read_csv(out)
        assert np.max(np.abs(rows[:, 3] - rows[:, 1])) <= 1e-12

    @pytest.mark.parametrize("kind,s_max", [("displacement", "0.4"), ("rotation", "0.1")])
    def test_benchmark_quadrature_columns_write_nothing_to_stderr(self, tmp_path, capsys, kind, s_max):
        # the column's grid is sized from its symbols: no render warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["overlap", "--alpha=0+4i", "--m", "4", "--gammas", "0.3,1.7,2.9,5.1", "--pert", kind,
                         "--s-max", s_max, "--points", "129", "--quadrature", "--out", str(tmp_path / "q.csv")]) == 0
        assert caught == [] and capsys.readouterr().err == ""

    @given(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=1.0, max_value=12.0),
        st.floats(min_value=-np.pi, max_value=np.pi),
        st.sampled_from(["displacement", "rotation"]),
        st.floats(min_value=0.0, max_value=3.0),
        st.integers(min_value=5, max_value=129),
        st.one_of(st.none(), st.floats(min_value=-np.pi, max_value=np.pi)),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_quadrature_columns_are_exact_or_refused(self, m, radius, arg, kind, s_max, points, phi):
        # each column is the sweep's own quadrature, within 1e-12 of its
        # exact column, or is refused exactly where the sweep refuses it
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "ovq.csv"
            alpha = radius * complex(math.cos(arg), math.sin(arg))
            argv = ["overlap", f"--alpha={alpha.real!r}{alpha.imag:+.17g}i", "--m", str(m), "--gammas",
                    ",".join(repr(0.7 * k) for k in range(m)), "--pert", kind, "--s-max", repr(s_max),
                    "--points", str(points), "--quadrature", "--out", str(out)]
            if phi is not None:
                argv.append(f"--phi={phi!r}")
            code = main(argv)
            sweep = metrology.overlap_sweep(alpha, m, 0.7 * np.arange(m), kind=kind, direction=phi,
                                            max_magnitude=s_max, n_points=points)
            try:
                quadrature = sweep.quadrature()
            except ValueError:
                quadrature = None
            assert code == (1 if quadrature is None else 0)
            assert out.exists() == (quadrature is not None)
            if quadrature is not None:
                _, _, rows = _read_csv(out)
                assert np.array_equal(rows[:, 3], quadrature)
                assert np.max(np.abs(rows[:, 3] - rows[:, 1])) <= 1e-12

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

    def test_fringe_phase_past_the_rounding_limit_is_refused(self, tmp_path, capsys):
        # Delta up to 4e12, where e^{i Delta} keeps about 4 digits of P_e
        assert main(["protocol", "--regime", "dispersive", "--alpha", "1e12", "--s-max", "1", "--points", "3",
                     "--out", str(tmp_path / "big.csv")]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: fringe phase Delta reaches 4e+12"), captured.err
        assert list(tmp_path.iterdir()) == []

    def test_fringe_phase_just_below_the_rounding_limit_runs(self, tmp_path):
        # Delta up to 4.4e7, below the 1e-8 / eps = 4.5e7 the check allows
        out = tmp_path / "edge.csv"
        assert main(["protocol", "--regime", "dispersive", "--alpha", "1.1e7", "--s-max", "1", "--points", "3",
                     "--out", str(out)]) == 0
        _, _, rows = _read_csv(out)
        np.testing.assert_allclose(rows[:, 1] + rows[:, 2], 1.0, atol=1e-12)

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
            # finite inputs whose interaction time, threshold or ratio overflow
            ["feasibility", "--omega0", "1e-320", "--nbar", "1", "--budget", "1"],
            ["feasibility", "--omega0", "1", "--nbar", "1e308", "--budget", "1e308"],
            ["feasibility", "--omega0", "1e300", "--nbar", "1", "--budget", "1e300"],
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
        ids=["feasibility_nan_omega0", "feasibility_time_overflows", "feasibility_threshold_overflows",
             "feasibility_ratio_overflows", "estimate_s_beyond_branch", "protocol_zero_points", "overlap_negative_s_max",
             "protocol_dispersive_dt_fraction", "overlap_norm_lost_to_cancellation"],
    )
    def test_invalid_input_exits_nonzero(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ")
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_subnormal_alpha_exits_without_numpy_warning(self, tmp_path):
        # pi/(8|alpha|), the default true displacement, overflows to inf; it
        # must be refused as off the branch before the fringe's exp sees it
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = ["estimate", "--alpha", "1e-320", "--out", "bad.csv"]
        result = subprocess.run([sys.executable, "-m", "subplanck.cli", *argv], cwd=tmp_path, env=env,
                                capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and "principal branch" in result.stderr, result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["overlap", "--alpha", "4i", "--m", "4", "--s-max", "1e300", "--points", "3", "--out", "bad.csv"], "--s-max"),
            (["overlap", "--alpha", "1e200", "--m", "2", "--s-max", "0.1", "--out", "bad.csv"], "--alpha"),
            (["wigner", "--alpha", "4i", "--pert", "displacement", "--s", "1e300", "--out", "bad"], "--s"),
            (["estimate", "--alpha", "0", "--out", "bad.csv"], "--alpha"),
            (["estimate", "--alpha", "1e300", "--out", "bad.csv"], "--alpha"),
            (["estimate", "--alpha", "4i", "--repetitions", "10000000000000000000", "--out", "bad.csv"], "--repetitions"),
            (["feasibility", "--period", "0", "--nbar", "20", "--budget", "1"], "--period"),
            # Delta = 4 |alpha| s would keep no digit of its phase: P_e was rounding noise
            (["protocol", "--regime", "resonant", "--alpha", "1e300", "--s-max", "1", "--points", "3", "--out", "bad.csv"],
             "--alpha"),
            (["protocol", "--regime", "dispersive", "--alpha", "4i", "--s-max", "1e300", "--points", "3", "--out",
              "bad.csv"], "--s-max"),
            # a non-finite phase reached np.exp and leaked two RuntimeWarnings
            (["wigner", "--alpha", "4i", "--m", "2", "--gammas", "0,inf", "--out", "bad"], "--gammas"),
            (["overlap", "--alpha", "4i", "--m", "2", "--gammas", "inf,0", "--s-max", "0.1", "--out", "bad.csv"],
             "--gammas"),
            (["wigner", "--alpha", "4i", "--m", "2", "--gammas", "0,x", "--out", "bad"], "--gammas"),
            (["overlap", "--alpha", "4i", "--m", "2", "--gammas", "0,x", "--s-max", "0.1", "--out", "bad.csv"],
             "--gammas"),
            # a NaN modulus passed the amplitude ceiling's test and failed
            # later, in a message that named no flag
            (["wigner", "--alpha", "nan", "--out", "bad"], "--alpha"),
            (["wigner", "--alpha", "4i", "--displace", "nan", "--out", "bad"], "--displace"),
            (["overlap", "--alpha", "nan", "--s-max", "0.1", "--out", "bad.csv"], "--alpha"),
            (["overlap", "--alpha", "nan+1i", "--pert", "rotation", "--s-max", "0.01", "--out", "bad.csv"], "--alpha"),
            (["protocol", "--regime", "dispersive", "--alpha", "nan", "--s-max", "0.1", "--out", "bad.csv"], "--alpha"),
            (["protocol", "--regime", "resonant", "--alpha", "nan", "--s-max", "0.1", "--out", "bad.csv"], "--alpha"),
            (["estimate", "--alpha", "nan", "--out", "bad.csv"], "--alpha"),
            # a component count below 1 reached the phases first
            (["overlap", "--alpha", "4i", "--m", "-2", "--s-max", "0.1", "--out", "bad.csv"], "--m"),
            (["wigner", "--alpha", "4i", "--m", "-1", "--gammas", "1", "--out", "bad"], "--m"),
            (["wigner", "--alpha", "4i", "--m", "0", "--out", "bad"], "--m"),
            # count flags reached the library, whose messages named no flag
            (["overlap", "--alpha", "4i", "--s-max", "0.1", "--points", "1", "--out", "bad.csv"], "--points"),
            (["protocol", "--regime", "dispersive", "--alpha", "4i", "--s-max", "0.1", "--points", "1", "--out",
              "bad.csv"], "--points"),
            (["estimate", "--alpha", "4i", "--trials", "0", "--out", "bad.csv"], "--trials"),
            (["estimate", "--alpha", "4i", "--repetitions", "0", "--out", "bad.csv"], "--repetitions"),
            (["estimate", "--alpha", "4i", "--seed", "-1", "--out", "bad.csv"], "--seed"),
            (["wigner", "--alpha", "4i", "--bounds", "-1", "1", "-1", "1", "--nx", "1", "--ny", "3", "--out", "bad"],
             "--nx"),
            # bad bounds reached the grid, whose message named no flag, and an
            # infinite one leaked numpy's RuntimeWarnings from linspace on
            (["wigner", "--alpha", "4i", "--bounds", "1", "-1", "-1", "1", "--nx", "3", "--ny", "3", "--out", "bad"],
             "--bounds"),
            (["wigner", "--alpha", "4i", "--bounds", "-1", "1", "nan", "1", "--nx", "3", "--ny", "3", "--out", "bad"],
             "--bounds"),
            (["wigner", "--alpha", "4i", "--bounds", "-1", "inf", "-1", "1", "--nx", "3", "--ny", "3", "--out", "bad"],
             "--bounds"),
        ],
        ids=["overlap_s_max_overflows", "overlap_alpha_overflows", "wigner_s_overflows", "estimate_zero_alpha",
             "estimate_alpha_overflows", "estimate_repetitions_beyond_int64", "feasibility_zero_period",
             "protocol_alpha_overflows", "protocol_s_max_overflows", "wigner_infinite_gamma", "overlap_infinite_gamma",
             "wigner_unparsable_gamma", "overlap_unparsable_gamma", "wigner_nan_alpha", "wigner_nan_displace",
             "overlap_nan_alpha", "overlap_rotation_nan_alpha", "protocol_dispersive_nan_alpha", "protocol_resonant_nan_alpha",
             "estimate_nan_alpha", "overlap_negative_m", "wigner_negative_m_with_gammas", "wigner_zero_m",
             "overlap_one_point", "protocol_one_point", "estimate_zero_trials", "estimate_zero_repetitions",
             "estimate_negative_seed", "wigner_one_column", "wigner_unordered_bounds", "wigner_nan_bound",
             "wigner_infinite_bound"],
    )
    def test_out_of_range_input_names_its_flag(self, tmp_path, argv, flag):
        # one error line that names the flag: no numpy warning, no traceback
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-m", "subplanck.cli", *argv], cwd=tmp_path, env=env,
                                capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {flag} "), result.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            # wrote an exact overlap of 1.004 at s = 0
            ["overlap", "--alpha", "3e7+4e7i", "--m", "2", "--s-max", "1e-3", "--points", "3", "--out", "bad.csv"],
            # exited 1 with a wrong cause, a norm lost to cancellation
            ["overlap", "--alpha", "3e153", "--m", "2", "--s-max", "0.1", "--out", "bad.csv"],
            ["wigner", "--alpha", "3e7+4e7i", "--m", "2", "--bounds", "-1", "1", "-1", "1", "--nx", "3", "--ny", "3",
             "--out", "bad"],
        ],
        ids=["overlap_above_one", "overlap_norm_underflows", "wigner_explicit_grid"],
    )
    def test_amplitude_past_the_gram_ceiling_exits_with_its_cause(self, tmp_path, argv):
        # within 2^510, so no flag is refused, but past the amplitude where
        # Gram exponents lose precision: one error line naming that cause
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-m", "subplanck.cli", *argv], cwd=tmp_path, env=env,
                                capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: amplitudes up to "), result.stderr
        assert "exceed 3.36e+03, where Gram exponents lose precision to rounding" in lines[0]
        assert list(tmp_path.iterdir()) == []

    def test_theory_sigma_of_a_huge_amplitude(self, tmp_path):
        # R |alpha|^2 overflows at R = 1e4 past |alpha| ~ 1.3e152; the quoted
        # width is 1/(8 sqrt(R) |alpha|) = 4.17e-157, not 0
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = ["estimate", "--alpha", "3e153", "--trials", "2", "--out", "huge.csv"]
        result = subprocess.run([sys.executable, "-m", "subplanck.cli", *argv], cwd=tmp_path, env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        theory = float(result.stdout.split("theory_sigma=")[1])
        assert theory == pytest.approx(1.0 / (8.0 * 100.0 * 3e153), rel=1e-12)
        assert f"{theory:.3g}" == "4.17e-157"

    def test_spread_of_huge_estimates_is_finite(self, tmp_path):
        # at |alpha| = 1e-200 the estimates are about 4e199: their squared
        # deviations overflow, and numpy's std gave an empirical sigma of inf
        # with a RuntimeWarning
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = ["estimate", "--alpha", "1e-200", "--trials", "3", "--out", "e.csv"]
        result = subprocess.run([sys.executable, "-W", "default", "-m", "subplanck.cli", *argv], cwd=tmp_path, env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert "RuntimeWarning" not in result.stderr
        sigma = float(result.stdout.split("empirical_sigma=")[1].split()[0])
        assert 1e196 < sigma < 1e198
        assert (tmp_path / "e.csv").read_text().splitlines()[-1] == "# " + result.stdout.strip()

    @pytest.mark.parametrize("argv", [
        ["estimate", "--alpha", "3e-309", "--repetitions", "1", "--trials", "4", "--seed", "2"],
        ["estimate", "--alpha", "0+1e-320i", "--trials", "3"],
    ], ids=["inverts_to_infinity", "blamed_s"])
    def test_alpha_whose_branch_end_overflows_names_its_flag(self, tmp_path, capsys, argv):
        # pi/(4|alpha|) overflows below about 4.4e-309: the first run leaked
        # two RuntimeWarnings, which raise here, and ended with an infinite
        # summary; the second refused a true_s that no --s had given
        out = tmp_path / "e.csv"
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --alpha "), captured.err
        assert not out.exists()

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


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    # after a warm-up call, main parses with the one parser it already has
    argv = ["feasibility", "--omega0", "3e5", "--nbar", "20", "--budget", "0.015"]
    assert main(argv) == 0
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(3):
        assert main(argv) == 0
    assert built == []
    assert isinstance(cli.build_parser(), argparse.ArgumentParser) and built  # still public, still a fresh parser
    assert capsys.readouterr().out.count("verdict=insufficient") == 4


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
        # the estimate streams are pinned as of one Generator.binomial(R, p_e,
        # size=n) call per run on default_rng(seed), which replaced one draw per
        # spawned child of SeedSequence(seed)
        "estimate_dispersive": (
            ["estimate", "--alpha", "0+4i", "--repetitions", "4000", "--trials", "64", "--seed", "9"],
            "b45f0038394516ebf62b78dd90096a27f67df376a8b2ac18f776836e99ce0a1d",
        ),
        "estimate_resonant": (
            ["estimate", "--alpha", "2-3i", "--s", "0.03", "--repetitions", "250000", "--trials", "16", "--seed", "5",
             "--convention", "resonant"],
            "461c4fe022745083d7bb17c6dff3477a93f84691bda4f031e1f8313451fec9d3",
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
        # the quadrature columns are pinned as of the Weyl-symbol traces from
        # one field on a grid sized from the symbols; they sit <= 1e-14 from
        # the exact column
        "overlap_quadrature": (
            ["overlap", "--alpha", "0+4i", "--m", "2", "--s-max", "0.4", "--points", "33", "--quadrature"],
            "2e8daf60a2039da4906d087e67e03fbb6e233b7ddb39cecfd02af367bee6e301",
        ),
        # the compass's quadrature columns, as the benchmark's phase_space
        # jobs run them, at 33 points
        "overlap_quadrature_rotation": (
            ["overlap", "--alpha", "0+4i", "--m", "4", "--gammas", "0.3,1.7,2.9,5.1", "--pert", "rotation",
             "--s-max", "0.1", "--points", "33", "--quadrature"],
            "56f34bf164bf97f167923a0ae88701f7542a49314c4acef48361405fc558f733",
        ),
        "overlap_quadrature_displacement": (
            ["overlap", "--alpha", "0+4i", "--m", "4", "--gammas", "0.3,1.7,2.9,5.1", "--pert", "displacement",
             "--s-max", "0.4", "--points", "33", "--quadrature"],
            "8aa223a8956b59188ff2f088a82cea06bfbfe0f964364fabad500eaa375f370f",
        ),
    }

    # (argv, CSV sha256, PGM sha256) of `wigner` renders: the README cat and
    # compass product, the |alpha| = 4 compass, a rotated displaced cat alone
    # and in a product, and the |alpha| = 20 range edge
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
        "cat_rotation_product": (
            ["wigner", "--alpha", "0+4i", "--m", "2", "--displace", "0+4i", "--product", "--pert", "rotation",
             "--s", f"{math.pi / 64:.17g}"],
            "a5739f4b1267d3611ec7efad8494f4a911b6aa12a852f18e8e40bef05660b978",
            "570303031d00ab640c1d0d6d8765daf6e01c6a6574c2e5999de7b80dce6450c0",
        ),
        "compass": (
            ["wigner", "--alpha", "0+4i", "--m", "4"],
            "b9b14e18bdee5bf29936d9c2e1c903c9cacc1ec7472b917c61c5f76ef9abbf48",
            "4a97e46ccdf220234415a30269016cb32fd3bd58135839f0dc5062b606685107",
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
        # 491 x 491 samples spanning 114 decimal exponents (1e-113 to 1.9)
        "compass_a8": (
            ["wigner", "--alpha", "0+8i", "--m", "4"],
            "0145305ae4e0083b01c07a54863b9abd547245e1401c0dc023056f7f863724a3",
            "bb6553693e30437cba22cc8a178848a2998f34be08ff4d3a26f35f7f7ac71b30",
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
