"""Command-line surface: render Wigner fields, sweep overlap fringes, run
the measurement protocols, drive estimation experiments, and check
feasibility numbers.  All file outputs are deterministic for a fixed
argument list and seed, and are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import sys
import tempfile

import numpy as np

from . import estimation, metrology, protocol, states, wigner

_FLOAT_FMT = "%.17g"


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' style complex literals ('3', '4i', '-1+2i', '0+4i')."""
    s = text.strip().lower().replace(" ", "")
    s = re.sub(r"(?<![0-9.])i", "1i", s)  # bare 'i' -> '1i'
    s = s.replace("i", "j")
    try:
        return complex(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc


def _fmt(x: float) -> str:
    return _FLOAT_FMT % x


@contextlib.contextmanager
def _atomic_file(path: str):
    """Binary handle on a temp file beside `path`, renamed to `path` when the
    block ends and deleted when it raises."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".subplanck-")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        # mkstemp creates 0600; give the output the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, data: bytes):
    with _atomic_file(path) as handle:
        handle.write(data)


# A sample's text is cut from a template of six 8-byte words,
#   [s 0 . 0 0 0 d0 .] [d1 . d2 . d3 . d4 .] ... [d13 . d14 . d15 . d16 .] [e - x x x _ _ _]
# with s the sign or a NUL, d the 17 significant digits, x the three digits
# of a negative decimal exponent and _ a NUL.  Every _FLOAT_FMT text of a
# normal double below 1e16 is a subsequence of it, so a byte mask per
# (exponent class, kept digits) picks the text out, and dropping the NULs
# closes it up.
_G17_BYTES = 48


def _text_rows(values, width: int | None = None) -> np.ndarray:
    """_FLOAT_FMT text of each value as numpy bytes, NUL-padded to `width`
    (default: the longest)."""
    return np.array([(_FLOAT_FMT % v).encode() for v in values], dtype=f"S{width or ''}")


def _kept_bytes(cls: int, kept: int) -> list[int]:
    """Template offsets of the text, after the sign, of a value with `kept`
    significant digits (trailing zeros dropped) in exponent class `cls`:
    f-style for decimal exponents -4..15 (classes 0..19), e-style with a
    two- or three-digit negative exponent (20, 21)."""
    digits = list(range(6, 6 + 2 * kept, 2))  # digit j at 6 + 2j, its '.' next
    if cls >= 20:
        fraction = [7, *digits[1:]] if kept > 1 else []
        return [6, *fraction, 40, 41, *range(43 - (cls == 21), 45)]
    point = cls - 4  # the decimal exponent
    if point < 0:
        return [1, 2, *range(3, 2 - point), *digits]  # 0. and -point - 1 zeros
    whole = list(range(6, 8 + 2 * point, 2))  # zeros up to the point stay
    return whole + ([whole[-1] + 1, *digits[point + 1 :]] if kept > point + 1 else [])


@functools.cache
def _g17_tables():
    """Tables of `_g17_text`, built on first use from numpy arithmetic and
    Python ints in a few milliseconds.

    For k = 0..324, 10^k = (hi_h + hi_l + lo) 2^shift with hi = hi_h + hi_l
    the correctly rounded double in [1, 2), hi_h and hi_l its exact 26-bit
    halves for Dekker's product, and lo the correctly rounded remainder.
    As template words: heads[10 s + d] is the first word of sign s (1 for
    minus) and leading digit d, quads[q] the four digits of q < 10^4 and
    exps[e] the exponent of 10^-e; zeros[q] counts the trailing zeros of
    q's four digits, and masks[17 cls + kept - 1] is the mask of the sign
    and `_kept_bytes`, whose row for all 17 digits of 10^(16 - k) is
    full_rows[k]; trailing zeros count down from it."""
    powers = []
    for k in range(325):
        power = 10**k
        shift = power.bit_length() - 1
        mantissa = int(power / (1 << shift) * (1 << 52))  # hi 2^52, exactly
        top = (mantissa + (1 << 26)) >> 27 << 27
        lo = (power * (1 << 52) - mantissa * (1 << shift)) / (1 << (shift + 52))
        powers.append((shift, top / (1 << 52), (mantissa - top) / (1 << 52), lo))
    shift, hi_h, hi_l, lo = (np.array(col) for col in zip(*powers))
    shift = shift.astype(np.int32)  # ldexp by int32 exponents: 10x faster than by int64
    exp10 = 16 - np.arange(325)
    full_rows = 17 * np.where(exp10 >= -4, exp10 + 4, np.where(exp10 >= -99, 20, 21)) + 16
    heads = np.zeros((20, 8), dtype=np.uint8)  # row 10 s + d
    heads[10:, 0] = ord("-")
    heads[:, 1:6] = np.frombuffer(b"0.000", np.uint8)
    heads[:, 6] = 48 + np.arange(20) % 10
    heads[:, 7] = ord(".")
    q = np.arange(10000)
    quads = np.full((q.size, 8), ord("."), dtype=np.uint8)
    quads[:, ::2] = 48 + np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1)
    zeros = sum(q % 10**i == 0 for i in range(1, 5)).astype(np.uint8)
    e = np.arange(309)
    exps = np.zeros((e.size, 8), dtype=np.uint8)
    exps[:, :2] = np.frombuffer(b"e-", np.uint8)
    exps[:, 2:5] = 48 + np.stack([e // 100, e // 10 % 10, e % 10], axis=1)
    masks = np.zeros((22 * 17, _G17_BYTES), dtype=np.uint8)
    for cls in range(22):
        for kept in range(1, 18):
            masks[17 * cls + kept - 1, [0, *_kept_bytes(cls, kept)]] = 0xFF
    tables = (shift, hi_h, hi_l, lo, zeros, *(t.view(np.uint64).ravel() for t in (heads, quads, exps)), masks.view(np.uint64),
              full_rows)
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def _g17_digits(x: np.ndarray) -> tuple:
    """The 17 significant digits of each |x| as an int64, the power k of ten
    that scales |x| to them, and whether they are exact (else `%` formats x).

    For normal |x| < 1e16, with e = floor(log10|x|) and k = 16 - e,
    V = |x| 10^k is formed as a double p plus a remainder r from Dekker's
    exact product of |x| 2^shift with hi and the rounded product with lo
    (see `_g17_tables`): p is an integer above 2^53, and r is within 1e-14
    of V - p.  The 17 digits are p + rint(r), V rounded half to even, unless
    the fraction of r lies within 1e-6 of 1/2.  A log10 that misses e by
    one shows as V >= 10^17 - 1/2 or V < 10^16, and those go to `%` too (V
    within 1e-14 below 10^16 gives the same text at both exponents).  Zero,
    subnormals, |x| >= 1e16 and non-finite values go to `%` as well; no
    float warning fires on any input.  A function of its own, so that its
    temporaries are freed before the text is formed."""
    shift, hi_h, hi_l, lo = _g17_tables()[:4]
    mag = np.abs(x)
    fast = (mag >= np.finfo(float).tiny) & (mag < 1e16)  # False for NaN
    mag = np.where(fast, mag, 1.0)
    k = 16 - np.floor(np.log10(mag)).astype(np.intp)  # 0..324
    scaled = np.ldexp(mag, shift[k])  # exact, in [5e15, 1.2e17)
    big = scaled * 134217729.0  # Veltkamp's split at 2^27 + 1
    top = big - (big - scaled)
    low = scaled - top
    h_h, h_l = hi_h[k], hi_l[k]
    p = scaled * (h_h + h_l)
    r = (((top * h_h - p) + top * h_l + low * h_h) + low * h_l) + scaled * lo[k]
    whole = np.rint(r)
    digits = p.astype(np.int64) + whole.astype(np.int64)
    fast &= (np.abs(r - whole) < 0.5 - 1e-6) & ((p - 1e16) + r >= 0.0) & (digits < 10**17)
    return digits, k, fast


def _g17_text(x: np.ndarray) -> np.ndarray:
    """_FLOAT_FMT text of each double in x, byte for byte, as the rows of an
    (x.size, 48) uint8 matrix with NULs between and after the characters:
    the exact digits of `_g17_digits` cut from the template, or `%` where
    those are not exact."""
    zeros, heads, quads, exps, masks, full_rows = _g17_tables()[4:]
    x = np.asarray(x, dtype=float).ravel()
    digits, k, fast = _g17_digits(x)
    head = digits // 10**8  # below 2^31, as is the tail: int32 divides faster
    tail = (digits - head * 10**8).astype(np.int32)
    head = head.astype(np.int32)
    # remainders as x - (x // d) d: numpy's int32 `%` is 6x slower than `//` here
    upper, lower = head // 10**4, tail // 10**4
    lead = upper // 10**4
    quartets = np.stack([upper - lead * 10**4, head - upper * 10**4, lower, tail - lower * 10**4])
    counts = np.take(zeros, quartets)
    trailing = counts[3].copy()
    for j, later in ((2, 4), (1, 8), (0, 12)):  # a quartet's zeros count while every later one is 0000
        trailing += (trailing == later) * counts[j]
    words = np.empty((x.size, _G17_BYTES // 8), dtype=np.uint64)
    # quads gathered by the contiguous quartet rows, then transposed: 3x faster
    # than indexing by the transposed rows; the leading digit mod 10 keeps the
    # index in range where p overshoots (those go to `%`)
    words[:, 0] = np.take(heads, 10 * np.signbit(x) + (lead - lead // 10 * 10))
    words[:, 1:5] = np.take(quads, quartets).T
    words[:, 5] = np.take(exps, np.abs(16 - k))
    words &= np.take(masks, full_rows[k] - trailing, axis=0)  # take: 4x faster than masks[rows] here
    text = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text[slow] = _text_rows(x[slow].tolist(), _G17_BYTES)[:, None].view(np.uint8)
    return text


# lines a CSV chunk holds: a chunk's buffer, text and kernel temporaries
# take about 300 B a line, so at 8192 lines they set a render's peak (1.2 MB
# higher at |alpha| = 8), and fewer lines pay the kernel's fixed cost more often
_CHUNK_LINES = 4096


def _csv_chunks(comment: str, header: list[str], blocks, trailing_comments=()):
    """CSV text in chunks: the comment and header, then for each block of
    columns in `blocks` one line per point of the grid they broadcast to, in
    C order (a table passes P-row columns, a field its (1, nx) re row, and
    a block's im column and samples), then the trailing comments.  Integers
    are written as numpy's %d, exact over int64, numpy bytes (`_text_rows`)
    as they are, and everything else as _FLOAT_FMT, byte for byte: a float
    column smaller than its grid by `%` once, the full ones by the exact
    `_g17_text`.

    A block's lines are laid out NUL-padded in one buffer of about
    _CHUNK_LINES lines.  Its separators and newlines, and the text of a
    column that is the same in every chunk (a field's re row), are written
    once; each chunk writes the other values and yields the buffer with its
    NULs dropped.  A shorter last chunk clears the lines it does not fill,
    so no stale byte is emitted.  A non-finite value raises
    FloatingPointError before its block makes any text."""
    yield f"# subplanck {comment}\n{','.join(header)}\n".encode()
    for columns in blocks:
        columns = [np.asarray(col) for col in columns]
        for name, col in zip(header, columns):
            if col.dtype.kind != "S" and not np.all(np.isfinite(col)):
                raise FloatingPointError(f"non-finite value in column {name!r}")
        shape = np.broadcast_shapes(*(col.shape for col in columns))
        texts = []  # uint8 text rows, or a full float column to format a chunk at a time
        for col in columns:
            if np.issubdtype(col.dtype, np.integer):
                col = col.astype("S")
            elif col.dtype.kind != "S" and col.size < math.prod(shape):
                col = _text_rows(col.ravel().tolist()).reshape(col.shape)
            if col.dtype.kind == "S":
                col = col[..., None].view(np.uint8)
            texts.append(np.broadcast_to(col, (*shape, col.shape[-1]) if col.dtype == np.uint8 else shape))
        full = [i for i, text in enumerate(texts) if text.dtype != np.uint8]
        widths = [_G17_BYTES if i in full else text.shape[-1] for i, text in enumerate(texts)]
        ends = np.cumsum([width + 1 for width in widths])  # one past each value's separator
        slots = [slice(end - 1 - width, end - 1) for end, width in zip(ends, widths)]
        step = max(1, min(shape[0], _CHUNK_LINES // math.prod(shape[1:])))  # grid rows a chunk
        buffer = bytearray(step * math.prod(shape[1:]) * int(ends[-1]))
        lines = np.frombuffer(buffer, np.uint8).reshape(step, *shape[1:], ends[-1])
        lines[..., ends - 1] = ord(",")
        lines[..., -1] = ord("\n")
        varying = []
        for i, text in enumerate(texts):
            if i in full or text.strides[0]:
                varying.append(i)
            else:  # broadcast along the chunked axis
                lines[..., slots[i]] = text[:step]
        for start in range(0, shape[0], step):
            rows = min(step, shape[0] - start)
            parts = {i: texts[i][start : start + rows] for i in varying}
            if full:  # one `_g17_text` call a chunk: its fixed cost dominates short tables
                text = _g17_text(np.stack([parts[i] for i in full], axis=-1)).reshape(rows, *shape[1:], len(full), _G17_BYTES)
                for j, i in enumerate(full):
                    parts[i] = text[..., j, :]
            lines[rows:] = 0  # NULs, which the translate drops
            for i, part in parts.items():
                lines[:rows, ..., slots[i]] = part
            yield buffer.translate(None, b"\0")  # 3x faster than lines[lines != 0]
    yield "".join(f"# {c}\n" for c in trailing_comments).encode()


def _csv_bytes(comment: str, header: list[str], columns, trailing_comments=()) -> bytes:
    """The whole CSV text of one block of columns (see `_csv_chunks`)."""
    return b"".join(_csv_chunks(comment, header, [columns], trailing_comments))


def _gammas(arg: str | None, m: int) -> np.ndarray:
    """The --gammas phases of an --m component circle, zeros by default."""
    if arg is None:
        return np.zeros(m)
    try:
        vals = np.array([float(v) for v in arg.split(",")])
    except ValueError:
        raise ValueError(f"--gammas must be comma-separated numbers, got {arg!r}") from None
    if vals.size != m:
        raise ValueError(f"--gammas expects {m} phases, got {vals.size}")
    if not np.isfinite(vals).all():
        raise ValueError(f"--gammas must be finite, got {arg!r}")
    return vals


# the largest amplitude modulus a command may form: below it every |a|^2,
# |a_k - a_l|^2 and sum of two |a|^2 in a Gram exponent is a finite double
_MAX_AMPLITUDE = 2.0**510


def _check_amplitudes(*moves):
    """Before any arithmetic, ValueError naming the first flag of `moves`
    whose amplitudes pass _MAX_AMPLITUDE or are NaN: each (flag, modulus)
    moves the amplitudes up to `modulus` further from the origin, in the
    order the command applies them."""
    reach = 0.0
    for flag, modulus in moves:
        reach += modulus
        if not reach <= _MAX_AMPLITUDE:  # phrased so that NaN fails too
            raise ValueError(f"{flag} gives amplitudes of modulus up to {reach:.3g}; commands allow at most {_MAX_AMPLITUDE:.3g}")


def _modulus(z: complex) -> float:
    return math.hypot(z.real, z.imag)  # abs() raises OverflowError where this is inf


def _config_string(args, keys) -> str:
    parts = [args.command]
    for key in keys:
        parts.append(f"{key.replace('_', '-')}={getattr(args, key)}")
    return " ".join(parts)


# --- subcommands ------------------------------------------------------------

# samples `wigner` forms at a time, as whole im columns, at least 64: 64 of
# them at every grid wider than 256 points (491 at |alpha| = 8 on its auto
# grid), so a render holds about two blocks whatever the grid's height
_BLOCK_SAMPLES = 1 << 15


def _cmd_wigner(args) -> int:
    given = [flag is not None for flag in (args.bounds, args.nx, args.ny)]
    if any(given) and not all(given):
        raise ValueError("--bounds, --nx and --ny go together: give all three or none")
    if args.bounds is not None:  # before linspace meets them, which warns on infinite bounds
        re_min, re_max, im_min, im_max = args.bounds
        if not (all(map(math.isfinite, args.bounds)) and re_min < re_max and im_min < im_max):
            raise ValueError("--bounds must be finite, with RE_MIN < RE_MAX and IM_MIN < IM_MAX, got "
                             + " ".join(map(str, args.bounds)))
    _check_amplitudes(("--alpha", _modulus(args.alpha)), ("--displace", _modulus(args.displace or 0j)),
                      ("--s", args.s if args.pert == "displacement" else 0.0))
    base = states.make_circular_state(args.alpha, args.m, _gammas(args.gammas, args.m))
    if args.displace is not None:
        base = states.displace(base, args.displace)
    pert_state = None if args.pert is None else metrology.PerturbationSpec(args.pert, args.s, args.phi).apply(base, args.alpha)
    if args.product and pert_state is None:
        raise ValueError("--product needs --pert")

    sample_states = [base] if pert_state is None else [base, pert_state]
    if args.bounds is None:
        grid = wigner.auto_grid(*sample_states)
    else:
        grid = wigner.PhaseSpaceGrid(*args.bounds, args.nx, args.ny)
    # the fields this command renders: the base, the perturbed state, or both for
    # --product; an under-resolved field reports itself once, as an UnderresolvedGridWarning
    fields = [wigner.wigner_field(base, grid)] if args.product or pert_state is None else []
    if pert_state is not None:
        fields.append(wigner.wigner_field(pert_state, grid))
    if args.product:
        print(f"product_integral={_fmt(wigner.phase_space_overlap(*fields))}")

    config = _config_string(args, ["alpha", "m", "gammas", "displace", "pert", "s", "phi", "product"])
    config += f" grid=({_fmt(grid.re_min)},{_fmt(grid.re_max)},{_fmt(grid.im_min)},{_fmt(grid.im_max)}) nx={grid.nx} ny={grid.ny}"
    nx, ny = grid.nx, grid.ny
    # blocks of im columns start at multiples of 64, as in the whole product,
    # so their samples keep its bits (see `WignerField.samples`); a last
    # block narrower than 64 columns joins the block below, so a single
    # column never forms alone.  Listed from the bottom row up
    width = max(64, _BLOCK_SAMPLES // nx // 64 * 64)
    edges = [*range(0, max(1, ny - 63), width), ny]
    blocks = [slice(start, stop) for start, stop in zip(edges, edges[1:])]

    def samples(columns):  # the samples of im columns `columns`, (nx, width)
        out = fields[0].samples(columns)
        for field in fields[1:]:  # --product
            out *= field.samples(columns)
        return out

    # no raster is kept: a first pass finds the graymap's scale max|W|, and the
    # second forms each block again and writes its lines and its graymap rows,
    # from the top row down.  The first runs from the bottom up, so the top
    # block it forms last is the first the second writes, and is kept rather
    # than formed again
    scale = 0.0
    for columns in blocks:
        block = samples(columns)
        top, bottom = float(block.max()), float(block.min())
        if not (math.isfinite(top) and math.isfinite(bottom)):
            raise FloatingPointError("non-finite value in column 'w'")
        scale = max(scale, top, -bottom)
    scale = scale or 1.0

    def lines(pgm, block):  # the CSV's blocks of columns; each block's graymap rows follow its checked lines
        pgm.write(f"P5\n{nx} {ny}\n255\n".encode())
        re_row = _text_rows(grid.re_points.tolist())[None, :]  # formatted once, not once a block
        for columns in reversed(blocks):
            rows = (samples(columns) if block is None else block)[:, ::-1].T  # im descending, re ascending
            block = None
            yield [re_row, grid.im_points[columns][::-1, None], rows]
            # symmetric diverging map: W = 0 -> gray 128, +-max|W| -> 255/0
            pgm.write(np.clip(np.rint(127.5 + 127.5 * rows / scale), 0, 255).astype(np.uint8).tobytes())

    with _atomic_file(args.out + ".csv") as csv, _atomic_file(args.out + ".pgm") as pgm:
        csv.writelines(_csv_chunks(config, ["re", "im", "w"], lines(pgm, block)))
    return 0


def _cmd_overlap(args) -> int:
    rotation = args.pert == "rotation"  # rotations act on the circle displaced by alpha
    _check_amplitudes(("--alpha", (2.0 if rotation else 1.0) * _modulus(args.alpha)), ("--s-max", 0.0 if rotation else args.s_max))
    sweep = metrology.overlap_sweep(args.alpha, args.m, _gammas(args.gammas, args.m), kind=args.pert, direction=args.phi,
                                    max_magnitude=args.s_max, n_points=args.points)
    header = ["magnitude", "exact", "approx"]
    columns = [sweep.magnitudes, sweep.exact, sweep.approx]
    if args.quadrature:
        try:
            columns.append(sweep.quadrature())
        except ValueError as exc:  # the grid aliases a symbol: name the flag that set the range
            raise ValueError(f"--s-max {args.s_max:g}: {exc}") from None
        header.append("quadrature")
    config = _config_string(args, ["alpha", "m", "gammas", "pert", "phi", "s_max", "points", "quadrature"])
    _atomic_write(args.out, _csv_bytes(config, header, columns))
    return 0


def _cmd_protocol(args) -> int:
    # the grid runs from 0 to s_max, so checking the extreme checks every point
    metrology.PerturbationSpec(args.pert, args.s_max, args.phi)
    _check_amplitudes(("--alpha", _modulus(args.alpha)), ("--s-max", args.s_max if args.pert == "displacement" else 0.0))
    mags = np.linspace(0.0, args.s_max, args.points)
    weights = protocol._fringe_weights(args.regime, args.alpha, args.pert, args.phi, mags, args.dt_fraction)
    config = _config_string(args, ["regime", "alpha", "pert", "phi", "s_max", "points", "dt_fraction"])
    _atomic_write(args.out, _csv_bytes(config, ["s", "p_e", "p_g"], [mags, *map(states._abs_sq, weights)]))
    return 0


def _cmd_estimate(args) -> int:
    a_abs = _modulus(args.alpha)
    if a_abs == 0.0:
        raise ValueError("--alpha must be nonzero: the fringe and its inversion divide by |alpha|")
    _check_amplitudes(("--alpha", a_abs))
    if args.repetitions > np.iinfo(np.int64).max:
        raise ValueError(f"--repetitions must be at most {np.iinfo(np.int64).max}, got {args.repetitions}")
    true_s = args.s if args.s is not None else np.pi / (8.0 * a_abs)
    counts = estimation.run_trials(true_s, args.alpha, args.repetitions, args.trials, args.seed, args.convention)
    estimates = estimation.estimate_displacement(counts, args.repetitions, a_abs, args.convention)
    mean, emp_sigma = estimation._mean_and_spread(estimates)
    theory = estimation.theory_sigma(args.repetitions, a_abs)
    if not all(map(math.isfinite, (mean, emp_sigma, theory))):
        raise FloatingPointError(f"the summary is not finite: mean={mean!r} empirical_sigma={emp_sigma!r} theory_sigma={theory!r}")
    summary = f"summary mean={_fmt(mean)} empirical_sigma={_fmt(emp_sigma)} theory_sigma={_fmt(theory)}"
    config = _config_string(args, ["alpha", "s", "repetitions", "trials", "seed", "convention"])
    columns = [np.arange(estimates.size), counts, estimates]
    _atomic_write(args.out, _csv_bytes(config, ["trial", "r", "s_tilde"], columns, trailing_comments=[summary]))
    print(summary)
    return 0


def _cmd_feasibility(args) -> int:
    if args.period is not None and not 0.0 < args.period < math.inf:  # phrased so that NaN fails too
        raise ValueError(f"--period must be positive and finite, got {args.period!r}")
    omega0 = args.omega0 if args.omega0 is not None else 2.0 * math.pi / args.period
    report = estimation.feasibility(omega0, args.nbar, args.budget, args.regime)
    print(f"regime={args.regime}")
    print(f"interaction_time_s={_fmt(report.interaction_time)}")
    print(f"decoherence_threshold_s={_fmt(report.decoherence_threshold)}")
    print(f"ratio={_fmt(report.ratio)}")
    print(f"verdict={'favorable' if report.verdict else 'insufficient'}")
    return 0


# --- parser -----------------------------------------------------------------


def _add_state_args(p):
    p.add_argument("--alpha", type=parse_complex, required=True, help="circle amplitude, 'a+bi' syntax")
    p.add_argument("--m", type=int, default=2, help="number of components on the circle")
    p.add_argument("--gammas", default=None, help="comma-separated component phases (default: zeros)")


def _add_pert_args(p):
    p.add_argument("--pert", choices=["displacement", "rotation"], help="perturbation kind")
    p.add_argument("--s", type=float, default=0.0, help="perturbation magnitude (s, or theta in radians)")
    p.add_argument("--phi", type=float, default=None,
                   help="absolute displacement direction in radians (default: maximum sensitivity)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subplanck",
        description="Sub-unit phase-space interference structures as a metrology resource: "
        "Wigner rendering, fringe sweeps, TLS readout protocols, and estimation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wigner", help="render a Wigner field to CSV + PGM")
    _add_state_args(p)
    p.add_argument("--displace", type=parse_complex, default=None, help="pre-displacement of the state")
    _add_pert_args(p)
    p.add_argument("--product", action="store_true", help="emit the pointwise product of unperturbed and perturbed fields")
    p.add_argument("--bounds", type=float, nargs=4, default=None, metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"),
                   help="explicit grid bounds; give with --nx and --ny (default: grid sized to the state)")
    p.add_argument("--nx", type=int, default=None, help="grid points along Re; give with --bounds and --ny")
    p.add_argument("--ny", type=int, default=None, help="grid points along Im; give with --bounds and --nx")
    p.add_argument("--out", required=True, help="output prefix; writes <out>.csv and <out>.pgm")
    p.set_defaults(func=_cmd_wigner)

    p = sub.add_parser("overlap", help="sweep exact vs closed-form overlap fringes to CSV")
    _add_state_args(p)
    p.add_argument("--pert", choices=["displacement", "rotation"], default="displacement")
    p.add_argument("--phi", type=float, default=None)
    p.add_argument("--s-max", dest="s_max", type=float, required=True)
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--quadrature", action="store_true", help="add the phase-space quadrature column")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_overlap)

    p = sub.add_parser("protocol", help="sweep protocol excited-state probability to CSV")
    p.add_argument("--regime", choices=["dispersive", "resonant"], required=True)
    p.add_argument("--alpha", type=parse_complex, required=True)
    p.add_argument("--pert", choices=["displacement", "rotation"], default="displacement")
    p.add_argument("--phi", type=float, default=None)
    p.add_argument("--dt-fraction", dest="dt_fraction", type=float, default=1.0)
    p.add_argument("--s-max", dest="s_max", type=float, required=True)
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_protocol)

    p = sub.add_parser("estimate", help="Monte Carlo estimation experiment to CSV")
    p.add_argument("--alpha", type=parse_complex, required=True)
    p.add_argument("--s", type=float, default=None, help="true displacement (default: mid-fringe)")
    p.add_argument("--repetitions", type=int, default=10000)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--convention", choices=["dispersive", "resonant"], default="dispersive")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("feasibility", help="interaction-time vs decoherence report")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--omega0", type=float, default=None, help="vacuum Rabi frequency in 1/s")
    group.add_argument("--period", type=float, default=None, help="Rabi period 2 pi / Omega_0 in s")
    p.add_argument("--nbar", type=float, required=True)
    p.add_argument("--budget", type=float, required=True, help="decoherence budget in seconds")
    p.add_argument("--regime", choices=["cavity", "ion"], default="cavity")
    p.set_defaults(func=_cmd_feasibility)
    return parser


_parser = functools.cache(build_parser)  # one parser a process
# the least value of each count flag, checked before any arithmetic
_LEAST_COUNTS = {"m": 1, "points": 2, "nx": 2, "ny": 2, "repetitions": 1, "trials": 1, "seed": 0}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for key, least in _LEAST_COUNTS.items():
            value = getattr(args, key, None)
            if value is not None and value < least:
                raise ValueError(f"--{key} must be at least {least}, got {value}")
        return args.func(args)
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
