"""Command-line surface: render Wigner fields, sweep overlap fringes, run
the measurement protocols, drive estimation experiments, and check
feasibility numbers.  All file outputs are deterministic for a fixed
argument list and seed, and are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
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


def _atomic_write(path: str, data: bytes):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".subplanck-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        # mkstemp creates 0600; give the output the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_bytes(comment: str, header: list[str], columns, trailing_comments=()) -> bytes:
    """CSV text from equal-length columns: integer columns as %d, all
    others with 17 significant digits.  A non-finite value raises
    FloatingPointError, so it never reaches a file."""
    columns = [np.asarray(col) for col in columns]
    for name, col in zip(header, columns):
        if not np.all(np.isfinite(col)):
            raise FloatingPointError(f"non-finite value in column {name!r}")
    row_fmt = ",".join("%d" if np.issubdtype(col.dtype, np.integer) else _FLOAT_FMT for col in columns)
    lines = [f"# subplanck {comment}", ",".join(header)]
    lines.extend(map(row_fmt.__mod__, zip(*(col.tolist() for col in columns))))
    lines.extend(f"# {c}" for c in trailing_comments)
    return ("\n".join(lines) + "\n").encode()


def _field_csv_bytes(comment: str, grid: wigner.PhaseSpaceGrid, values: np.ndarray) -> bytes:
    """CSV text of re,im,w rows for samples values[ix, iy]: rows run from
    im_max down to im_min, re ascending within a row.  Each coordinate is
    formatted once per axis; a row of the grid is one format string with
    its re and im text filled in and one slot per sample."""
    re_text = list(map(_FLOAT_FMT.__mod__, grid.re_points.tolist()))
    blocks = [f"# subplanck {comment}\nre,im,w\n"]
    for im_text, row in zip(map(_FLOAT_FMT.__mod__, grid.im_points[::-1].tolist()), values[:, ::-1].T.tolist()):
        tail = f",{im_text},{_FLOAT_FMT}\n"
        blocks.append((tail.join(re_text) + tail) % tuple(row))
    return "".join(blocks).encode()


def _pgm_bytes(values: np.ndarray, grid: wigner.PhaseSpaceGrid) -> bytes:
    """Binary 8-bit graymap, symmetric diverging map: W = 0 -> gray 128,
    +-max|W| -> 255/0.  Rows run from im_max down to im_min."""
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        scale = 1.0
    pixels = np.clip(np.rint(127.5 + 127.5 * values / scale), 0, 255).astype(np.uint8)
    raster = pixels[:, ::-1].T  # rows: im descending; columns: re ascending
    header = f"P5\n{grid.nx} {grid.ny}\n255\n".encode()
    return header + raster.tobytes()


def _gammas(arg: str | None, m: int) -> np.ndarray:
    if arg is None:
        return np.zeros(m)
    vals = np.array([float(v) for v in arg.split(",")])
    if vals.size != m:
        raise ValueError(f"expected {m} gamma phases, got {vals.size}")
    return vals


def _config_string(args, keys) -> str:
    parts = [args.command]
    for key in keys:
        parts.append(f"{key.replace('_', '-')}={getattr(args, key)}")
    return " ".join(parts)


# --- subcommands ------------------------------------------------------------


def _cmd_wigner(args) -> int:
    given = [flag is not None for flag in (args.bounds, args.nx, args.ny)]
    if any(given) and not all(given):
        raise ValueError("--bounds, --nx and --ny go together: give all three or none")
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
    # the fields this command renders: the base, the perturbed state, or both for --product
    rendered = sample_states if args.product or pert_state is None else [pert_state]
    # an under-resolved field reports itself once, as an UnderresolvedGridWarning
    fields = [wigner.wigner_field(state, grid) for state in rendered]
    if args.product:
        out_values = fields[0].values * fields[1].values
        integral = wigner.phase_space_overlap(*fields)
        print(f"product_integral={_fmt(integral)}")
    else:
        out_values = fields[0].values

    config = _config_string(args, ["alpha", "m", "gammas", "displace", "pert", "s", "phi", "product"])
    config += f" grid=({_fmt(grid.re_min)},{_fmt(grid.re_max)},{_fmt(grid.im_min)},{_fmt(grid.im_max)}) nx={grid.nx} ny={grid.ny}"
    _atomic_write(args.out + ".csv", _field_csv_bytes(config, grid, out_values))
    _atomic_write(args.out + ".pgm", _pgm_bytes(out_values, grid))
    return 0


def _cmd_overlap(args) -> int:
    sweep = metrology.overlap_sweep(
        args.alpha,
        args.m,
        _gammas(args.gammas, args.m),
        kind=args.pert,
        direction=args.phi,
        max_magnitude=args.s_max,
        n_points=args.points,
    )
    header = ["magnitude", "exact", "approx"]
    columns = [sweep.magnitudes, sweep.exact, sweep.approx]
    if args.quadrature:
        perturbed = [
            metrology.PerturbationSpec(sweep.kind, float(mag), sweep.direction).apply(sweep.target)
            for mag in sweep.magnitudes
        ]
        grid = wigner.auto_grid(sweep.target, perturbed[-1])
        w_base = wigner.wigner_field(sweep.target, grid)
        quad = [wigner.phase_space_overlap(w_base, wigner.wigner_field(state, grid)) for state in perturbed]
        header.append("quadrature")
        columns.append(np.array(quad))
    config = _config_string(args, ["alpha", "m", "gammas", "pert", "phi", "s_max", "points", "quadrature"])
    _atomic_write(args.out, _csv_bytes(config, header, columns))
    return 0


def _cmd_protocol(args) -> int:
    if args.points < 2:
        raise ValueError("points must be >= 2")
    # the grid runs from 0 to s_max, so checking the extreme checks every point
    metrology.PerturbationSpec(args.pert, args.s_max, args.phi)
    mags = np.linspace(0.0, args.s_max, args.points)
    weights = protocol._fringe_weights(args.regime, args.alpha, args.pert, args.phi, mags, args.dt_fraction)
    config = _config_string(args, ["regime", "alpha", "pert", "phi", "s_max", "points", "dt_fraction"])
    _atomic_write(args.out, _csv_bytes(config, ["s", "p_e", "p_g"], [mags, *map(states._abs_sq, weights)]))
    return 0


def _cmd_estimate(args) -> int:
    a_abs = abs(args.alpha)
    true_s = args.s if args.s is not None else np.pi / (8.0 * a_abs)
    counts = estimation.run_trials(true_s, args.alpha, args.repetitions, args.trials, args.seed, args.convention)
    estimates = estimation.estimate_displacement(counts, args.repetitions, a_abs, args.convention)
    mean = float(estimates.mean())
    emp_sigma = float(estimates.std(ddof=1)) if estimates.size > 1 else 0.0
    theory = estimation.theory_sigma(args.repetitions, a_abs)
    summary = f"summary mean={_fmt(mean)} empirical_sigma={_fmt(emp_sigma)} theory_sigma={_fmt(theory)}"
    config = _config_string(args, ["alpha", "s", "repetitions", "trials", "seed", "convention"])
    columns = [np.arange(estimates.size), counts, estimates]
    _atomic_write(args.out, _csv_bytes(config, ["trial", "r", "s_tilde"], columns, trailing_comments=[summary]))
    print(summary)
    return 0


def _cmd_feasibility(args) -> int:
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
