"""Seeded job lists for the three benchmark workloads, with one correctness
check per job against an independent reference (see reference.py).

Every job calls the program through module attributes (``cli.main``,
``metrology.overlap_sweep``...) looked up at call time, so the tracer's
patches are seen.  A job is split in three: ``run`` is the timed call into
the program; ``collect`` turns its raw result, its standard output and the
quadrature error estimates it produced into named arrays (untimed); and
``check`` raises CheckFailed when the arrays disagree with the reference.
CLI jobs write their files into the working directory.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref

QUADRATURE_FLOOR = 1e-6
MASS_TOL = 1e-6


class CheckFailed(Exception):
    """A job's output disagrees with its reference."""


@dataclass
class Job:
    name: str
    spec: dict
    run: Callable[[], Any]
    collect: Callable[[Any, str, list], dict]
    check: Callable[[dict], None]
    files: tuple[str, ...] = ()
    known_defect: str | None = None


class OverlapErrorProbe:
    """Stands in for ``wigner.phase_space_overlap`` and keeps the quadrature
    error estimate the program computes on every call but the CLI drops."""

    def __init__(self, wigner_module):
        self.module = wigner_module
        self.original = wigner_module.phase_space_overlap
        self.errors: list[float] = []

    def __call__(self, w1, w2, with_error=False):
        value, err = self.original(w1, w2, with_error=True)
        self.errors.append(float(err))
        return (value, err) if with_error else value

    def install(self):
        self.module.phase_space_overlap = self

    def uninstall(self):
        self.module.phase_space_overlap = self.original


def _cplx(z: complex) -> str:
    return f"{z.real!r}{z.imag:+.17g}i"


def _gammas(rng: random.Random, m: int) -> list[float]:
    return [rng.uniform(0.0, 2.0 * math.pi) for _ in range(m)]


def _polar(rng: random.Random, r: float) -> complex:
    t = rng.uniform(0.0, 2.0 * math.pi)
    return r * complex(math.cos(t), math.sin(t))


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _cli_runner(argv: list[str]):
    import subplanck.cli

    return lambda: subplanck.cli.main(argv)


def _cli_status(rc):
    _require(rc == 0, f"exit code {rc}")


def _read_table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)


def _read_field(prefix: Path) -> dict:
    data = _read_table(prefix.with_suffix(".csv"))
    pgm = prefix.with_suffix(".pgm").read_bytes()
    nx = int(np.unique(data[:, 0]).size)
    ny = data.shape[0] // nx
    values = data[:, 2].reshape(ny, nx)[::-1].T
    header = pgm.split(b"\n", 3)
    _require(header[0] == b"P5" and header[1] == f"{nx} {ny}".encode(), "PGM header does not match the CSV grid")
    return {"re": data[:nx, 0], "im": data[::nx, 1][::-1], "w": values}


def _overlap_reference(alpha, m, gammas, kind):
    """|<psi|U(mag) psi>|^2 from the Gram reference, for the perturbations the
    program applies: rotations act on D(alpha)|psi>, and displacements act
    orthogonally to alpha."""
    base = ref.circular(alpha, m, gammas)
    if kind == "rotation":
        base = ref.displaced(*base, alpha)
    direction = 1j * alpha / abs(alpha)

    def exact(mag):
        moved = ref.rotated(*base, mag) if kind == "rotation" else ref.displaced(*base, mag * direction)
        return ref.fidelity(base, moved)

    return exact


# --- phase_space ------------------------------------------------------------


def _render(name, alpha, m, gammas, grid=None, known_defect=None) -> Job:
    prefix = Path(name)
    argv = ["wigner", f"--alpha={_cplx(alpha)}", "--m", str(m), "--gammas", ",".join(map(repr, gammas)), "--out", str(prefix)]
    if grid is not None:
        lo, hi, n = grid
        argv += ["--bounds", repr(lo), repr(hi), repr(lo), repr(hi), "--nx", str(n), "--ny", str(n)]
    state = ref.circular(alpha, m, gammas)

    def collect(rc, stdout, errors):
        _cli_status(rc)
        return _read_field(prefix)

    def check(out):
        if grid is None:
            mass = ref.trapezoid_mass(out["w"], out["re"], out["im"])
            _require(abs(mass - 1.0) <= MASS_TOL, f"field mass {mass!r} differs from 1")
        else:
            # the explicit grid covers only the fringe region, so compare
            # against the log-domain reference field instead of the mass
            dev = float(np.max(np.abs(out["w"] - ref.wigner(*state, out["re"], out["im"]))))
            _require(dev <= 1e-8, f"field deviates from the reference by {dev:.3e}")

    return Job(name, {"argv": argv}, _cli_runner(argv), collect, check,
               files=(f"{name}.csv", f"{name}.pgm"), known_defect=known_defect)


def _product(name, alpha, m, gammas, s, phi) -> Job:
    prefix = Path(name)
    argv = ["wigner", f"--alpha={_cplx(alpha)}", "--m", str(m), "--gammas", ",".join(map(repr, gammas)),
            "--product", "--pert", "displacement", "--s", repr(s), "--phi", repr(phi), "--out", str(prefix)]
    base = ref.circular(alpha, m, gammas)
    exact = ref.fidelity(base, ref.displaced(*base, s * complex(math.cos(phi), math.sin(phi))))

    def collect(rc, stdout, errors):
        _cli_status(rc)
        line = next(ln for ln in stdout.splitlines() if ln.startswith("product_integral="))
        out = _read_field(prefix)
        out["integral"] = float(line.split("=", 1)[1])
        out["err"] = errors[-1] if errors else 0.0
        return out

    def check(out):
        tol = max(out["err"], QUADRATURE_FLOOR)
        dev = abs(out["integral"] - exact)
        _require(dev <= tol, f"product integral {out['integral']!r} vs exact fidelity {exact!r} (tol {tol:.1e})")

    return Job(name, {"argv": argv}, _cli_runner(argv), collect, check, files=(f"{name}.csv", f"{name}.pgm"))


def _quadrature(name, alpha, m, gammas, kind, s_max, points) -> Job:
    path = Path(f"{name}.csv")
    argv = ["overlap", f"--alpha={_cplx(alpha)}", "--m", str(m), "--gammas", ",".join(map(repr, gammas)),
            "--pert", kind, "--s-max", repr(s_max), "--points", str(points), "--quadrature", "--out", str(path)]
    exact = _overlap_reference(alpha, m, gammas, kind)

    def collect(rc, stdout, errors):
        _cli_status(rc)
        data = _read_table(path)
        errs = np.array(errors)
        if errs.size != data.shape[0]:
            errs = np.zeros(data.shape[0])
        return {"mag": data[:, 0], "exact": data[:, 1], "approx": data[:, 2], "quad": data[:, 3], "err": errs}

    def check(out):
        want = np.array([exact(x) for x in out["mag"]])
        dev = float(np.max(np.abs(out["exact"] - want)))
        _require(dev <= 1e-9, f"exact column deviates from the Gram reference by {dev:.3e}")
        excess = np.abs(out["quad"] - want) - np.maximum(out["err"], QUADRATURE_FLOOR)
        _require(bool(np.all(excess <= 0.0)), f"quadrature outside its error estimate at {int(np.sum(excess > 0))} points")

    return Job(name, {"argv": argv}, _cli_runner(argv), collect, check, files=(f"{name}.csv",))


def phase_space(rng: random.Random) -> list[Job]:
    return [
        _render("render_compass_a8", 8j, 4, _gammas(rng, 4)),
        _render("render_m8_a4", 4j, 8, _gammas(rng, 8)),
        _product("product_compass_a4", 4j, 4, _gammas(rng, 4), 0.2776801836348979, math.pi / 4),
        _quadrature("quadrature_displacement", 4j, 4, _gammas(rng, 4), "displacement", 0.4, 129),
        _quadrature("quadrature_rotation", 4j, 4, _gammas(rng, 4), "rotation", 0.1, 129),
        _render("render_range_edge_a20", 20j, 2, _gammas(rng, 2), grid=(-0.5, 0.5, 61),
                known_defect="wigner_field overflows at |alpha| >= ~19: every value is NaN and the CLI exits 0"),
    ]


# --- fringe_readout ---------------------------------------------------------


def _sweep(rng, kind, m, amag) -> Job:
    import subplanck.metrology as metrology

    alpha, gammas = _polar(rng, amag), _gammas(rng, m)
    exact = _overlap_reference(alpha, m, gammas, kind)

    def check(out):
        want = np.array([exact(x) for x in out["mag"]])
        dev = float(np.max(np.abs(out["exact"] - want)))
        _require(dev <= 1e-9, f"exact overlap deviates from the Gram reference by {dev:.3e}")

    return Job(
        f"sweep_{kind}_m{m}_a{amag}",
        {"alpha": [alpha.real, alpha.imag], "m": m, "gammas": gammas, "kind": kind},
        lambda: metrology.overlap_sweep(alpha, m, gammas, kind, None, None, 257),
        lambda sw, *_: {"mag": sw.magnitudes, "exact": sw.exact, "approx": sw.approx},
        check,
    )


def _first_zero(rng, kind, m) -> Job:
    import subplanck.metrology as metrology

    alpha, gammas = _polar(rng, 4.0), _gammas(rng, m)
    exact = _overlap_reference(alpha, m, gammas, kind)

    def check(out):
        s = float(out["s"][0])
        f0, step = exact(s), 1e-4 * s
        _require(f0 < 0.5, f"overlap {f0!r} at the located zero is not below 1/2")
        _require(min(exact(s - step), exact(s + step)) >= f0 - 1e-12, f"s = {s!r} is not a local minimum of the overlap")

    return Job(
        f"first_zero_{kind}_m{m}",
        {"alpha": [alpha.real, alpha.imag], "m": m, "gammas": gammas, "kind": kind},
        lambda: metrology.locate_first_zero(alpha, m, gammas, kind),
        lambda s, *_: {"s": np.array([s])},
        check,
    )


def _closed_form(rng, regime, kind) -> Job:
    import subplanck.metrology as metrology
    import subplanck.protocol as protocol

    alpha = _polar(rng, 4.0)
    a = abs(alpha)
    mags = np.linspace(0.0, 0.4 if kind == "displacement" else 0.025, 257)
    dt_fraction = rng.uniform(0.5, 1.0) if regime == "resonant" else 1.0

    def run():
        if regime == "dispersive":
            return [protocol.dispersive_protocol(alpha, metrology.PerturbationSpec(kind, float(x))).p_e for x in mags]
        return [protocol.resonant_protocol(alpha, metrology.PerturbationSpec(kind, float(x)), dt_fraction).p_e
                for x in mags]

    def check(out):
        delta = 4.0 * a * mags if kind == "displacement" else 4.0 * a * a * mags
        if regime == "dispersive":
            want = 0.5 * (1.0 - np.cos(delta))
        else:
            want = 0.5 * (1.0 + np.cos(delta * math.sin(0.5 * math.pi * dt_fraction)))
        dev = float(np.max(np.abs(out["p_e"] - want)))
        _require(dev <= 1e-12, f"p_e deviates from the fringe law by {dev:.3e}")

    return Job(
        f"{regime}_{kind}_sweep",
        {"alpha": [alpha.real, alpha.imag], "regime": regime, "kind": kind, "dt_fraction": dt_fraction},
        run,
        lambda p, *_: {"p_e": np.array(p)},
        check,
    )


def _generic(rng, kind) -> Job:
    import subplanck.metrology as metrology
    import subplanck.protocol as protocol

    alpha = _polar(rng, 4.0)
    a = abs(alpha)
    mags = np.linspace(0.0, 0.4 if kind == "displacement" else 0.05, 65)

    def run():
        seq = protocol.dispersive_sequence(alpha, rotation=kind == "rotation")
        return [protocol.generic_strategy(seq, metrology.PerturbationSpec(kind, float(x)), alpha).p_e for x in mags]

    def expected(x):
        # U^dag D U |e, alpha> closes on |e, alpha> with the overlap of the
        # two perturbed branches: <alpha|D(2 beta)|alpha> for displacements,
        # e^{i Im(-alpha conj(b))} <alpha|b - alpha>, b = 2 alpha e^{i x}, for rotations
        if kind == "displacement":
            return 0.5 * (1.0 + math.exp(-2.0 * x * x) * math.cos(4.0 * a * x))
        b = 2.0 * alpha * complex(math.cos(x), math.sin(x))
        phase = np.exp(1j * np.imag(-alpha * np.conj(b)))
        ov = np.exp(-0.5 * (a * a + abs(b - alpha) ** 2) + np.conj(alpha) * (b - alpha))
        return 0.5 * (1.0 + float(np.real(phase * ov)))

    def check(out):
        dev = float(np.max(np.abs(out["p_e"] - np.array([expected(x) for x in mags]))))
        _require(dev <= 1e-9, f"generic-strategy p_e deviates from the branch algebra by {dev:.3e}")

    return Job(
        f"generic_{kind}_sweep",
        {"alpha": [alpha.real, alpha.imag], "kind": kind},
        run,
        lambda p, *_: {"p_e": np.array(p)},
        check,
    )


def _crb_mean_check(true_s, a, repetitions, trials):
    sigma_crb = 1.0 / (4.0 * math.sqrt(repetitions * a * a))
    tol = 5.0 * sigma_crb / math.sqrt(trials)

    def check(mean):
        _require(abs(mean - true_s) <= tol, f"estimator mean {mean!r} vs true s {true_s!r} (tol {tol:.2e})")

    return check


def _mid_fringe(rng, a) -> float:
    return rng.uniform(0.4, 0.6) * math.pi / (4.0 * a)


def _estimate(rng, repetitions, trials) -> Job:
    name = f"estimate_r{repetitions}"
    path = Path(f"{name}.csv")
    alpha = _polar(rng, 4.0)
    true_s = _mid_fringe(rng, 4.0)
    argv = ["estimate", f"--alpha={_cplx(alpha)}", "--s", repr(true_s), "--repetitions", str(repetitions),
            "--trials", str(trials), "--seed", str(rng.randrange(2**31)), "--out", str(path)]
    mean_check = _crb_mean_check(true_s, abs(alpha), repetitions, trials)

    def collect(rc, stdout, errors):
        _cli_status(rc)
        data = _read_table(path)
        return {"r": data[:, 1], "s_tilde": data[:, 2]}

    def check(out):
        _require(out["s_tilde"].size == trials, f"{out['s_tilde'].size} trial rows, expected {trials}")
        mean_check(float(np.mean(out["s_tilde"])))

    return Job(name, {"argv": argv}, _cli_runner(argv), collect, check, files=(f"{name}.csv",))


def _calibration(rng, nbar) -> Job:
    import subplanck.estimation as estimation

    alpha = _polar(rng, math.sqrt(nbar))
    true_s = _mid_fringe(rng, abs(alpha))
    seed = rng.randrange(2**31)
    repetitions, trials = 10_000, 200
    mean_check = _crb_mean_check(true_s, abs(alpha), repetitions, trials)
    return Job(
        f"calibration_nbar{nbar}",
        {"alpha": [alpha.real, alpha.imag], "true_s": true_s, "seed": seed},
        lambda: estimation.estimator_calibration(true_s, alpha, repetitions, trials, seed),
        lambda res, *_: {"bias": np.array([res[0]]), "sd": np.array([res[1]])},
        lambda out: mean_check(true_s + float(out["bias"][0])),
    )


def fringe_readout(rng: random.Random) -> list[Job]:
    jobs = [_sweep(rng, kind, m, a) for kind in ("displacement", "rotation") for m in (2, 4, 8) for a in (4, 8)]
    jobs += [_first_zero(rng, "displacement", 2), _first_zero(rng, "rotation", 4)]
    jobs += [_closed_form(rng, "dispersive", "displacement"), _closed_form(rng, "dispersive", "rotation"),
             _closed_form(rng, "resonant", "displacement")]
    jobs += [_generic(rng, "displacement"), _generic(rng, "rotation")]
    jobs += [_estimate(rng, 10_000, 200), _estimate(rng, 1_000_000, 200)]
    jobs += [_calibration(rng, nbar) for nbar in (4, 16, 64, 256)]
    return jobs


# --- jc_oracle --------------------------------------------------------------


def _jc_resonant(rng) -> Job:
    import subplanck.protocol as protocol
    import subplanck.states as states

    alpha = _polar(rng, 3.0)
    chi, eta = rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, 2.0 * math.pi)
    tls = [math.cos(chi), math.sin(chi) * complex(math.cos(eta), math.sin(eta))]
    nbar = 9.0
    t_half = 2.0 * math.pi * math.sqrt(nbar)

    def run():
        psi = states.to_fock(states.coherent_state(alpha))
        return protocol.jc_numeric_evolve(psi, tls, protocol.JCParams(1.0, 0.0, nbar, t_half))

    def check(out):
        joint = np.outer(np.asarray(tls), ref.fock(alpha, out["joint"].shape[1]))
        # DOP853 at the default rtol 1e-9 accumulates up to ~3e-6 over half a revival
        dev = float(np.linalg.norm(out["joint"] - ref.resonant_dressed(joint, 1.0, t_half)))
        _require(dev <= 1e-5, f"resonant evolution deviates from the dressed-block solution by {dev:.3e}")

    return Job(
        "jc_resonant_a3",
        {"alpha": [alpha.real, alpha.imag], "tls": [[c.real, c.imag] for c in map(complex, tls)]},
        run,
        lambda out, *_: {"joint": out},
        check,
    )


def _jc_detuned(rng, hamiltonian) -> Job:
    import subplanck.protocol as protocol
    import subplanck.states as states

    alpha = _polar(rng, 2.0)
    eta = rng.uniform(0.0, 2.0 * math.pi)
    tls = [0.0, complex(math.cos(eta), math.sin(eta))]
    nbar = 4.0
    detuning = 10.0 * math.sqrt(nbar)
    t = 4.0 * math.pi * detuning

    def run():
        psi = states.to_fock(states.coherent_state(alpha))
        return protocol.jc_numeric_evolve(psi, tls, protocol.JCParams(1.0, detuning, nbar, t), hamiltonian=hamiltonian)

    def check(out):
        branch = out["joint"][1] / np.linalg.norm(out["joint"][1])
        fid = abs(np.vdot(ref.fock(-alpha, branch.size), branch)) ** 2
        _require(fid >= 0.99, f"flip fidelity to |-alpha> is {fid:.4f} < 0.99")

    return Job(
        f"jc_detuned_{hamiltonian}_a2",
        {"alpha": [alpha.real, alpha.imag], "eta": eta, "hamiltonian": hamiltonian},
        run,
        lambda out, *_: {"joint": out},
        check,
    )


def jc_oracle(rng: random.Random) -> list[Job]:
    return [_jc_resonant(rng), _jc_detuned(rng, "jc"), _jc_detuned(rng, "dispersive")]


def build(workload: str, seed: int) -> list[Job]:
    """The workload's job list; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    return {"phase_space": phase_space, "fringe_readout": fringe_readout, "jc_oracle": jc_oracle}[workload](
        rng)


def check_finite(outputs: dict):
    for key, value in outputs.items():
        arr = np.asarray(value)
        if arr.dtype.kind in "fc" and not np.all(np.isfinite(arr)):
            bad = int(np.size(arr) - np.count_nonzero(np.isfinite(arr)))
            raise CheckFailed(f"{bad} of {arr.size} values of {key!r} are not finite")


def inject_nan(outputs: dict) -> dict:
    """Copy of outputs with one value of the first float array set to NaN."""
    corrupted = dict(outputs)
    for key, value in outputs.items():
        arr = np.asarray(value)
        if arr.dtype.kind in "fc" and arr.size:
            arr = arr.copy()
            arr.flat[0] = np.nan
            corrupted[key] = arr
            return corrupted
    raise ValueError("no floating-point output to corrupt")
