"""Acceptance suite: one test per top-level validation criterion, each
printed as a PASS/FAIL line with its runtime (run with -s to see all
lines; failures always show them).

Criteria 1 and 8 are kept at their quoted literature tolerances even
though exact simulation shows those targets cannot be met:

* criterion 1 asks the exact overlap to track the closed-form fringe
  [1 + cos(16 s)]/2 within 5e-3 across s in [0, 0.3], but the exact curve
  carries the Gaussian envelope e^{-s^2} the closed form drops, worth
  0.047 at s = 0.3 (the band only holds out to s ~ 0.12);

* criterion 8 asks the Monte Carlo estimator spread to match
  1/(8 sqrt(R nbar)) within 15%, but binomial error propagation through
  the arccos inversion gives 1/(4 sqrt(R nbar)) at every interior point,
  and that value saturates the Cramer-Rao bound, so no estimator can be
  twice as tight.  The measured spread lands on the bound.

Both are asserted as stated and fail honestly; the companion sub-checks
(fringe zero location, nbar-scaling exponent, reproducibility) pass.
"""

import contextlib
import io
import time

import numpy as np


from subplanck.cli import main as cli_main
from subplanck.estimation import estimator_calibration, feasibility, run_trials
from subplanck.metrology import PerturbationSpec, locate_first_zero
from subplanck.protocol import JCParams, dispersive_protocol, jc_numeric_evolve, resonant_protocol
from subplanck.states import (
    coherent_state,
    displace,
    fidelity,
    inner_product,
    make_circular_state,
    mean_excitation,
    rotate,
    to_fock,
)
from subplanck.wigner import auto_grid, cross_wigner, phase_space_overlap, wigner_field

from oracles import parity_wigner_fock

CAT = make_circular_state(4j, 2, [0.0, 0.0])
COMPASS = make_circular_state(4j, 4, np.zeros(4))


class _Criterion:
    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget = budget_s
        self.failures = []

    def check(self, ok, detail):
        if not ok:
            self.failures.append(detail)

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            return False
        elapsed = time.perf_counter() - self.start
        if elapsed > self.budget:
            self.failures.append(f"runtime {elapsed:.2f}s exceeds budget {self.budget}s")
        status = "PASS" if not self.failures else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {status} ({elapsed:.2f}s)")
        for msg in self.failures:
            print(f"    - {msg}")
        assert not self.failures, f"criterion {self.number}: " + "; ".join(self.failures)
        return False


def _displaced_cat(s):
    return displace(CAT, s * 1j * 4j / 4.0)


def test_criterion_01_fringe_law():
    with _Criterion(1, "closed-form fringe law", 1.0) as c:
        grid = np.linspace(0.0, 0.3, 601)
        exact = np.array([fidelity(CAT, _displaced_cat(s)) for s in grid])
        target = (1.0 + np.cos(16.0 * grid)) / 2.0
        deviation = np.abs(exact - target)
        worst = int(np.argmax(deviation))
        c.check(
            deviation[worst] <= 5e-3,
            f"max |exact - [1+cos(16s)]/2| = {deviation[worst]:.4f} at s = {grid[worst]:.3f} "
            f"(tolerance 5e-3; the exact overlap carries the e^(-s^2) envelope)",
        )
        zero = locate_first_zero(4j, 2, search_max=np.pi / 8)
        c.check(abs(zero - np.pi / 16) <= 1e-3, f"first zero at {zero:.6f}, want pi/16 +- 1e-3")


def test_criterion_02_wigner_consistency():
    with _Criterion(2, "phase-space quadrature vs exact overlap", 10.0) as c:
        shifted = _displaced_cat(0.1)
        grid = auto_grid(CAT, shifted)
        quad = phase_space_overlap(wigner_field(CAT, grid), wigner_field(shifted, grid))
        exact = abs(inner_product(CAT, shifted)) ** 2
        c.check(abs(quad - exact) <= 1e-5, f"|quadrature - exact| = {abs(quad - exact):.2e} > 1e-5")


def test_criterion_03_cross_wigner_oracle():
    with _Criterion(3, "cross term vs displaced-parity oracle", 30.0) as c:
        rng = np.random.default_rng(424242)
        worst = 0.0
        for _ in range(100):
            a_k = rng.uniform(0.2, 4.0) * np.exp(2j * np.pi * rng.uniform())
            a_l = rng.uniform(0.2, 4.0) * np.exp(2j * np.pi * rng.uniform())
            point = rng.uniform(-5, 5) + 1j * rng.uniform(-5, 5)
            diff = abs(cross_wigner(a_k, a_l, point) - parity_wigner_fock(a_k, a_l, point))
            worst = max(worst, diff)
        c.check(worst <= 1e-8, f"worst oracle disagreement {worst:.2e} > 1e-8")


def test_criterion_04_compass_quasi_orthogonality():
    with _Criterion(4, "compass displaced overlap", 1.0) as c:
        beta = np.exp(1j * np.pi / 4) * np.pi / (2.0 * np.sqrt(2.0) * 4.0)
        val = fidelity(COMPASS, displace(COMPASS, beta))
        c.check(val < 0.02, f"overlap {val:.3e} >= 0.02")


def test_criterion_05_rotation_heisenberg_scale():
    with _Criterion(5, "rotation sensitivity vs coherent baseline", 1.0) as c:
        theta = np.pi / 64.0
        shifted = displace(CAT, 4j)
        cat_overlap = fidelity(shifted, rotate(shifted, theta))
        c.check(cat_overlap < 0.02, f"displaced-cat overlap {cat_overlap:.3e} >= 0.02")
        alpha_eq = np.sqrt(mean_excitation(shifted))
        coh = coherent_state(alpha_eq)
        coh_overlap = fidelity(coh, rotate(coh, theta))
        c.check(coh_overlap > 0.9, f"equal-energy coherent overlap {coh_overlap:.3f} <= 0.9")


def test_criterion_06_protocol_fringes():
    with _Criterion(6, "protocol fringe laws and self-inversion", 1.0) as c:
        ss = np.linspace(0.0, 0.45, 181)
        disp_dev = max(
            abs(dispersive_protocol(4j, PerturbationSpec("displacement", float(s))).p_e - (1 - np.cos(16 * s)) / 2)
            for s in ss
        )
        res_dev = max(
            abs(resonant_protocol(4j, PerturbationSpec("displacement", float(s))).p_e - (1 + np.cos(16 * s)) / 2)
            for s in ss
        )
        c.check(disp_dev <= 1e-10, f"dispersive fringe deviation {disp_dev:.2e} > 1e-10")
        c.check(res_dev <= 1e-10, f"resonant fringe deviation {res_dev:.2e} > 1e-10")
        quiet = PerturbationSpec("displacement", 0.0)
        d0 = dispersive_protocol(4j, quiet)
        r0 = resonant_protocol(4j, quiet)
        f_d = d0.p_g * fidelity(d0.branch("g"), coherent_state(4j))
        f_r = r0.p_e * fidelity(r0.branch("e"), coherent_state(4j))
        c.check(f_d >= 1 - 1e-10, f"dispersive self-inversion fidelity {f_d}")
        c.check(f_r >= 1 - 1e-10, f"resonant self-inversion fidelity {f_r}")


def test_criterion_07_jc_numeric_oracle():
    with _Criterion(7, "numeric Jaynes-Cummings oracle", 60.0) as c:
        flop = jc_numeric_evolve(
            to_fock(coherent_state(0.0), 6), (1.0, 0.0), JCParams(1.0, 0.0, 0.0, np.pi)
        )
        flop_fidelity = abs(flop[1, 1]) ** 2
        c.check(flop_fidelity >= 1 - 1e-6, f"vacuum flop fidelity {flop_fidelity:.10f} < 1 - 1e-6")

        alpha = 3.0
        nbar = alpha**2
        omega0 = 1.0
        detuning = 20.0 * omega0 * np.sqrt(nbar)
        params = JCParams(omega0, detuning, nbar, 4.0 * np.pi * detuning / omega0**2)
        psi = to_fock(coherent_state(alpha))
        flipped = to_fock(coherent_state(-alpha), psi.dimension).coefficients
        for label, kind in (("effective", "dispersive"), ("full", "jc")):
            out = jc_numeric_evolve(psi, (0.0, 1.0), params, hamiltonian=kind)
            branch = out[1] / np.linalg.norm(out[1])
            fid = abs(np.vdot(flipped, branch)) ** 2
            c.check(fid >= 0.99, f"{label}-Hamiltonian branch fidelity {fid:.4f} < 0.99")


def test_criterion_08_estimator_law():
    with _Criterion(8, "Heisenberg estimator law", 60.0) as c:
        repetitions, alpha = 10_000, 4j
        mid = np.pi / 32.0
        _, sigma = estimator_calibration(mid, alpha, repetitions, 1000, seed=20240601)
        quoted = 1.0 / (8.0 * np.sqrt(repetitions * 16.0))
        c.check(
            abs(sigma - quoted) <= 0.15 * quoted,
            f"empirical sigma {sigma:.3e} vs quoted 1/(8 sqrt(R nbar)) = {quoted:.3e} "
            f"(ratio {sigma / quoted:.2f}; binomial propagation and the Cramer-Rao bound "
            f"give 1/(4 sqrt(R nbar)) = {2 * quoted:.3e})",
        )
        sigmas = []
        nbars = [4.0, 16.0, 64.0]
        for i, nb in enumerate(nbars):
            amp = np.sqrt(nb)
            _, sig = estimator_calibration(np.pi / (8 * amp), 1j * amp, repetitions, 400, seed=777 + i)
            sigmas.append(sig)
        exponent = float(np.polyfit(np.log(nbars), np.log(sigmas), 1)[0])
        c.check(abs(exponent + 0.5) <= 0.1, f"nbar-scaling exponent {exponent:.3f} outside -0.5 +- 0.1")
        again = run_trials(mid, alpha, repetitions, 50, seed=20240601)
        first = run_trials(mid, alpha, repetitions, 50, seed=20240601)
        c.check(np.array_equal(again, first), "seeded trials are not reproducible")


def test_criterion_09_feasibility_numbers():
    with _Criterion(9, "feasibility reference numbers", 1.0) as c:
        cavity = feasibility(3e5, 20.0, 15e-3, regime="cavity")
        c.check(
            1.87e-3 <= cavity.decoherence_threshold <= 1.90e-3,
            f"cavity threshold {cavity.decoherence_threshold * 1e3:.3f} ms outside [1.87, 1.90]",
        )
        ion = feasibility(2 * np.pi / 140e-6, 20.0, 5e-3, regime="ion")
        c.check(
            0.60e-3 <= ion.interaction_time <= 0.63e-3,
            f"ion interaction time {ion.interaction_time * 1e3:.3f} ms outside [0.60, 0.63]",
        )


def test_criterion_10_cli_determinism(tmp_path):
    with _Criterion(10, "byte-identical CLI reruns", 60.0) as c:
        commands = [
            ["wigner", "--alpha", "0+4i", "--m", "2", "--out", "{out}"],
            ["wigner", "--alpha", "0+4i", "--m", "4", "--product", "--pert", "displacement",
             "--s", "0.27768018363489789", "--phi", "0.78539816339744828", "--out", "{out}"],
            ["overlap", "--alpha", "0+4i", "--m", "2", "--s-max", "0.4", "--points", "33", "--out", "{out}"],
            ["protocol", "--regime", "resonant", "--alpha", "0+4i", "--s-max", "0.4", "--points", "17", "--out", "{out}"],
            ["estimate", "--alpha", "0+4i", "--repetitions", "2000", "--trials", "32", "--seed", "5", "--out", "{out}"],
            ["feasibility", "--omega0", "3e5", "--nbar", "20", "--budget", "0.015"],
        ]
        for idx, template in enumerate(commands):
            outputs = []
            for tag in ("first", "second"):
                token = str(tmp_path / f"cmd{idx}_{tag}")
                argv = [v.format(out=token) for v in template]
                stream = io.StringIO()
                with contextlib.redirect_stdout(stream):
                    code = cli_main(argv)
                blob = stream.getvalue().encode()
                for path in sorted(tmp_path.glob(f"cmd{idx}_{tag}*")):
                    blob += path.read_bytes()
                outputs.append((code, blob))
            c.check(outputs[0][0] == 0, f"command {idx} failed with exit code {outputs[0][0]}")
            c.check(outputs[0][1] == outputs[1][1], f"command {idx} output differs between reruns")
