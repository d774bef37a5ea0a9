"""Readout statistics, the arccos fringe-inversion estimator, and the
experimental feasibility calculator.

`estimate_displacement` inverts a whole array of excited counts in one
call and returns one estimate per count; its quoted width is
`theory_sigma`.

Randomness contract: `simulate_readout` is the one sampler.  It draws
each binomial count as one exact Generator.binomial draw from
np.random.default_rng(seed), so no R-sized array is ever formed; an int
seed gives numpy's PCG64 stream seeded through SeedSequence(seed).  Trial
ensembles spawn one child SeedSequence per trial from the master seed and
call `simulate_readout` on each child, so results are reproducible for a
given master seed and independent of evaluation order, and a shorter
ensemble is a prefix of a longer one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrology import DISPLACEMENT
from .protocol import _fringe_weights

__all__ = [
    "FeasibilityReport",
    "simulate_readout",
    "estimate_displacement",
    "estimator_calibration",
    "run_trials",
    "feasibility",
    "theory_sigma",
]


@dataclass(frozen=True)
class FeasibilityReport:
    interaction_time: float
    decoherence_threshold: float
    ratio: float
    verdict: bool


def simulate_readout(p_e: float, repetitions: int, seed) -> int:
    """Draw r ~ Binomial(repetitions, p_e) from np.random.default_rng(seed);
    `seed` is an int, None or a (spawned) SeedSequence."""
    if not 0.0 <= p_e <= 1.0:
        raise ValueError("p_e must lie in [0, 1]")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    return int(np.random.default_rng(seed).binomial(repetitions, p_e))


def theory_sigma(repetitions: int, alpha_mag: float) -> float:
    """Quoted Gaussian width of the estimator, 1 / (8 sqrt(R nbar))."""
    return 1.0 / (8.0 * math.sqrt(repetitions * alpha_mag**2))


def estimate_displacement(
    counts,
    repetitions: int,
    alpha_mag: float,
    convention: str = "dispersive",
) -> np.ndarray:
    """Invert the fringe probability on the principal arccos branch, one
    estimate per excited count in `counts` (a count or a sequence of them).

    The dispersive fringe P_e = [1 - cos(4|alpha|s)]/2 inverts as
    s = arccos(1 - 2 r/R) / (4 |alpha|); the resonant fringe
    P_e = [1 + cos(4|alpha|s)]/2 pairs with arccos(2 r/R - 1).  The
    frequency ratio is clamped to [-1, 1] to absorb floating-point spill
    at the fringe extremes.  Each arccos is libm's `math.acos`, so the
    estimates do not depend on numpy's vectorized arccos.
    """
    counts = np.atleast_1d(counts)
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if not np.all((counts >= 0) & (counts <= repetitions)):
        raise ValueError("excited counts must lie in [0, repetitions]")
    if not 0.0 < alpha_mag < math.inf:  # phrased so that NaN fails too
        raise ValueError(f"alpha_mag must be positive and finite, got {alpha_mag!r}")
    if convention not in ("dispersive", "resonant"):
        raise ValueError("convention must be 'dispersive' or 'resonant'")
    xi = counts / repetitions
    arg = np.clip(1.0 - 2.0 * xi if convention == "dispersive" else 2.0 * xi - 1.0, -1.0, 1.0)
    return np.array([math.acos(x) for x in arg.tolist()]) / (4.0 * alpha_mag)


def run_trials(
    true_s: float,
    alpha: complex,
    repetitions: int,
    n_trials: int,
    seed,
    convention: str = "dispersive",
) -> np.ndarray:
    """Excited counts for n_trials independent full pipelines.

    The protocol's excited-state probability is computed once; each trial
    then draws its count with `simulate_readout` from its own child of
    SeedSequence(seed).spawn(n_trials).  true_s
    must lie on the principal branch [0, pi/(4|alpha|)], the only range the
    arccos inversion can return, so no larger shift is silently aliased.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if convention not in ("dispersive", "resonant"):
        raise ValueError("convention must be 'dispersive' or 'resonant'")
    if not 0.0 <= true_s <= math.pi / (4.0 * abs(alpha)):
        raise ValueError("true_s must lie on the principal branch [0, pi/(4|alpha|)]")
    p_e = abs(_fringe_weights(convention, alpha, DISPLACEMENT, None, true_s, 1.0)[0]) ** 2
    children = np.random.SeedSequence(seed).spawn(n_trials)
    return np.array([simulate_readout(p_e, repetitions, child) for child in children], dtype=np.int64)


def estimator_calibration(
    true_s: float,
    alpha: complex,
    repetitions: int,
    n_trials: int,
    seed,
    convention: str = "dispersive",
) -> tuple[float, float]:
    """Empirical (mean bias, standard deviation) of the estimator over
    n_trials >= 2 full protocol->readout->inversion pipelines."""
    if n_trials < 2:
        raise ValueError("n_trials must be >= 2 for a standard deviation")
    a_abs = abs(alpha)
    if not 0.0 < true_s < np.pi / (4.0 * a_abs):
        raise ValueError("true_s must lie strictly inside the principal branch")
    counts = run_trials(true_s, alpha, repetitions, n_trials, seed, convention)
    estimates = estimate_displacement(counts, repetitions, a_abs, convention)
    return float(estimates.mean() - true_s), float(estimates.std(ddof=1))


def feasibility(omega0: float, nbar: float, decoherence_budget: float, regime: str = "cavity") -> FeasibilityReport:
    """Compare the protocol's interaction time against decoherence.

    The transit to the revival midpoint takes T = 2 pi sqrt(nbar)/Omega_0.
    In the cavity regime the two-component superposition decoheres nbar
    times faster than the field amplitude damps, so the damping time must
    beat the threshold 2 pi nbar^{3/2}/Omega_0; in the ion regime the
    supplied budget is already the superposition's decoherence time and is
    compared against T directly.  The verdict demands a 10x margin.
    """
    if not all(0.0 < x < math.inf for x in (omega0, nbar, decoherence_budget)):
        raise ValueError("feasibility inputs must be positive and finite")
    if regime not in ("cavity", "ion"):
        raise ValueError("regime must be 'cavity' or 'ion'")
    interaction_time = 2.0 * np.pi * math.sqrt(nbar) / omega0
    threshold = interaction_time * nbar if regime == "cavity" else interaction_time
    ratio = decoherence_budget / threshold
    return FeasibilityReport(
        interaction_time=interaction_time,
        decoherence_threshold=threshold,
        ratio=ratio,
        verdict=bool(ratio >= 10.0),
    )
