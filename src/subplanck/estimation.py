"""Readout statistics, the arccos fringe-inversion estimator, and the
experimental feasibility calculator.

`estimate_displacement` inverts a whole array of excited counts in one
call and returns one estimate per count; its quoted width is
`theory_sigma`.

Randomness contract: `run_trials` is the one sampler.  It draws a run's
n excited counts as one Generator.binomial(R, p_e, size=n) call on
np.random.default_rng(seed), so every count is an exact binomial draw and
no R-sized array is ever formed; an int seed gives numpy's PCG64 stream
seeded through SeedSequence(seed).  The counts are one stream drawn in
order, so results are reproducible for a given seed and a shorter run is
a prefix of a longer one.  The stream pins SeedSequence, PCG64 and
numpy's binomial algorithm, which NEP 19 lets a numpy release change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrology import DISPLACEMENT
from .protocol import _fringe_weights

__all__ = [
    "FeasibilityReport",
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


def theory_sigma(repetitions: int, alpha_mag: float) -> float:
    """Quoted Gaussian width of the estimator, 1 / (8 sqrt(R nbar)); as
    1 / (8 sqrt(R) |alpha|) where R |alpha|^2 overflows or underflows."""
    sigma = 1.0 / (8.0 * math.sqrt(repetitions * alpha_mag**2)) if 1e-150 < alpha_mag < 1e150 else 0.0
    return sigma or 1.0 / (8.0 * math.sqrt(repetitions) * alpha_mag)


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


def _alpha_magnitude(alpha: complex) -> float:
    """|alpha|, refused where it is 0, NaN or infinite, or where the end
    pi/(4|alpha|) of the principal branch overflows (below about 4.4e-309):
    the fringe and its inversion divide by it."""
    a_abs = abs(alpha)
    if not (0.0 < a_abs < math.inf and math.pi / (4.0 * a_abs) < math.inf):  # phrased so that NaN fails too
        raise ValueError(f"alpha must be nonzero and finite, and pi/(4|alpha|) finite, got {alpha!r}")
    return a_abs


def run_trials(
    true_s: float,
    alpha: complex,
    repetitions: int,
    n_trials: int,
    seed,
    convention: str = "dispersive",
) -> np.ndarray:
    """Excited counts for n_trials independent full pipelines.

    The protocol's excited-state probability is computed once; the n_trials
    counts are then one Generator.binomial draw of that many from
    np.random.default_rng(seed).  alpha must be nonzero and finite, with
    pi/(4|alpha|) finite, and true_s finite and on the principal branch
    [0, pi/(4|alpha|)], the only range the arccos inversion can return, so
    no larger shift is silently aliased.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if convention not in ("dispersive", "resonant"):
        raise ValueError("convention must be 'dispersive' or 'resonant'")
    a_abs = _alpha_magnitude(alpha)
    if not 0.0 <= true_s <= math.pi / (4.0 * a_abs) or true_s == math.inf:
        raise ValueError("true_s must be finite and lie on the principal branch [0, pi/(4|alpha|)]")
    p_e = abs(_fringe_weights(convention, alpha, DISPLACEMENT, None, true_s, 1.0)[0]) ** 2
    if not 0.0 <= p_e <= 1.0:
        raise ValueError("p_e must lie in [0, 1]")
    return np.random.default_rng(seed).binomial(repetitions, p_e, size=n_trials).astype(np.int64, copy=False)


def _mean_and_spread(estimates: np.ndarray) -> tuple[float, float]:
    """Mean and sample standard deviation (ddof=1; 0 for one estimate) of
    `estimates`, computed on them scaled by 2^-k so that the largest
    magnitude lies in [1/2, 1), then scaled back.  Scaling by a power of
    two is exact, so wherever the squared deviations are normal both
    figures keep numpy's bits; where they would overflow, the spread
    stays finite."""
    k = math.frexp(float(np.max(np.abs(estimates))))[1]
    scaled = np.ldexp(estimates, -k)
    spread = float(scaled.std(ddof=1)) if scaled.size > 1 else 0.0
    return math.ldexp(float(scaled.mean()), k), math.ldexp(spread, k)


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
    a_abs = _alpha_magnitude(alpha)
    if not 0.0 < true_s < np.pi / (4.0 * a_abs):
        raise ValueError("true_s must lie strictly inside the principal branch")
    counts = run_trials(true_s, alpha, repetitions, n_trials, seed, convention)
    mean, spread = _mean_and_spread(estimate_displacement(counts, repetitions, a_abs, convention))
    return mean - true_s, spread


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
    if not 0.0 < threshold < math.inf:  # then so is T, since nbar is positive and finite
        raise FloatingPointError("interaction time or decoherence threshold is not a finite positive double")
    ratio = decoherence_budget / threshold
    if ratio == math.inf:
        raise FloatingPointError("budget to threshold ratio overflows")
    return FeasibilityReport(
        interaction_time=interaction_time,
        decoherence_threshold=threshold,
        ratio=ratio,
        verdict=bool(ratio >= 10.0),
    )
