"""Readout statistics, the arccos fringe-inversion estimator, and the
experimental feasibility calculator.

`estimate_displacement` inverts a whole array of excited counts in one
call and returns one estimate per count; its quoted width is
`theory_sigma`.

Randomness contract: `simulate_readout` is the one sampler.  It draws
each binomial count as one exact Generator.binomial draw from
np.random.default_rng(seed), so no R-sized array is ever formed; an int
seed gives numpy's PCG64 stream seeded through SeedSequence(seed).  Trial
ensembles draw trial i from child i of SeedSequence(seed).spawn(n), so
results are reproducible for a given master seed and independent of
evaluation order, and a shorter ensemble is a prefix of a longer one.
`run_trials` does not build the n children: `_pcg64_seeds` replays numpy's
SeedSequence hashing and PCG64 seeding for all of them in one pass, and
each trial hands one reused PCG64, set to its child's state, to
`simulate_readout`.  Each call checks its last child against numpy's own
seeding and raises AssertionError on any difference, so a numpy that
changes either algorithm fails loudly instead of drawing other counts.
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
    `seed` is an int, None, a (spawned) SeedSequence or a BitGenerator,
    which draws from its current state."""
    if not 0.0 <= p_e <= 1.0:
        raise ValueError("p_e must lie in [0, 1]")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    return int(np.random.default_rng(seed).binomial(repetitions, p_e))


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
    """|alpha|, refused where it is 0, NaN or infinite: the fringe and its
    inversion divide by it."""
    a_abs = abs(alpha)
    if not 0.0 < a_abs < math.inf:  # phrased so that NaN fails too
        raise ValueError(f"alpha must be nonzero and finite, got {alpha!r}")
    return a_abs


def _n_words(entropy) -> int:
    """How many uint32 words SeedSequence makes of an entropy value: one
    per 32 bits of an int (at least one), summed over a sequence.  Like
    numpy, a string in a sequence is read as hex after "0x", else decimal."""
    if isinstance(entropy, (list, tuple, range, np.ndarray)):
        return sum(_n_words(x) for x in entropy)
    if isinstance(entropy, str):
        entropy = int(entropy, 16 if entropy.startswith("0x") else 10)
    return max(1, -(-int(entropy).bit_length() // 32))


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_seeds(master: np.random.SeedSequence, n: int) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of children 0 .. n-1 of `master`, the ones a
    fresh master's spawn(n) makes, all n at once.

    A child's entropy is the master's, zero-padded to the pool size, then
    the master's spawn key, then its own index, and the pool mixes its
    words in that order.  So every child's pool, before its index word, is
    the master's own pool, and the hash constant has by then advanced once
    per hashmix: pool size times the words before the index.  Mixing the
    index word into that pool and hashing the pool into 8 uint32 words
    (generate_state(4, uint64)) run as uint32 array arithmetic over all
    children.  PCG64's 128-bit seeding step from those words (s, t),
    inc = 2 t + 1 and state = (inc + s) * MULT + inc, runs in Python ints.
    """
    pool = master.pool_size
    n_words = max(_n_words(master.entropy), pool) + _n_words(master.spawn_key)
    hash_const = 0x43B0D7E5 * pow(0x931E8875, pool * n_words, 1 << 32) % (1 << 32)  # INIT_A * MULT_A**k
    keys = np.arange(n, dtype=np.uint32)
    mixer = []
    for word in master.pool.tolist():
        value = keys ^ hash_const
        hash_const = hash_const * 0x931E8875 % (1 << 32)  # MULT_A
        value *= hash_const
        value ^= value >> 16
        mixed = np.uint32(0xCA01F9DD * word % (1 << 32)) - 0x4973F715 * value  # MIX_MULT_L, MIX_MULT_R
        mixer.append(mixed ^ (mixed >> 16))
    hash_const, words = 0x8B51F9DD, []  # INIT_B
    for i in range(8):
        value = mixer[i % pool] ^ hash_const
        hash_const = hash_const * 0x58F38DED % (1 << 32)  # MULT_B
        value *= hash_const
        words.append((value ^ (value >> 16)).astype(np.uint64))
    seed_hi, seed_lo, inc_hi, inc_lo = (lo | hi << 32 for lo, hi in zip(words[0::2], words[1::2]))
    seeds = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi.tolist(), seed_lo.tolist(), inc_hi.tolist(), inc_lo.tolist()):
        inc = (i_hi << 65 | i_lo << 1 | 1) % (1 << 128)
        seeds.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) % (1 << 128), inc))
    return seeds


def run_trials(
    true_s: float,
    alpha: complex,
    repetitions: int,
    n_trials: int,
    seed,
    convention: str = "dispersive",
) -> np.ndarray:
    """Excited counts for n_trials independent full pipelines.

    The protocol's excited-state probability is computed once; trial i
    then draws its count with `simulate_readout` from the PCG64 stream of
    child i of SeedSequence(seed).spawn(n_trials).  The children are not
    built: `_pcg64_seeds` gives every child's PCG64 state in one pass, one
    reused PCG64 takes each in turn, and the last one is checked against
    numpy's own seeding, which raises AssertionError on a mismatch.  alpha
    must be nonzero and finite, and true_s finite and on the principal
    branch [0, pi/(4|alpha|)], the only range the arccos inversion can
    return, so no larger shift is silently aliased.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if convention not in ("dispersive", "resonant"):
        raise ValueError("convention must be 'dispersive' or 'resonant'")
    a_abs = _alpha_magnitude(alpha)
    if not 0.0 <= true_s <= math.pi / (4.0 * a_abs) or true_s == math.inf:
        raise ValueError("true_s must be finite and lie on the principal branch [0, pi/(4|alpha|)]")
    p_e = abs(_fringe_weights(convention, alpha, DISPLACEMENT, None, true_s, 1.0)[0]) ** 2
    master = np.random.SeedSequence(seed)
    seeds = _pcg64_seeds(master, n_trials)
    bit_generator = np.random.PCG64(
        np.random.SeedSequence(master.entropy, spawn_key=(n_trials - 1,), pool_size=master.pool_size))
    numpy_last = bit_generator.state["state"]
    if (numpy_last["state"], numpy_last["inc"]) != seeds[-1]:
        raise AssertionError(
            f"the PCG64 state of the last spawned child differs from numpy {np.__version__}'s own seeding: "
            "numpy changed its SeedSequence hashing or its PCG64 seeding")
    counts = []
    for state, inc in seeds:
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        counts.append(simulate_readout(p_e, repetitions, bit_generator))
    return np.array(counts, dtype=np.int64)


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
