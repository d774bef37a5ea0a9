"""Exact algebra for finite superpositions of coherent states.

A state is a weighted list of coherent amplitudes, sum_k w_k |a_k>.  All
inner products are evaluated through the closed-form coherent overlap

    <b|a> = exp(-(|a|^2 + |b|^2)/2 + conj(b) * a),

so displacements, rotations and overlaps are exact for any amplitude,
with no Fock-space truncation.  Every bra-ket, norm and fidelity in the
package is one contraction, `_braket`: the bra weights against a Gram
block against the ket weights.  A truncated number-basis conversion is
provided as the numeric bridge for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoherentSuperposition",
    "FockVector",
    "coherent_state",
    "make_circular_state",
    "displace",
    "rotate",
    "inner_product",
    "fidelity",
    "to_fock",
    "mean_excitation",
    "default_n_trunc",
]


# Gram exponents of amplitudes up to A carry a rounding error of about
# eps (2A)^2 in phase and log-modulus; past this A it exceeds 1e-8
_AMPLITUDE_CEILING = 0.5 * math.sqrt(1e-8 / np.finfo(float).eps)


def _check_ceiling(amplitudes: np.ndarray) -> None:
    """ValueError for amplitudes past `_AMPLITUDE_CEILING` (about 3.4e3)."""
    peak = max(map(abs, amplitudes.tolist()))
    if not peak <= _AMPLITUDE_CEILING:
        raise ValueError(f"amplitudes up to {peak:.3g} exceed {_AMPLITUDE_CEILING:.3g}, "
                         "where Gram exponents lose precision to rounding")


def _gram(bra_amps: np.ndarray, ket_amps: np.ndarray) -> np.ndarray:
    """Matrix of coherent overlaps G[..., k, l] = <bra_k|ket[..., l]>.

    Leading axes of the ket broadcast: a (P, M) stack of ket amplitudes
    gives a (P, M, M) stack of Gram blocks, one per row.  The exponent is
    formed and exponentiated in one buffer, with the bits of the expression
    -0.5 (|b|^2 + |k|^2) + conj(b) k."""
    b = bra_amps[:, None]
    k = ket_amps[..., None, :]
    g = np.conj(b) * k
    g += -0.5 * (np.abs(b) ** 2 + np.abs(k) ** 2)
    return np.exp(g, out=g)


def _braket(bra_w: np.ndarray, bra_a: np.ndarray, ket_w: np.ndarray, ket_a: np.ndarray):
    """<bra|ket> = conj(bra_w) G ket_w, G = _gram(bra_a, ket_a).  Leading axes
    broadcast: (2, K) weights give both rows of a joint state, a (P, M) ket
    P values.  A bare expression: no conversion or check per call."""
    return (np.conj(bra_w)[..., None, :] @ _gram(bra_a, ket_a) @ ket_w[..., :, None])[..., 0, 0]


def _norms(weights: np.ndarray, amplitudes: np.ndarray):
    """sqrt(max(<psi|psi>, 0)) per weight row; Im and a negative Re are rounding noise."""
    return np.sqrt(np.maximum(_braket(weights, amplitudes, weights, amplitudes).real, 0.0))


@dataclass(frozen=True)
class CoherentSuperposition:
    """Weighted superposition of coherent states, treated as immutable.

    weights and amplitudes are equal-length complex arrays; term k
    contributes weights[k] * |amplitudes[k]>.  The state need not be
    normalized on construction; `normalized()` rescales using the full
    Gram matrix (never the asymptotic 1/sqrt(M) prefactor, which is only
    valid for well-separated amplitudes).
    """

    weights: np.ndarray
    amplitudes: np.ndarray

    def __init__(self, weights, amplitudes):
        w = np.asarray(weights, dtype=complex)
        a = np.asarray(amplitudes, dtype=complex)
        if w.ndim == 0:
            w = w.reshape(1)
        if a.ndim == 0:
            a = a.reshape(1)
        if w.ndim != 1 or a.ndim != 1 or w.shape != a.shape:
            raise ValueError("weights and amplitudes must be equal-length 1-d sequences")
        if w.size < 1:
            raise ValueError("a superposition needs at least one term")
        if not (np.isfinite(w).all() and np.isfinite(a).all()):
            raise ValueError("weights and amplitudes must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "amplitudes", a)

    @property
    def n_terms(self) -> int:
        return self.weights.size

    @property
    def max_amplitude(self) -> float:
        return float(np.max(np.abs(self.amplitudes)))

    def norm(self) -> float:
        return float(_norms(self.weights, self.amplitudes))

    def normalized(self) -> "CoherentSuperposition":
        """This state over its Gram norm.  The norm^2 sums M^2 terms of moduli
        |w_k w_l| e^{-|a_k - a_l|^2/2}; its rounding error is estimated as eps
        times their sum.  ValueError unless that estimate is below 1e-8 of the
        norm^2 (a zero norm, or overlapping components that cancel), or past
        `_AMPLITUDE_CEILING`, where the Gram exponents lose that precision."""
        _check_ceiling(self.amplitudes)
        n = self.norm()
        w, a = np.abs(self.weights), self.amplitudes
        error = np.finfo(float).eps * (w @ np.exp(-0.5 * np.abs(a[:, None] - a) ** 2) @ w)
        if not error < 1e-8 * n * n:  # phrased so that NaN fails too
            raise ValueError(f"cannot normalize: norm^2 {n * n:.3g} is zero or lost to cancellation (rounding error ~{error:.3g})")
        return CoherentSuperposition(self.weights / n, self.amplitudes)


def coherent_state(alpha: complex) -> CoherentSuperposition:
    return CoherentSuperposition([1.0], [alpha])


def make_circular_state(alpha: complex, m: int, gammas) -> CoherentSuperposition:
    """Normalized sum_k e^{i gamma_k} |e^{i phi_k} alpha> with phi_k = 2 pi k / m.

    k runs 1..m, so m=2 gives the two-component cat {-alpha, alpha} and
    m=4 the compass state {+-alpha, +-i alpha}.  Normalization uses the
    exact Gram matrix and is correct for any |alpha|, including overlapping
    components at small radius.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    gam = np.asarray(gammas, dtype=float)
    if gam.shape != (m,):
        raise ValueError(f"expected {m} gamma phases, got shape {gam.shape}")
    if not np.isfinite(gam).all():
        raise ValueError(f"gamma phases must be finite, got {gam.tolist()}")
    k = np.arange(1, m + 1)
    phis = 2.0 * np.pi * k / m
    weights = np.exp(1j * gam)
    amps = np.exp(1j * phis) * alpha
    return CoherentSuperposition(weights, amps).normalized()


def _moved_terms(weights: np.ndarray, amplitudes: np.ndarray, theta=None, beta=None):
    """Term-wise (weights, amplitudes) of R(theta)|psi>, or of D(beta)|psi>
    when `beta` is given: R(theta)|a> = |e^{i theta} a> and
    D(beta)|a> = e^{i Im(beta conj(a))} |a + beta>.

    theta and beta broadcast against the term axis: a (P, 1) column gives
    P moved kets as (P, M) rows (a rotation keeps the (M,) weights, which
    every row shares)."""
    if beta is None:
        return weights, np.exp(1j * theta) * amplitudes
    return weights * np.exp(1j * np.imag(beta * np.conj(amplitudes))), amplitudes + beta


def displace(state: CoherentSuperposition, beta: complex) -> CoherentSuperposition:
    """Apply D(beta) term-wise: D(beta)|a> = e^{i Im(beta conj(a))} |a + beta>."""
    return CoherentSuperposition(*_moved_terms(state.weights, state.amplitudes, beta=beta))


def rotate(state: CoherentSuperposition, theta: float) -> CoherentSuperposition:
    """Apply R(theta) = e^{i theta n} term-wise: |a> -> |e^{i theta} a>."""
    return CoherentSuperposition(*_moved_terms(state.weights, state.amplitudes, theta=theta))


def inner_product(a: CoherentSuperposition, b: CoherentSuperposition) -> complex:
    """<a|b> via the Gram matrix, exact up to floating point."""
    return complex(_braket(a.weights, a.amplitudes, b.weights, b.amplitudes))


def _abs_sq(z):
    """|z|^2 elementwise, as |<bra|ket>|^2 of `_braket` values or |w|^2 of branch
    weights.  libm's hypot and pow square the modulus as abs(z) ** 2 does,
    bit for bit, batched or not."""
    return np.float_power(np.hypot(z.real, z.imag), 2)


def fidelity(a: CoherentSuperposition, b: CoherentSuperposition) -> float:
    """|<a|b>|^2; global-phase-insensitive state comparison."""
    return float(_abs_sq(_braket(a.weights, a.amplitudes, b.weights, b.amplitudes)))


def mean_excitation(state: CoherentSuperposition) -> float:
    """Exact <n> = <a psi|a psi>, with a|psi> = sum_k w_k a_k |a_k>."""
    w_a = state.weights * state.amplitudes
    return float(_braket(w_a, state.amplitudes, w_a, state.amplitudes).real)


def default_n_trunc(max_amplitude: float) -> int:
    """Truncation size keeping coherent-state leakage below 1e-10.

    The photon number of |a> is Poisson with mean |a|^2.  Bennett's bound
    P(n >= |a|^2 + t) <= exp(-t^2 / (2 (|a|^2 + t/3))) at t = 7|a| + 10 is
    below 1e-10 for |a| >= 1.5; below that the exact tail is under 1e-15.
    """
    a = abs(max_amplitude)
    return int(math.ceil(a * a + 7.0 * a + 10.0))


@dataclass(frozen=True)
class FockVector:
    """Truncated number-basis vector c_n, n = 0..dimension-1.

    `leakage` records the norm deficit 1 - sum |c_n|^2 reported by the
    conversion that produced the vector (0 for hand-built vectors).
    """

    coefficients: np.ndarray
    leakage: float = 0.0

    def __init__(self, coefficients, leakage: float = 0.0):
        c = np.atleast_1d(np.asarray(coefficients, dtype=complex))
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "leakage", float(leakage))

    @property
    def dimension(self) -> int:
        return self.coefficients.size


def to_fock(state: CoherentSuperposition, n_trunc: int | None = None) -> FockVector:
    """Expand into the number basis, c_n = sum_k w_k e^{-|a_k|^2/2} a_k^n / sqrt(n!).

    Coefficients are assembled in the log domain so large amplitudes and
    large n never overflow; the result is always finite.  When n_trunc is
    omitted it is sized from the largest amplitude so the reported leakage
    stays below 1e-10.
    """
    if n_trunc is None:
        n_trunc = default_n_trunc(state.max_amplitude)
    if n_trunc < 1:
        raise ValueError("n_trunc must be >= 1")
    n = np.arange(n_trunc)
    half_log_fact = 0.5 * np.array([math.lgamma(k + 1.0) for k in range(n_trunc)])
    coeffs = np.zeros(n_trunc, dtype=complex)
    for w, a in zip(state.weights, state.amplitudes):
        r = abs(a)
        if r == 0.0:
            coeffs[0] += w
            continue
        log_mag = -0.5 * r * r + n * math.log(r) - half_log_fact
        coeffs += w * np.exp(log_mag + 1j * n * np.angle(a))
    leak = max(0.0, state.norm() ** 2 - float(np.sum(np.abs(coeffs) ** 2)))
    return FockVector(coeffs, leakage=leak)
