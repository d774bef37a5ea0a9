"""Independent references for the benchmark's correctness checks.

Nothing here calls into subplanck: states are plain (weights, amplitudes)
arrays, overlaps come from the closed-form coherent overlap
<b|a> = exp(-(|a|^2 + |b|^2)/2 + conj(b) a), the Wigner field is summed in
the log domain so it stays finite at any amplitude, and the resonant
Jaynes-Cummings evolution uses the exact 2x2 dressed blocks.
"""

from __future__ import annotations

import math

import numpy as np


def gram(bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    b = bra[:, None]
    k = ket[None, :]
    return np.exp(-0.5 * (np.abs(b) ** 2 + np.abs(k) ** 2) + np.conj(b) * k)


def inner(w1, a1, w2, a2) -> complex:
    return complex(np.conj(w1) @ gram(a1, a2) @ w2)


def circular(alpha: complex, m: int, gammas) -> tuple[np.ndarray, np.ndarray]:
    """Normalized sum_k e^{i gamma_k} |e^{2 pi i k/m} alpha>, k = 1..m."""
    k = np.arange(1, m + 1)
    w = np.exp(1j * np.asarray(gammas, dtype=float))
    a = np.exp(2j * np.pi * k / m) * alpha
    return w / math.sqrt(inner(w, a, w, a).real), a


def displaced(w, a, beta: complex):
    return w * np.exp(1j * np.imag(beta * np.conj(a))), a + beta


def rotated(w, a, theta: float):
    return w, np.exp(1j * theta) * a


def fidelity(s1, s2) -> float:
    return abs(inner(*s1, *s2)) ** 2


def wigner(w, a, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """W(p) = 2 sum_kl w_k conj(w_l) exp(-2 (p - a_k)(conj(p) - conj(a_l)) + log <a_l|a_k>)
    on the mesh re[:, None] + 1j im[None, :]; the exponent is assembled before
    exponentiation so no factor overflows."""
    p = re[:, None] + 1j * im[None, :]
    total = np.zeros(p.shape, dtype=complex)
    for k in range(a.size):
        for l in range(a.size):
            log_ov = -0.5 * (abs(a[k]) ** 2 + abs(a[l]) ** 2) + np.conj(a[l]) * a[k]
            total += w[k] * np.conj(w[l]) * np.exp(-2.0 * (p - a[k]) * (np.conj(p) - np.conj(a[l])) + log_ov)
    return 2.0 * total.real


def trapezoid_mass(values: np.ndarray, re: np.ndarray, im: np.ndarray) -> float:
    """(1/pi) times the 2-d trapezoid integral of values[ix, iy]."""
    return float(np.trapezoid(np.trapezoid(values, x=im, axis=1), x=re)) / math.pi


def fock(alpha: complex, dim: int) -> np.ndarray:
    """Coherent-state number amplitudes e^{-|a|^2/2} a^n / sqrt(n!), n < dim."""
    n = np.arange(dim)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    r = abs(alpha)
    return np.exp(-0.5 * r * r + n * math.log(r) - 0.5 * log_fact + 1j * n * np.angle(alpha))


def resonant_dressed(joint: np.ndarray, omega0: float, t: float) -> np.ndarray:
    """Resonant interaction-picture JC evolution of a (2, n) joint state:
    |e, k> and |g, k+1> rotate at Rabi angle omega0 sqrt(k+1) t / 2, and
    |g, 0> is stationary."""
    ce, cg = joint
    out = np.zeros_like(joint, dtype=complex)
    out[1, 0] = cg[0]
    theta = 0.5 * omega0 * np.sqrt(np.arange(1, ce.size)) * t
    out[0, :-1] = np.cos(theta) * ce[:-1] - 1j * np.sin(theta) * cg[1:]
    out[1, 1:] = np.cos(theta) * cg[1:] - 1j * np.sin(theta) * ce[:-1]
    return out
