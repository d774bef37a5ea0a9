"""Overlap fringe laws for circular states.

The perturbed-state overlap of an M-component circular state obeys, for
small perturbations,

    |<psi|U_pert|psi>|^2 ~= (1/M^2) [ M + sum_{k<l} 2 cos(2 s a_kl |alpha|) ],

with a_kl = sin(phi - phi_k) - sin(phi - phi_l) and phi the displacement
direction measured from arg(alpha).  The fringe frequency grows linearly
with |alpha|, which is what pushes the detectable displacement down to
the Heisenberg scale 1/|alpha| (and rotations of displaced circles down
to 1/|alpha|^2 through the mapping s = theta |alpha|).

The exact pipeline evaluates the same overlaps through the Gram algebra
of `states`; agreement degrades only by the Gaussian envelope e^{-s^2}
and exponentially small cross terms, both outside the closed form.

Both pipelines are array kernels over the perturbation magnitude: a sweep
of P points is one (P, M, M) stack of Gram blocks contracted with the
weights, and one closed-form expression over the P x M(M-1)/2 pair
phases.  The first-zero search is the exact kernel at P = 33: each round
of its bracket refinement is one stack, which shrinks the bracket 16x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import wigner
from .states import CoherentSuperposition, _abs_sq, _braket, _check_ceiling, _moved_terms, displace, make_circular_state

__all__ = [
    "PerturbationSpec",
    "OverlapSweep",
    "OutOfRegimeWarning",
    "overlap_sweep",
    "locate_first_zero",
]

DISPLACEMENT = "displacement"
ROTATION = "rotation"


class OutOfRegimeWarning(UserWarning):
    """Perturbation outside the validity window of the closed-form overlap."""


@dataclass(frozen=True)
class PerturbationSpec:
    """A small displacement (magnitude s, direction phi) or rotation (angle).

    `direction` is the absolute phase-space angle of the displacement,
    beta = s * e^{i phi}.  Leave it None to request the maximum-sensitivity
    direction, which consumers resolve relative to their reference
    amplitude (orthogonal to alpha for displacement fringes).
    """

    kind: str
    magnitude: float
    direction: float | None = None

    def __post_init__(self):
        if self.kind not in (DISPLACEMENT, ROTATION):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if not (math.isfinite(self.magnitude) and self.magnitude >= 0):
            raise ValueError(f"perturbation magnitude must be finite and >= 0, got {self.magnitude!r}")
        if self.direction is not None and not math.isfinite(self.direction):
            raise ValueError(f"perturbation direction must be finite, got {self.direction!r}")

    def resolve_direction(self, alpha: complex | None = None) -> float | None:
        """Absolute displacement angle: `direction`, else the overlap fringes'
        maximum-sensitivity angle arg(alpha) + pi/2 (ValueError without
        alpha).  None for rotations, which have no direction."""
        if self.kind == ROTATION:
            return None
        if self.direction is not None:
            return self.direction
        if alpha is None:
            raise ValueError("direction is unset and no reference amplitude was given")
        return float(np.angle(alpha) + np.pi / 2.0)

    def moved_terms(self, weights: np.ndarray, amplitudes: np.ndarray, alpha: complex | None = None):
        """Term-wise U_pert on (weights, amplitudes): R(magnitude) for
        rotations, D(magnitude e^{i resolve_direction(alpha)}) for
        displacements.  Leading rows of `weights` share the amplitudes."""
        return _perturbed_terms(self.kind, self.magnitude, self.resolve_direction(alpha), weights, amplitudes)

    def apply(self, state: CoherentSuperposition, alpha: complex | None = None) -> CoherentSuperposition:
        """U_pert|state>, built by `moved_terms`."""
        return CoherentSuperposition(*self.moved_terms(state.weights, state.amplitudes, alpha))


def _in_regime(kind: str, magnitudes, alpha_abs: float):
    """The closed form's validity window, elementwise: s << 1, or theta << 1/(2|alpha|) for rotations."""
    if kind == DISPLACEMENT:
        return magnitudes <= 0.2
    return magnitudes * 2.0 * alpha_abs <= 0.2


def _perturbed_terms(kind: str, magnitude, direction: float | None, weights: np.ndarray, amplitudes: np.ndarray):
    """The one R(theta)-or-D(beta) dispatch: R(magnitude) for rotations,
    D(magnitude e^{i direction}) for displacements, term-wise through
    `states._moved_terms`, so magnitude broadcasts the same way."""
    if kind == ROTATION:
        return _moved_terms(weights, amplitudes, theta=magnitude)
    return _moved_terms(weights, amplitudes, beta=magnitude * np.exp(1j * direction))


def _weyl_symbols(kind: str, magnitudes, direction: float | None):
    """U's Weyl symbol at each magnitude as the (scale, kx, ky, t) arrays of
    `wigner._unitary_traces`: e^{2i(Im beta x - Re beta y)} for D(beta),
    e^{-i theta/2} sec(theta/2) e^{2i tan(theta/2) |p|^2} for R(theta), theta
    as arg e^{i theta}, which libm reduces exactly (R has period 2 pi)."""
    mags = np.asarray(magnitudes, dtype=float)
    zeros = np.zeros_like(mags)
    if kind == ROTATION:
        half = 0.5 * np.angle(np.exp(1j * mags))
        return np.exp(-1j * half) / np.cos(half), zeros, zeros, np.tan(half)
    beta = mags * np.exp(1j * direction)
    return np.ones_like(mags), 2.0 * beta.imag, -2.0 * beta.real, zeros


def _pair_coefficients(m: int, phi_rel: float) -> np.ndarray:
    """a_kl = sin(phi - phi_k) - sin(phi - phi_l) over pairs k < l."""
    k = np.arange(1, m + 1)
    s = np.sin(phi_rel - 2.0 * np.pi * k / m)
    iu, il = np.triu_indices(m, 1)
    return s[iu] - s[il]


def _approx_overlaps(m: int, alpha: complex, kind: str, direction: float | None, magnitudes: np.ndarray) -> np.ndarray:
    """Closed-form overlap at each magnitude, free of the phases gamma_k;
    `direction` is the absolute displacement angle (rotations ignore it and
    map onto s = theta |alpha| orthogonal to the displaced circle)."""
    a_abs = abs(alpha)
    if kind == ROTATION:
        s = magnitudes * a_abs
        phi_rel = np.pi / 2.0
    else:
        s = magnitudes
        phi_rel = direction - float(np.angle(alpha))
    a_kl = _pair_coefficients(m, phi_rel)
    return (m + 2.0 * np.sum(np.cos(2.0 * np.outer(s, a_kl) * a_abs), axis=1)) / m**2


def _exact_overlaps(target: CoherentSuperposition, kind: str, direction: float | None, magnitudes: np.ndarray) -> np.ndarray:
    """|<target|U(s_p)|target>|^2 at each magnitude s_p from one stack of
    Gram blocks.  Row p holds the ket R(s_p)|target> for rotations and
    D(s_p e^{i phi})|target> for displacements, built term-wise by the
    same code as `PerturbationSpec.apply`."""
    w, a = target.weights, target.amplitudes
    ket_w, ket_a = _perturbed_terms(kind, magnitudes[:, None], direction, w, a)
    return _abs_sq(_braket(w, a, ket_w, ket_a))


# points a round of `_stacked_minimum` evaluates: it keeps 2 of their 32 intervals
_ROUND_POINTS = 33


def _stacked_minimum(f, lo: float, hi: float, xtol: float) -> float:
    """Minimum of f, unimodal on [lo, hi], to a bracket of xtol.  f maps an
    array of points to their values; each round calls it once, on
    _ROUND_POINTS points across the bracket, and keeps the neighbours of
    the least value, so the bracket shrinks 16x a round.  The round count
    is fixed up front, so the search also ends where xtol is below the
    spacing of floats.  Returns the best point evaluated."""
    width = hi - lo
    rounds = math.ceil(math.log(width / xtol, (_ROUND_POINTS - 1) / 2)) if width > xtol else 1
    best_x, best_f = lo, math.inf
    for _ in range(rounds):
        xs = np.linspace(lo, hi, _ROUND_POINTS)
        fs = f(xs)
        i = int(np.argmin(fs))
        if fs[i] < best_f:
            best_x, best_f = float(xs[i]), float(fs[i])
        lo, hi = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, _ROUND_POINTS - 1)])
    return best_x


@dataclass(frozen=True, repr=False, eq=False)
class OverlapSweep:
    """Exact and closed-form overlap of `target` with its perturbed copies,
    sampled on a magnitude grid.  `direction` is the absolute displacement
    angle, already resolved against alpha (None for rotations)."""

    kind: str
    direction: float | None
    magnitudes: np.ndarray
    exact: np.ndarray
    approx: np.ndarray
    in_regime: np.ndarray
    target: CoherentSuperposition

    def first_fringe_zero(self) -> float:
        """First overlap minimum: the first sampled local minimum of the exact
        curve after it drops below 1/2, bracketed by its two neighbours and
        narrowed to 1e-12 by `_stacked_minimum`, about ten 33-point stacks.
        The run of points below 1/2 can hold more than one minimum (the
        compass off its axes), so the bracket is the first one's alone.
        ValueError if the curve stays above 1/2 or ends still falling."""
        below = self.exact < 0.5
        if not below.any():
            raise ValueError("sweep never crosses overlap = 1/2; extend the range")
        i0 = int(np.argmax(below))
        rising = np.diff(self.exact[i0:]) >= 0.0
        i = i0 + int(np.argmax(rising)) if rising.any() else self.magnitudes.size - 1
        lo, hi = float(self.magnitudes[max(i - 1, 0)]), float(self.magnitudes[min(i + 1, self.magnitudes.size - 1)])
        zero = _stacked_minimum(lambda mags: _exact_overlaps(self.target, self.kind, self.direction, mags), lo, hi, 1e-12)
        if zero == self.magnitudes[-1]:
            raise ValueError(f"sweep ends at {zero!r} with the overlap still falling; extend the range")
        return zero

    def quadrature(self) -> np.ndarray:
        """|Tr(rho U)|^2 at each magnitude from the target's one field and U's
        Weyl symbols, on the fewest points of the box of `wigner.auto_grid`
        for the target and U(max)|target> on which all resolve; else ValueError."""
        target, mags = self.target, self.magnitudes
        grid = wigner.auto_grid(target, PerturbationSpec(self.kind, float(mags[-1]), self.direction).apply(target))
        symbols = _weyl_symbols(self.kind, mags, self.direction)
        resolved, fitted = wigner._symbol_grid(target, grid, *symbols[1:])
        if not resolved.all():
            thetas = np.linspace(0.0, np.pi, 4097)
            kept = wigner._symbol_grid(target, grid, *_weyl_symbols(ROTATION, thetas, None)[1:])[0]
            raise ValueError(f"the quadrature grid aliases U at {mags[~resolved][0]:.6g}; "
                             f"it resolves rotations up to {np.max(thetas[kept], initial=0.0):.3f} rad (mod 2 pi)")
        return _abs_sq(wigner._unitary_traces(wigner._field(target, fitted), *symbols))


def overlap_sweep(
    alpha: complex,
    m: int,
    gammas=None,
    kind: str = DISPLACEMENT,
    direction: float | None = None,
    max_magnitude: float | None = None,
    n_points: int = 64,
) -> OverlapSweep:
    """Sweep both overlap pipelines over a monotone magnitude grid.

    Displacement sweeps act on the circular state itself; rotation sweeps
    act on the displaced configuration D(alpha)|state>, whose circle
    passes through the origin, with the closed form using s = theta|alpha|.
    The returned sweep carries that state as its `target`, which must stay
    within `normalized()`'s amplitude ceiling (2|alpha| for rotations).
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    gam = np.zeros(m) if gammas is None else np.asarray(gammas, dtype=float)
    base = make_circular_state(alpha, m, gam)
    a_abs = abs(alpha)
    if max_magnitude is None:
        max_magnitude = np.pi / (2.0 * a_abs) if kind == DISPLACEMENT else np.pi / (2.0 * a_abs**2)
    # the grid runs from 0 to the extreme, so checking the extreme checks every point
    extreme = PerturbationSpec(kind, float(max_magnitude), direction)
    mags = np.linspace(0.0, max_magnitude, n_points)
    target = displace(base, alpha) if kind == ROTATION else base
    _check_ceiling(target.amplitudes)
    direction = extreme.resolve_direction(alpha)
    exact_vals = _exact_overlaps(target, kind, direction, mags)
    approx_vals = _approx_overlaps(m, alpha, kind, direction, mags)
    return OverlapSweep(kind, direction, mags, exact_vals, approx_vals, _in_regime(kind, mags, a_abs), target)


def locate_first_zero(
    alpha: complex,
    m: int,
    gammas=None,
    kind: str = DISPLACEMENT,
    direction: float | None = None,
    search_max: float | None = None,
) -> float:
    """First fringe zero of the exact overlap: a 257-point sweep brackets
    its first sampled minimum below 1/2 and `OverlapSweep.first_fringe_zero`
    narrows the bracket to 1e-12, one 33-point stack of the exact kernel a
    round."""
    sweep = overlap_sweep(alpha, m, gammas, kind, direction, max_magnitude=search_max, n_points=257)
    return sweep.first_fringe_zero()
