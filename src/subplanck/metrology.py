"""Overlap fringe laws and sensitivity scales for circular states.

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
phases.  The scalar `exact_overlap`, `approx_overlap` and the first-zero
search are the same kernels at P = 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .states import CoherentSuperposition, _abs_sq, _braket, _moved_terms, displace, make_circular_state, mean_excitation

__all__ = [
    "PerturbationSpec",
    "SensitivityReport",
    "OverlapSweep",
    "OutOfRegimeWarning",
    "approx_overlap",
    "exact_overlap",
    "sensitivity_report",
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

    def in_regime(self, alpha_abs: float) -> bool:
        """Validity window: s << 1 for displacements, theta << 1/(2|alpha|)."""
        return bool(_in_regime(self.kind, self.magnitude, alpha_abs))


def _in_regime(kind: str, magnitudes, alpha_abs: float):
    """The validity rule of `PerturbationSpec.in_regime`, elementwise over
    scalar or array magnitudes."""
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


def approx_overlap(m: int, alpha: complex, pert: PerturbationSpec) -> float:
    """Closed-form overlap of a circular state with its perturbed copy.

    The component phases gamma_k cancel between the conjugate cross terms
    and do not enter the result.  Rotations are mapped onto the equivalent
    displacement s = theta |alpha| orthogonal to the displaced circle.
    Out-of-regime inputs are still evaluated, with a warning.
    """
    a_abs = abs(alpha)
    if not pert.in_regime(a_abs):
        warnings.warn("perturbation outside closed-form validity regime", OutOfRegimeWarning, stacklevel=2)
    if a_abs < 2.0:
        warnings.warn("closed-form overlap assumes well-separated components (|alpha| >= 2)", OutOfRegimeWarning, stacklevel=2)
    return float(_approx_overlaps(m, alpha, pert.kind, pert.resolve_direction(alpha), np.array([pert.magnitude]))[0])


def _approx_overlaps(m: int, alpha: complex, kind: str, direction: float | None, magnitudes: np.ndarray) -> np.ndarray:
    """Closed-form overlap at each magnitude; `direction` is the absolute
    displacement angle (rotations ignore it and map onto s = theta |alpha|)."""
    a_abs = abs(alpha)
    if kind == ROTATION:
        s = magnitudes * a_abs
        phi_rel = np.pi / 2.0
    else:
        s = magnitudes
        phi_rel = direction - float(np.angle(alpha))
    a_kl = _pair_coefficients(m, phi_rel)
    return (m + 2.0 * np.sum(np.cos(2.0 * np.outer(s, a_kl) * a_abs), axis=1)) / m**2


def exact_overlap(state: CoherentSuperposition, pert: PerturbationSpec, alpha: complex | None = None) -> float:
    """|<state|U_pert|state>|^2 by exact Gram algebra.

    `alpha` is only consulted to resolve a None displacement direction.
    """
    return float(_exact_overlaps(state, pert.kind, pert.resolve_direction(alpha), np.array([pert.magnitude]))[0])


def _exact_overlaps(target: CoherentSuperposition, kind: str, direction: float | None, magnitudes: np.ndarray) -> np.ndarray:
    """|<target|U(s_p)|target>|^2 at each magnitude s_p from one stack of
    Gram blocks.  Row p holds the ket R(s_p)|target> for rotations and
    D(s_p e^{i phi})|target> for displacements, built term-wise by the
    same code as `PerturbationSpec.apply`."""
    w, a = target.weights, target.amplitudes
    ket_w, ket_a = _perturbed_terms(kind, magnitudes[:, None], direction, w, a)
    return _abs_sq(_braket(w, a, ket_w, ket_a))


@dataclass(frozen=True)
class SensitivityReport:
    """Benchmark scales (from the mean excitation) plus the structure-area
    diagnostic (from the amplitude geometry; not used in any physics)."""

    support_action: float
    structure_area: float
    sql_displacement: float
    heisenberg_displacement: float
    sql_rotation: float
    heisenberg_rotation: float


def sensitivity_report(state: CoherentSuperposition) -> SensitivityReport:
    """SQL vs Heisenberg scales for the state's energy, and the sub-unit
    interference-cell area a = 1/A with A = max(r, 1)^2 and r the largest
    distance max_k |a_k - mean(a)| of an amplitude from their centroid.
    r bounds the smallest enclosing disk's radius from above and equals it
    for uniform circles, displaced circles and coherent states."""
    nbar = max(mean_excitation(state), 1.0)
    r_disk = float(np.max(np.abs(state.amplitudes - state.amplitudes.mean())))
    action = max(r_disk, 1.0) ** 2
    return SensitivityReport(
        support_action=action,
        structure_area=1.0 / action,
        sql_displacement=1.0,
        heisenberg_displacement=nbar ** -0.5,
        sql_rotation=nbar ** -0.5,
        heisenberg_rotation=1.0 / nbar,
    )


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_minimum(f, lo: float, hi: float, xtol: float) -> float:
    """Golden-section minimum of f, unimodal on [lo, hi], to a bracket of
    xtol: one new evaluation per step, and a step count fixed up front so
    the search also ends where xtol is below the spacing of floats."""
    width = hi - lo
    steps = math.ceil(math.log(xtol / width) / math.log(_INV_PHI)) if width > xtol else 0
    c, d = hi - _INV_PHI * width, lo + _INV_PHI * width
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return c if fc < fd else d


@dataclass(frozen=True, repr=False)
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
    target: CoherentSuperposition = field(compare=False)

    def first_fringe_zero(self) -> float:
        """First overlap minimum, bracketed by the half-crossings of the
        exact curve and polished by a golden-section search of the exact
        overlap down to a bracket of 1e-12."""
        below = self.exact < 0.5
        if not below.any():
            raise ValueError("sweep never crosses overlap = 1/2; extend the range")
        i0 = int(np.argmax(below))
        after = i0 + int(np.argmax(~below[i0:])) if (~below[i0:]).any() else self.magnitudes.size - 1
        lo = float(self.magnitudes[max(i0 - 1, 0)])
        hi = float(self.magnitudes[after])

        def overlap(mag: float) -> float:
            return float(_exact_overlaps(self.target, self.kind, self.direction, np.array([mag]))[0])

        return _golden_minimum(overlap, lo, hi, 1e-12)


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
    The returned sweep carries that state as its `target`.
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
    it between half-crossings and a golden-section search narrows the
    bracket to 1e-12."""
    sweep = overlap_sweep(alpha, m, gammas, kind, direction, max_magnitude=search_max, n_points=257)
    return sweep.first_fringe_zero()
