"""Wigner functions of coherent-state superpositions on phase-space grids.

Convention: (1/pi) * integral W d^2a = 1 and a coherent state peaks at 2.
The cross term of |a_k><a_l|,

    W_kl(p) = 2 * exp(-2 (p - a_k)(conj(p) - conj(a_l))) * <a_l|a_k>,

integrates to <a_l|a_k> under (1/pi) d^2p, so (1/pi) integral W1 W2 is
|<psi1|psi2>|^2 and quadratures compare directly with the Gram algebra.
Expanded around the midpoint m = (a_k + a_l)/2 it is bounded,

    W_kl(x + iy) = 2 e^{i phi_kl} g_kl(x) h_kl(y),
    g_kl(x) = exp(-2 (x - Re m)^2 + 2i (Im a_k - Im a_l) (x - Re m)),
    h_kl(y) = exp(-2 (y - Im m)^2 + 2i (Re a_l - Re a_k) (y - Im m)),
    phi_kl  = Im(a_k conj(a_l))   (the exponent's phase at p = m),

so no factor exceeds 1 in modulus and there is no amplitude ceiling (the
unreduced exp(+2|a|^2) * <a_l|a_k> overflows near |a| ~ 19), and the
linear phases are small wherever the envelope is not.

A field on an nx x ny grid is Re(G diag(c) H^T): G (nx x M^2) and H
(ny x M^2) stack the factors, c_kl = 2 w_k conj(w_l) e^{i phi_kl}, and
column (l, k) is the conjugate of column (k, l), so the factors cost
M (M + 1)/2 (nx + ny) exponentials.  `samples(columns)` forms a slice of
im columns, (G diag(c)) H[columns]^T; `values` is every column, cached.

Integrals never form the samples: with trapezoid weights w_x, w_y, the sum
of W times S(x + iy) = E_x[x] E_y[y] is
c^T [(G^T diag(w_x) E_x) o (H^T diag(w_y) E_y)] (o elementwise).  A second
field (E = G2, H2, then c2) costs M^4 (nx + ny), less than forming both
while M^2 < nx ny / (nx + ny); its Richardson error estimate sums the even
rows.  The Weyl symbol S_U of an operator, Tr(rho U) = (1/pi) integral
W S_U, gives Tr(rho U) at M^2 (nx + ny), and S = 1 the mass.  D(beta) and
R(theta) have plane waves and chirps (`metrology._weyl_symbols`);
`_symbol_grid` marks each chirp a grid aliases.

Checks run where numbers are made: `wigner_field` raises
FloatingPointError on a non-finite factor or coefficient, each block of
`samples` on a non-finite sample or an imaginary residue above 1e-10 (the
double sum is Hermitian), a field overlap on a non-finite value or an
imaginary part above 1e-10, and a unitary's trace on a non-finite value or
a modulus above 1 + 1e-10.

Grids must resolve the fringes: W_kl oscillates at 2|a_k - a_l|, so the
step rule h <= pi / (8 |a|_max) of `auto_grid` keeps renders and field
overlaps spectrally accurate (each Gaussian component sits well inside the
alias-free band).  Traces against symbols need only their alias margin, on
the fewest points of `auto_grid`'s box that keep it (`_symbol_grid`).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .states import CoherentSuperposition

__all__ = [
    "PhaseSpaceGrid",
    "WignerField",
    "UnderresolvedGridWarning",
    "cross_wigner",
    "wigner_field",
    "phase_space_overlap",
    "auto_grid",
]


class UnderresolvedGridWarning(UserWarning):
    """Grid step too coarse for the interference fringes being sampled."""


def _cross_terms(alpha_k, alpha_l):
    """Midpoint m, axis wavenumbers (kx, ky) and midpoint phase phi of the
    cross term: with u = p - m,
    W_kl(p) = 2 exp(-2|u|^2 + i (kx Re u + ky Im u + phi)).
    Broadcasts over array arguments."""
    ak = np.asarray(alpha_k, dtype=complex)
    al = np.asarray(alpha_l, dtype=complex)
    diff = ak - al
    return 0.5 * (ak + al), 2.0 * diff.imag, -2.0 * diff.real, np.imag(ak * np.conj(al))


def cross_wigner(alpha_k: complex, alpha_l: complex, point) -> complex:
    """Weyl symbol of |alpha_k><alpha_l| at `point` (scalar or array)."""
    mid, kx, ky, phi = _cross_terms(alpha_k, alpha_l)
    u = np.asarray(point, dtype=complex) - mid
    val = 2.0 * np.exp(-2.0 * np.abs(u) ** 2 + 1j * (kx * u.real + ky * u.imag + phi))
    if np.isscalar(point) or u.ndim == 0:
        return complex(val)
    return val


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Rectangular sampling grid for the complex plane, with each axis's
    points formed on first read as a read-only array.  `resolves(a)`: does
    the step obey h <= pi / (8 a) for a largest amplitude a?"""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grids need at least 2 samples per axis")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("grid bounds must be ordered")

    @functools.cached_property
    def re_points(self) -> np.ndarray:
        return _read_only(np.linspace(self.re_min, self.re_max, self.nx))

    @functools.cached_property
    def im_points(self) -> np.ndarray:
        return _read_only(np.linspace(self.im_min, self.im_max, self.ny))

    @property
    def step(self) -> float:
        hx = (self.re_max - self.re_min) / (self.nx - 1)
        hy = (self.im_max - self.im_min) / (self.ny - 1)
        return max(hx, hy)

    def resolves(self, alpha_max: float) -> bool:
        if alpha_max <= 0.0:
            return True
        return self.step <= np.pi / (8.0 * alpha_max) + 1e-12

    @functools.cached_property
    def _trapezoid_rules(self) -> tuple:
        """The trapezoid rules of `_weighted_sum`, as (rows_x, rows_y, w_x,
        w_y): the whole grid, the grid odd-truncated to mx x my points, and the
        half-resolution subgrid of that, formed once per grid, on first read."""
        mx = self.nx if self.nx % 2 else self.nx - 1
        my = self.ny if self.ny % 2 else self.ny - 1
        rows = ((slice(None), slice(None)), (slice(mx), slice(my)), (slice(0, mx, 2), slice(0, my, 2)))
        return tuple(
            (rx, ry, _read_only(_trapezoid_weights(self.re_points[rx])), _read_only(_trapezoid_weights(self.im_points[ry])))
            for rx, ry in rows
        )


@dataclass(frozen=True)
class WignerField:
    """Wigner function on a grid in factored form, W = Re(G diag(c) H^T).
    `g` is (nx, K), `coeffs` (K,) and `h` (ny, K), with K = M^2 cross terms."""

    grid: PhaseSpaceGrid
    g: np.ndarray
    coeffs: np.ndarray
    h: np.ndarray

    def samples(self, columns: slice) -> np.ndarray:
        """Real samples of the im columns `columns`, shape (nx, width), in an
        array of their own (the complex product is dropped), checked.  With
        OpenBLAS, blocks that start at multiples of 64 columns reproduce the
        whole product bit for bit (tests/test_cli.py checks it); blocks that
        start elsewhere, and single columns, which numpy multiplies as a
        matrix-vector product, need not."""
        total = (self.g * self.coeffs) @ self.h[columns].T
        bad = int(np.count_nonzero(~np.isfinite(total)))
        if bad:
            raise FloatingPointError(f"Wigner sum has {bad} non-finite samples")
        residue = float(np.max(np.abs(total.imag)))
        if not residue <= 1e-10:  # phrased so that NaN fails too
            raise FloatingPointError(f"Wigner sum lost Hermiticity (imag residue {residue:.3e})")
        return total.real.copy()

    @functools.cached_property
    def values(self) -> np.ndarray:
        """Real samples, shape (nx, ny), formed and checked on first read."""
        return self.samples(slice(None))


def auto_grid(*states: CoherentSuperposition) -> PhaseSpaceGrid:
    """Grid sized for the given states: their amplitude bounding box padded
    by 4 vacuum widths on every side, the step from the h <= pi/(8 |a|_max)
    rule (floored at |a|_max = 2), and odd point counts so that the
    half-resolution quadrature shares the endpoints."""
    if not states:
        raise ValueError("auto_grid needs at least one state")
    amps = np.concatenate([s.amplitudes for s in states])
    a_max = float(np.max(np.abs(amps)))
    # floor the step rule at an effective amplitude of 2: the *product* of
    # two fields oscillates at up to 8 a_max, and the alias-free margin
    # 2 pi / h - 8 a_max must stay a dozen inverse units for 1e-6 accuracy
    h = np.pi / (8.0 * max(a_max, 2.0))
    pad = 4.0  # vacuum widths
    re_lo, re_hi = amps.real.min() - pad, amps.real.max() + pad
    im_lo, im_hi = amps.imag.min() - pad, amps.imag.max() + pad

    def _count(lo, hi):
        n = int(math.ceil((hi - lo) / h)) + 1
        return n + 1 if n % 2 == 0 else n

    return PhaseSpaceGrid(re_lo, re_hi, im_lo, im_hi, _count(re_lo, re_hi), _count(im_lo, im_hi))


@functools.cache
def _upper_terms(m: int):
    """The cross terms k <= l of m components as index arrays (k, l), and for
    every term k m + l the column of [upper, conj(upper)] that holds it: its
    own for k <= l, the conjugate of (l, k) below the diagonal."""
    k, l = np.triu_indices(m)
    column = np.empty((m, m), dtype=np.intp)
    column[l, k] = np.arange(k.size) + k.size
    column[k, l] = np.arange(k.size)  # the diagonal keeps its own column
    return _read_only(k), _read_only(l), _read_only(column.ravel())


def _axis_factors(points: np.ndarray, centres: np.ndarray, wavenumbers: np.ndarray) -> np.ndarray:
    """exp(-2 u^2 + i wavenumber u), u = t - centre, for every sample t (rows)
    and cross term k, l (columns k M + l of the M x M centres and
    wavenumbers), as an (n, M^2) array; each entry has modulus at most 1.

    The centres are symmetric and the wavenumbers antisymmetric in (k, l),
    so column (l, k) is the complex conjugate of column (k, l), bit for bit.
    Only the M (M + 1) / 2 columns with k <= l are exponentiated, and the
    diagonal is never conjugated, so its imaginary zeros keep their sign."""
    k, l, column = _upper_terms(centres.shape[0])
    # terms by samples until the last copy, so each step runs along the
    # samples; the operands keep their order and dtypes, so every entry its bits
    u = points - centres[k, l, None]
    upper = -2.0 * u + 1j * wavenumbers[k, l, None]
    np.multiply(u, upper, out=upper)
    np.exp(upper, out=upper)
    return np.ascontiguousarray(np.concatenate([upper, np.conj(upper)]).take(column, axis=0).T)


def _field(state: CoherentSuperposition, grid: PhaseSpaceGrid) -> WignerField:
    """`wigner_field` without the step-rule check."""
    w, a = state.weights, state.amplitudes
    mid, kx, ky, phi = _cross_terms(a[:, None], a[None, :])
    coeffs = (2.0 * (w[:, None] * np.conj(w)[None, :]) * np.exp(1j * phi)).ravel()
    g = _axis_factors(grid.re_points, mid.real, kx)
    h = _axis_factors(grid.im_points, mid.imag, ky)
    if not np.isfinite(g.sum() + h.sum() + coeffs.sum()):  # factors have modulus <= 1, coefficients 2 |w_k w_l|
        bad = sum(int(np.count_nonzero(~np.isfinite(part))) for part in (coeffs, g, h))
        if bad:
            raise FloatingPointError(f"Wigner factors have {bad} non-finite entries")
    return WignerField(grid, g, coeffs, h)


def wigner_field(state: CoherentSuperposition, grid: PhaseSpaceGrid) -> WignerField:
    """W(p) = sum_{k,l} w_k conj(w_l) W_kl(p) on the grid, as the per-axis
    factors of all M^2 cross terms (see the module docstring).  A non-finite
    factor or coefficient raises FloatingPointError."""
    field = _field(state, grid)
    if not grid.resolves(state.max_amplitude):
        warnings.warn(f"grid step {grid.step:.4f} exceeds pi/(8*{state.max_amplitude:.3f}); interference fringes are "
                      "under-resolved", UnderresolvedGridWarning, stacklevel=2)
    return field


def _trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights: sum(weights * f(points)) integrates f."""
    half_steps = 0.5 * np.diff(points)
    weights = np.zeros(points.size)
    weights[:-1] += half_steps
    weights[1:] += half_steps
    return weights


def _weighted_sum(field: WignerField, e_x: np.ndarray, e_y: np.ndarray, rule: int = 0) -> np.ndarray:
    """Trapezoid sum of W S_p, S_p(x + iy) = e_x[x, p] e_y[y, p], for each
    column p, on the rows of the grid's rule `rule`, in factor space."""
    rows_x, rows_y, w_x, w_y = field.grid._trapezoid_rules[rule]
    return field.coeffs @ (((field.g[rows_x].T * w_x) @ e_x) * ((field.h[rows_y].T * w_y) @ e_y))


# the margin `_symbol_grid` keeps below the band edge 2 pi / h, per unit
# of spectral width: the first alias is down by e^{-16^2/8} = 1e-14
_ALIAS_MARGIN = 16.0


def _symbol_grid(state: CoherentSuperposition, grid: PhaseSpaceGrid, kx, ky, chirp) -> tuple:
    """Whether `grid` resolves W_state times each symbol of `_unitary_traces`,
    and grid's box with the fewest odd point counts on which all of them do.
    Times e^{i(kx x + 2t x^2)}, a term's factor at c has wavenumber k + kappa,
    kappa = kx + 4tc, and spectrum |FT| ~ e^{-(xi - k - kappa)^2 / (8 (1 + t^2))};
    it must end _ALIAS_MARGIN sqrt(1 + t^2) below 2 pi / h, on both axes."""
    mid, wave_x, wave_y, _ = _cross_terms(state.amplitudes[:, None], state.amplitudes)
    t = np.asarray(chirp, dtype=float)[:, None]
    margin = _ALIAS_MARGIN * np.sqrt(1.0 + t[:, 0] ** 2)
    resolved, counts = True, []
    for extent, n, centres, waves, kappa in ((grid.re_max - grid.re_min, grid.nx, mid.real, wave_x, kx),
                                             (grid.im_max - grid.im_min, grid.ny, mid.imag, wave_y, ky)):
        reach = np.max(np.abs(waves.ravel() + np.asarray(kappa)[:, None] + 4.0 * t * centres.ravel()), axis=1)
        resolved = resolved & (2.0 * np.pi * (n - 1) / extent - reach >= margin)
        least = math.ceil(float(np.max(reach + margin)) * extent / (2.0 * np.pi)) + 1
        counts.append(least + 1 - least % 2)
    return resolved, replace(grid, nx=counts[0], ny=counts[1])


def _unitary_traces(field: WignerField, scale, kx, ky, chirp) -> np.ndarray:
    """Tr(rho U_p) for the state of `field` and each unitary whose Weyl symbol
    is scale e^{i(kx x + 2t x^2)} e^{i(ky y + 2t y^2)}, t = chirp, as arrays
    over p (`metrology._weyl_symbols`; check `_symbol_grid` first).  A
    non-finite trace, or one beyond modulus 1 + 1e-10, raises FloatingPointError."""
    x, y = field.grid.re_points[:, None], field.grid.im_points[:, None]
    phase_x, phase_y = kx * x + 2.0 * chirp * (x * x), ky * y + 2.0 * chirp * (y * y)
    # cos + i sin: 60 % of the time of np.exp on an imaginary array
    traces = scale * _weighted_sum(field, np.cos(phase_x) + 1j * np.sin(phase_x), np.cos(phase_y) + 1j * np.sin(phase_y)) / np.pi
    modulus = np.abs(traces)
    if not np.all(modulus <= 1.0 + 1e-10):  # phrased so that NaN fails too
        raise FloatingPointError(f"unitary trace {traces[np.argmax(modulus)]!r} is non-finite or beyond modulus 1")
    return traces


def _factor_overlap(w1: WignerField, w2: WignerField, rule: int) -> float:
    """(1/pi) * trapezoid integral of W1 W2 by the grid's rule `rule`, whose
    imaginary part is rounding noise; a non-finite value or an imaginary
    part above 1e-10 raises FloatingPointError."""
    rows_x, rows_y = w1.grid._trapezoid_rules[rule][:2]
    value = _weighted_sum(w1, w2.g[rows_x], w2.h[rows_y], rule) @ w2.coeffs / np.pi
    if not (np.isfinite(value) and abs(value.imag) <= 1e-10):
        raise FloatingPointError(f"phase-space overlap is {value!r}: non-finite or not real")
    return float(value.real)


def phase_space_overlap(w1: WignerField, w2: WignerField, with_error: bool = False):
    """(1/pi) * integral W1 W2 d^2a by composite trapezoid rule, contracted
    in factor space (see the module docstring).

    The quadrature error is estimated by Richardson comparison against the
    half-resolution subgrid (odd-truncated so both share the region).
    """
    if w1.grid != w2.grid:
        raise ValueError("phase_space_overlap requires identical grids")
    value = _factor_overlap(w1, w2, 0)
    if not with_error:
        return value
    # the odd-truncated grid is the whole grid when both counts are odd
    full = value if w1.grid.nx % 2 and w1.grid.ny % 2 else _factor_overlap(w1, w2, 1)
    half = _factor_overlap(w1, w2, 2)
    err = abs(full - half) / 3.0 + abs(value - full)
    return value, err
