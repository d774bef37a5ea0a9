"""Wigner functions of coherent-state superpositions on phase-space grids.

Convention: W is normalized so that (1/pi) * integral W d^2a = 1 and a
coherent state peaks at 2.  The cross term for |a_k><a_l| is

    W_kl(p) = 2 * exp(-2 (p - a_k)(conj(p) - conj(a_l))) * <a_l|a_k>,

which reduces to 2 exp(-2|p - a|^2) on the diagonal and integrates to
<a_l|a_k> under (1/pi) d^2p.  With this choice the state overlap equals
the phase-space overlap integral of the two Wigner functions with the
same measure, so quadrature results compare directly against the exact
Gram-matrix inner products.

Expanding the exponent around the midpoint m = (a_k + a_l)/2 puts it in
bounded form,

    W_kl(x + iy) = 2 e^{i phi_kl} g_kl(x) h_kl(y),
    g_kl(x) = exp(-2 (x - Re m)^2 + 2i (Im a_k - Im a_l) (x - Re m)),
    h_kl(y) = exp(-2 (y - Im m)^2 + 2i (Re a_l - Re a_k) (y - Im m)),
    phi_kl  = Im(a_k conj(a_l))   (the exponent's phase at p = m),

so no factor exceeds 1 in modulus and there is no amplitude ceiling (the
unreduced product exp(+2|a|^2) * <a_l|a_k> overflows near |a| ~ 19).
Measuring the linear phases from m keeps them small wherever the envelope
is not, so the only large phase is phi_kl itself.

The factors separate over the two axes: a field on an nx x ny grid is
Re(G diag(c) H^T) with G (nx x M^2) and H (ny x M^2) the stacked 1-d
factors and c_kl = 2 w_k conj(w_l) e^{i phi_kl}.  Column (l, k) of G and
H is the complex conjugate of column (k, l), so a WignerField's factors
cost M (M + 1)/2 (nx + ny) exponentials.  The factor kernel broadcasts
over a leading axis of kets, so the P perturbed states of a quadrature
column have their fields formed a few kets at a time, bit for bit as one
state's.  `samples(columns)` forms the samples of a slice of im columns,
(G diag(c)) H[columns]^T, so a caller can hold a block of the field at a
time; `values` is that product over every column, formed on first read
and cached.

Phase-space integrals never form the nx x ny samples.  With trapezoid
weight vectors w_x, w_y on the two axes,

    sum_ij w_x[i] w_y[j] W1[i, j] W2[i, j]
        = c1^T [(G1^T diag(w_x) G2) o (H1^T diag(w_y) H2)] c2

(o the elementwise product).  It costs M^4 (nx + ny) against the
M^2 nx ny of forming both fields, so it is the cheaper one while
M^2 < nx ny / (nx + ny): on auto grids for |a| >~ 3.5 at M = 8, but only
for |a| >~ 8 at M = 16.  The mass is
(w_x^T G) o (w_y^T H) contracted with c.  The Richardson error estimate of
`phase_space_overlap` contracts the even-index rows of the same factors
with the half-resolution weights; its odd-truncated full-resolution term
is the value itself when both point counts are odd, as on auto grids.
A grid forms the weights of these rules once, and a field on the left of
repeated overlaps keeps G1^T diag(w_x) and H1^T diag(w_y) from its second
use on, so a column of overlaps against one base field costs the
perturbed fields' exponentials and two matrix products per rule and point.

Checks run where numbers are made: `wigner_field` raises
FloatingPointError on a non-finite factor or coefficient; every block of
`samples` (and so `values`) raises on a non-finite sample or an imaginary
residue above 1e-10 (the double sum is Hermitian, so the residue is
rounding noise);
every quadrature scalar raises on a non-finite value or an imaginary part
above 1e-10.

Grids must resolve the interference fringes: the oscillation frequency of
W_kl is 2|a_k - a_l|, so the sampling rule h <= pi / (8 |a|_max) keeps the
trapezoid quadrature spectrally accurate (the Gaussian envelope confines
each frequency component well inside the alias-free band).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

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
    """Rectangular sampling grid for the complex plane.

    The grid holds its bounds and point counts; the points of each axis are
    computed once, on first read, as read-only arrays.  `resolves(a)` reports
    whether the step obeys h <= pi / (8 a) for a largest coherent
    amplitude a; `wigner_field` asks it about the state it samples.
    """

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

    def mesh(self) -> np.ndarray:
        """Complex sample points, shape (nx, ny); [ix, iy] = re[ix] + i im[iy]."""
        return self.re_points[:, None] + 1j * self.im_points[None, :]

    @functools.cached_property
    def _trapezoid_rules(self) -> tuple:
        """The trapezoid rules `phase_space_overlap` and `quadrature_mass`
        use, as (rows_x, rows_y, w_x, w_y): the whole grid, the grid
        odd-truncated to mx x my points, and the half-resolution subgrid of
        that.  The weights are formed once per grid, on first read."""
        mx = self.nx if self.nx % 2 else self.nx - 1
        my = self.ny if self.ny % 2 else self.ny - 1
        rows = ((slice(None), slice(None)), (slice(mx), slice(my)), (slice(0, mx, 2), slice(0, my, 2)))
        return tuple(
            (rx, ry, _read_only(_trapezoid_weights(self.re_points[rx])), _read_only(_trapezoid_weights(self.im_points[ry])))
            for rx, ry in rows
        )


@dataclass(frozen=True)
class WignerField:
    """Wigner function on a grid in factored form, W = Re(G diag(c) H^T),
    with an under-resolution marker.  `g` is (nx, K), `coeffs` (K,) and `h`
    (ny, K), with K = M^2 cross terms."""

    grid: PhaseSpaceGrid
    g: np.ndarray
    coeffs: np.ndarray
    h: np.ndarray
    underresolved: bool = False

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

    @functools.cached_property
    def _weighted_factors(self) -> dict:
        """Trapezoid rule index -> (G[rows_x]^T diag(w_x), H[rows_y]^T diag(w_y))
        for `_factor_overlap`: None after the field's first use on the left
        under that rule, the pair from its second use on.  So a field on the
        left of many overlaps forms them twice, and one used once, as a
        `wigner --product` render's is, keeps no memory for them."""
        return {}


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
    wavenumbers); each entry has modulus at most 1.  Leading axes of the
    centres and wavenumbers stack kets: (..., M, M) gives (..., n, M^2).

    The centres are symmetric and the wavenumbers antisymmetric in (k, l),
    so column (l, k) is the complex conjugate of column (k, l), bit for bit.
    Only the M (M + 1) / 2 columns with k <= l are exponentiated, and the
    diagonal is never conjugated, so its imaginary zeros keep their sign."""
    k, l, column = _upper_terms(centres.shape[-1])
    # terms by samples until the last copy, so each step runs along the
    # samples; the operands keep their order and dtypes, so every entry its bits
    u = points - centres[..., k, l, None]
    upper = -2.0 * u + 1j * wavenumbers[..., k, l, None]
    np.multiply(u, upper, out=upper)
    np.exp(upper, out=upper)
    terms = np.concatenate([upper, np.conj(upper)], axis=-2).take(column, axis=-2)
    return np.ascontiguousarray(np.swapaxes(terms, -1, -2))


def _raise_non_finite(*parts):
    """FloatingPointError counting the non-finite entries of `parts`, if any."""
    bad = sum(int(np.count_nonzero(~np.isfinite(part))) for part in parts)
    if bad:
        raise FloatingPointError(f"Wigner factors have {bad} non-finite entries")


# factor entries M^2 (nx + ny) `_stacked_fields` forms at a time: one ket on
# the rotation column of the M = 4, |alpha| = 4 compass (a 335 x 327 grid),
# two on its displacement column; larger chunks ran slower there
_CHUNK_ENTRIES = 1 << 14


def _stacked_fields(weights: np.ndarray, amplitudes: np.ndarray, grid: PhaseSpaceGrid):
    """The WignerField of each ket of a stack of (P, M) weights and
    amplitudes, in order; `wigner_field` is this kernel at P = 1.  The
    coefficients of all P kets are formed at once and the factors a chunk of
    kets, about _CHUNK_ENTRIES entries, at a time, each entry with the
    arithmetic of its ket alone.  A non-finite coefficient raises
    FloatingPointError before any field is yielded, a non-finite factor
    before its chunk's fields are."""
    mid, kx, ky, phi = _cross_terms(amplitudes[:, :, None], amplitudes[:, None, :])
    coeffs = (2.0 * (weights[:, :, None] * np.conj(weights)[:, None, :]) * np.exp(1j * phi)).reshape(len(amplitudes), -1)
    _raise_non_finite(coeffs)
    max_amplitudes = np.max(np.abs(amplitudes), axis=1).tolist()
    step = max(1, _CHUNK_ENTRIES // (coeffs.shape[1] * (grid.nx + grid.ny)))
    for start in range(0, len(amplitudes), step):
        rows = slice(start, start + step)
        gs = _axis_factors(grid.re_points, mid.real[rows], kx[rows])
        hs = _axis_factors(grid.im_points, mid.imag[rows], ky[rows])
        if not np.isfinite(gs.sum() + hs.sum()):  # finite factors have modulus <= 1: their sum is finite
            _raise_non_finite(gs, hs)
        for g, c, h, a_max in zip(gs, coeffs[rows], hs, max_amplitudes[rows]):
            resolved = grid.resolves(a_max)
            if not resolved:  # reported to the caller of `wigner_field`
                warnings.warn(
                    f"grid step {grid.step:.4f} exceeds pi/(8*{a_max:.3f}); interference fringes are under-resolved",
                    UnderresolvedGridWarning,
                    stacklevel=3,
                )
            yield WignerField(grid, g, c, h, not resolved)


def wigner_field(state: CoherentSuperposition, grid: PhaseSpaceGrid) -> WignerField:
    """W(p) = sum_{k,l} w_k conj(w_l) W_kl(p) on the grid, as the per-axis
    factors of all M^2 cross terms (see the module docstring).  A non-finite
    factor or coefficient raises FloatingPointError."""
    return next(_stacked_fields(state.weights[None], state.amplitudes[None], grid))


def _trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights: sum(weights * f(points)) integrates f."""
    half_steps = 0.5 * np.diff(points)
    weights = np.zeros(points.size)
    weights[:-1] += half_steps
    weights[1:] += half_steps
    return weights


def _real_scalar(value: complex, what: str) -> float:
    """The real part of a quadrature scalar whose imaginary part is rounding
    noise; non-finite values and residues above 1e-10 raise."""
    if not (np.isfinite(value) and abs(value.imag) <= 1e-10):
        raise FloatingPointError(f"{what} is {value!r}: non-finite or not real")
    return float(value.real)


def quadrature_mass(field: WignerField) -> float:
    """(1/pi) * trapezoid integral of the field; ~1 when the grid covers the state."""
    _, _, w_x, w_y = field.grid._trapezoid_rules[0]
    return _real_scalar(((w_x @ field.g) * (w_y @ field.h)) @ field.coeffs / np.pi, "quadrature mass")


def _factor_overlap(w1: WignerField, w2: WignerField, rule: int) -> float:
    """(1/pi) * trapezoid integral of W1 W2 by the grid's trapezoid rule
    `rule` (see `PhaseSpaceGrid._trapezoid_rules`), contracted in factor
    space, with W1's weighted factors (see `WignerField._weighted_factors`)."""
    rows_x, rows_y, w_x, w_y = w1.grid._trapezoid_rules[rule]
    weighted = w1._weighted_factors
    pair = weighted.get(rule)
    if pair is None:
        pair = (w1.g[rows_x].T * w_x, w1.h[rows_y].T * w_y)
        weighted[rule] = pair if rule in weighted else None
    g1, h1 = pair
    gx = g1 @ w2.g[rows_x]
    hy = h1 @ w2.h[rows_y]
    return _real_scalar(w1.coeffs @ (gx * hy) @ w2.coeffs / np.pi, "phase-space overlap")


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
