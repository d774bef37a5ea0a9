"""TLS-oscillator measurement sequences that read fringe overlaps out as
level populations.

Every sequence returns its joint state as a `ProtocolResult`: K coherent
amplitudes shared by both TLS branches, a (2, K) weight array whose rows
are the |e> and |g> branches, and the level populations P_e and P_g;
`branch(level)` normalizes one row into an oscillator state on demand.

The generic strategy evolves |level, alpha> under a composable unitary
sequence U, applies the perturbation to the oscillator alone, undoes U,
and returns the final entangled state, with the state U |level, alpha>
the perturbation hit as its `intermediate`.  Only the conditional phase
adds terms, so K <= 4^c for c conditional phases.

Two named protocols implement the idealized algebra in closed form and
return only their fringe, as a one-term joint state:

* dispersive: pi/2 pulse, then a level-conditioned pi phase of the field
  (the operational content of the far-detuned interaction with the pulse
  area tuned so |g, alpha> -> |g, -alpha> while |e, alpha> is untouched),
  optionally an extra displacement stage that turns the cat into the
  rotation-sensing configuration (|e, 2 alpha> + |g, 0>)/sqrt(2).  The
  excited-state probability is P_e = [1 - cos(Delta)]/2 with fringe
  argument Delta = 4 |alpha| s for the orthogonal displacement direction
  and Delta = 4 |alpha|^2 theta for rotations.

* resonant: free Jaynes-Cummings evolution to half the revival time,
  where the joint state factorizes into a two-component field cat times a
  pure TLS state; a percussive sigma_z kick then mimics time reversal, so
  a second evolution leg closes the interferometer.  Here the field cat
  sits on the axis orthogonal to alpha, so the maximally sensitive
  displacement direction is along alpha, and P_e = [1 + cos(Delta)]/2.
  Stopping both legs early at dt = f * T_R/2 rescales the fringe argument
  by sin(pi f / 2) without changing the scaling of detectable shifts.

A truncated-Fock numeric oracle backs the closed-form algebra: the
interaction-picture Jaynes-Cummings Hamiltonian couples only |e, n> and
|g, n+1>, so it is evolved exactly, block by block, with the 2x2
dressed-state propagator at any detuning; the effective dispersive model
is a diagonal number-dependent phase.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .metrology import ROTATION, OutOfRegimeWarning, PerturbationSpec
from .states import CoherentSuperposition, FockVector, _check_ceiling, _moved_terms, _norms

__all__ = [
    "JCParams",
    "ProtocolResult",
    "dispersive_protocol",
    "resonant_protocol",
    "generic_strategy",
    "dispersive_sequence",
    "jc_numeric_evolve",
    "revival_time",
]


@dataclass(frozen=True)
class ProtocolResult:
    """Joint TLS (x) oscillator state sum_k weights[0, k] |e, a_k> +
    weights[1, k] |g, a_k> over the shared amplitudes a_k, with its level
    populations p_e and p_g, which must sum to 1 within 1e-8.

    `intermediate` is the joint state the perturbation hit, where the
    sequence computed it (`generic_strategy`), and None for the closed forms.
    """

    weights: np.ndarray
    amplitudes: np.ndarray
    p_e: float
    p_g: float
    _prepared: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        total = self.p_e + self.p_g
        if not abs(total - 1.0) <= 1e-8:  # phrased so that NaN fails too
            raise ValueError(f"level populations are not normalized (p_e + p_g = {total})")

    @functools.cached_property
    def intermediate(self) -> ProtocolResult | None:
        return None if self._prepared is None else _joint(*self._prepared, _norms(*self._prepared))

    def branch(self, level: str) -> CoherentSuperposition:
        """The normalized oscillator state of the |e> or |g> branch; ValueError
        for a branch that vanishes."""
        if level not in ("e", "g"):
            raise ValueError("level must be 'e' or 'g'")
        return CoherentSuperposition(self.weights[0 if level == "e" else 1], self.amplitudes).normalized()


@dataclass(frozen=True)
class JCParams:
    """Jaynes-Cummings parameters: vacuum Rabi frequency, detuning
    delta = omega_0 - omega, mean excitation, and evolution time."""

    omega0_rabi: float
    detuning: float
    nbar: float
    interaction_time: float

    def __post_init__(self):
        fields = (self.omega0_rabi, self.detuning, self.nbar, self.interaction_time)
        if not all(map(math.isfinite, fields)):
            raise ValueError(f"Jaynes-Cummings parameters must be finite, got {fields}")
        if not self.omega0_rabi > 0:
            raise ValueError("omega0_rabi must be positive")


def revival_time(params: JCParams) -> float:
    """Revival time T_R = 4 pi sqrt(nbar) / Omega_0 of the resonant model."""
    if not params.nbar > 0:
        raise ValueError("revival time needs nbar > 0")
    return 4.0 * np.pi * math.sqrt(params.nbar) / params.omega0_rabi


def _fringe_weights(regime: str, alpha: complex, kind: str, direction: float | None, magnitudes, dt_fraction: float):
    """Idealized final branch weights (w_e, w_g) of the closed-form "dispersive"
    or "resonant" sequence at a float magnitude (scalars) or an array of them.
    Delta = 4 |alpha| s cos(phi - axis), or 4 |alpha|^2 theta for rotations,
    with the sensitive axis (a None direction's default) orthogonal to alpha
    for dispersive and along it for resonant; dt_fraction (1 for dispersive)
    scales Delta by sin(pi dt_fraction / 2).  ValueError where e^{i Delta}
    rounds P_e by eps |Delta| > 1e-8, the tolerance of `normalized()`."""
    dispersive = regime == "dispersive"
    if not (0.0 < dt_fraction <= 1.0) or (dispersive and dt_fraction != 1.0):
        raise ValueError(f"dt_fraction must lie in (0, 1], and be 1 for the dispersive sequence, got {dt_fraction!r}")
    a_abs = abs(alpha)
    if a_abs < 2.0:  # nbar = |alpha|^2 < 4
        warnings.warn("dispersive protocol assumes a mesoscopic amplitude (|alpha| >= 2)" if dispersive else
                      "resonant factorization assumes a mesoscopic field (nbar >= 4)", OutOfRegimeWarning, stacklevel=3)
    if kind == ROTATION:
        delta = 4.0 * a_abs**2 * magnitudes
    else:
        phi_rel = direction - float(np.angle(alpha)) if direction is not None else np.pi / 2.0 if dispersive else 0.0
        delta = 4.0 * a_abs * magnitudes * (np.sin(phi_rel) if dispersive else np.cos(phi_rel))
    delta = delta * math.sin(np.pi * dt_fraction / 2.0)
    peak = abs(delta) if isinstance(delta, float) else np.abs(delta).max(initial=0.0)
    if not peak * sys.float_info.epsilon <= 1e-8:  # phrased so that NaN fails too
        raise ValueError(f"fringe phase Delta reaches {peak:.3g}, where rounding moves P_e by more than 1e-8")
    turn = np.exp(1j * delta)
    if dispersive:
        return 0.5 * (1.0 - turn), 0.5 * (1.0 + turn)
    # w_g = 0.5 e^{-i arg alpha} (1 - turn) in real parts, as numpy's vectorized
    # complex product can round unlike its scalar one; [()] unwraps a 0-d result
    h, g = 0.5 * np.exp(-1j * float(np.angle(alpha))), 1.0 - turn
    w_g = np.empty(np.shape(g), complex)
    w_g.real, w_g.imag = h.real * g.real - h.imag * g.imag, h.real * g.imag + h.imag * g.real
    return 0.5 * (turn + 1.0), w_g[()]


def dispersive_protocol(alpha: complex, pert: PerturbationSpec) -> ProtocolResult:
    """Closed-form dispersive sequence; fringe law P_e = [1 - cos(Delta)]/2.

    The idealized state at the perturbation stage is (|e, alpha> +
    |g, -alpha>)/sqrt(2), or (|e, 2 alpha> + |g, 0>)/sqrt(2) for rotations,
    whose sequence always ends with D(alpha) (the bare cat has no rotation
    signal).  Only the fringe is returned, as the one-term joint state
    w_e |e, alpha> + w_g |g, alpha>; `generic_strategy` with
    `dispersive_sequence(alpha, rotation)` gives the exact joint states.
    """
    w_e, w_g = _fringe_weights("dispersive", alpha, pert.kind, pert.direction, pert.magnitude, 1.0)
    return ProtocolResult(np.array([[w_e], [w_g]]), np.array([alpha], complex), abs(w_e) ** 2, abs(w_g) ** 2)


def resonant_protocol(alpha: complex, pert: PerturbationSpec, dt_fraction: float = 1.0) -> ProtocolResult:
    """Closed-form resonant sequence; fringe law P_e = [1 + cos(Delta)]/2.

    dt_fraction = Delta_t / (T_R/2) in (0, 1] shortens both interferometer
    legs; the fringe argument picks up the factor sin(pi dt_fraction / 2).
    At dt_fraction = 1 the idealized intermediate is the factorized product
    [e^{-i pi nbar/2} |-i alpha> - e^{i pi nbar/2} |i alpha>]/sqrt(2) (x)
    (e^{-i pi/2} |e> + e^{-i arg alpha} |g>)/sqrt(2); at earlier times the
    atom is still entangled with the field.  Only the fringe is returned,
    as the one-term joint state w_e |e, alpha> + w_g |g, alpha>;
    `jc_numeric_evolve` gives the exact joint state.

    The field cat at the perturbation stage lies along +-i alpha, so a
    displacement parallel to alpha crosses its interference fringes: a
    None direction resolves to arg(alpha) here (not arg(alpha) + pi/2).
    """
    w_e, w_g = _fringe_weights("resonant", alpha, pert.kind, pert.direction, pert.magnitude, dt_fraction)
    return ProtocolResult(np.array([[w_e], [w_g]]), np.array([alpha], complex), abs(w_e) ** 2, abs(w_g) ** 2)


# --- generic composable strategy ------------------------------------------

# pi/2 pulse on the (|e>, |g>) rows of the joint weights; its inverse is the transpose
_PI_HALF = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
# the numpy kinds of the one finite parameter each descriptor takes ("" for none)
_PARAMETER = {"pi_half": "", "sigma_z": "", "conditional_phase": "", "rotate": "iuf", "displace": "iufc"}


def _checked(op) -> tuple:
    """`op` as a tuple; ValueError, naming it, unless `_PARAMETER` admits it."""
    op = tuple(op)
    kinds = _PARAMETER.get(op[0]) if op and isinstance(op[0], str) else None
    if kinds is None or len(op) != 1 + bool(kinds) or kinds and not (
            (v := np.asarray(op[1])).ndim == 0 and v.dtype.kind in kinds and np.isfinite(v)):
        raise ValueError(f"malformed unitary descriptor {op!r}: expected ('pi_half',), ('sigma_z',), "
                         "('conditional_phase',), ('displace', finite number) or ('rotate', finite real)")
    return op


def _apply_op(w: np.ndarray, a: np.ndarray, op: tuple, inverse: bool) -> tuple[np.ndarray, np.ndarray]:
    """One step of the composable set on the joint state sum_k w[0, k] |e, a_k>
    + w[1, k] |g, a_k>: (2, K) weights over K shared amplitudes."""
    name = op[0]
    if name == "pi_half":
        return (_PI_HALF.T if inverse else _PI_HALF) @ w, a
    if name == "sigma_z":
        return w * [[1.0], [-1.0]], a
    if name == "conditional_phase":
        # R(pi) on the |g> branch only: |a> -> |-a>, so the terms double
        k = a.size
        doubled = np.zeros((2, 2 * k), dtype=w.dtype)
        doubled[0, :k], doubled[1, k:] = w[0], w[1]
        return doubled, np.concatenate([a, -a])
    if name == "displace":
        return _moved_terms(w, a, beta=-op[1] if inverse else op[1])
    return _moved_terms(w, a, theta=-op[1] if inverse else op[1])


def _joint(w: np.ndarray, a: np.ndarray, norms: np.ndarray, prepared: tuple | None = None) -> ProtocolResult:
    """The joint state with its populations (n_e / n)^2 and (n_g / n)^2 from
    the row norms `norms`, n = hypot(n_e, n_g)."""
    total = math.hypot(*norms)
    return ProtocolResult(w, a, (norms[0] / total) ** 2, (norms[1] / total) ** 2, prepared)


def dispersive_sequence(alpha: complex, rotation: bool = False) -> list[tuple]:
    """Descriptor list of the dispersive preparation unitary."""
    seq: list[tuple] = [("pi_half",), ("conditional_phase",)]
    if rotation:
        seq.append(("displace", alpha))
    return seq


def _prepare(ops: tuple, alpha: complex, initial_level: str) -> tuple[np.ndarray, np.ndarray]:
    """U |level, alpha> as (weights, amplitudes); ValueError for a non-finite alpha or past the ceiling."""
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError("weights and amplitudes must be finite")
    a = np.array([alpha])
    w = np.array([[1.0], [0.0]] if initial_level == "e" else [[0.0], [1.0]], complex)
    for op in ops:
        w, a = _apply_op(w, a, op, inverse=False)
    _check_ceiling(a)
    return w, a


def generic_strategy(u_ops, pert: PerturbationSpec, alpha: complex, initial_level: str = "e") -> ProtocolResult:
    """|Psi_f> = U^dag U_pert U |level, alpha> with exact branch algebra.

    The joint state keeps both TLS branches on one list of K coherent
    amplitudes with a (2, K) weight array.  The TLS gates act on the rows,
    displacements and rotations move the shared amplitudes, and only
    `conditional_phase` adds terms (a -> [a, -a]), so a sequence with c
    conditional phases ends with K <= 4^c; no terms are merged.  The result
    is the final joint state, and its `intermediate` is U |level, alpha>,
    the exact joint state the perturbation hits, formed when it is read.

    `u_ops` is read once, so any iterable of descriptors will do, and a
    malformed one raises ValueError before any step runs.  Each call runs
    U, the perturbation and U^dag, and pays one Gram contraction.

    The perturbation is the exact oscillator unitary on both rows, so the
    result keeps the Gaussian envelope the closed forms drop: after
    `dispersive_sequence(alpha)` from |g, alpha>,
    P_e = [1 - e^{-2 s^2} (1 - 2 P_e^closed)]/2 with P_e^closed the
    `dispersive_protocol` value.

    Every step is unitary, so the final joint state keeps the start's norm
    1; a total norm off by more than 1e-9 (or NaN) raises AssertionError.
    The check reads only the row norms P_e and P_g are formed from, and it
    catches any step that is not unitary.  Gram rounding can move weight
    between the rows while their total holds, so amplitudes past about
    3.4e3, where P_e is not good to 1e-8, raise ValueError.  The echo law
    P_e = [1 +- Re<E_g alpha|E_e alpha>]/2, E_b the echo U_b^dag U_pert U_b
    of branch b, is checked by another route in the tests
    (`tests/test_protocol.py::TestGenericStrategy::test_echo_law`).
    """
    if initial_level not in ("e", "g"):
        raise ValueError("initial_level must be 'e' or 'g'")
    ops = tuple(map(_checked, u_ops))
    prepared = _prepare(ops, complex(alpha), initial_level)

    w, a = pert.moved_terms(*prepared, alpha)
    for op in reversed(ops):
        w, a = _apply_op(w, a, op, inverse=True)
    if w is prepared[0]:  # rotations alone leave U's weights as they were
        w = w.copy()
    _check_ceiling(a)
    norms = _norms(w, a)
    total = math.hypot(*norms)
    if not abs(total - 1.0) <= 1e-9:  # phrased so that NaN fails too
        raise AssertionError(f"sequence is not unitary: final norm {total!r}, start norm 1")
    return _joint(w, a, norms, prepared)


# --- numeric Jaynes-Cummings oracle ---------------------------------------


def jc_numeric_evolve(psi: FockVector, tls, params: JCParams, hamiltonian: str = "jc") -> np.ndarray:
    """Evolve tls[0] |e, psi> + tls[1] |g, psi> in the interaction picture
    with the exact propagator of the truncated model.

    hamiltonian = "jc": H(t)/hbar = (Omega_0/2)(e^{i delta t} sigma^+ a +
    e^{-i delta t} sigma^- a^dag) couples only |e, k> and |g, k+1>.  In the
    frame rotating at delta/2 each pair sees the constant block
    H_k = [[delta/2, g_k], [g_k, -delta/2]], g_k = Omega_0 sqrt(k+1) / 2,
    whose propagator is cos(Omega_k t) - i sin(Omega_k t) H_k / Omega_k with
    dressed Rabi frequency Omega_k = sqrt(delta^2/4 + g_k^2).  |g, 0> and
    |e, n_trunc-1> have no partner in the basis and stay stationary.
    hamiltonian = "dispersive": the effective far-detuned model chi * n on
    the |g> branch, c_g[n] -> e^{-i chi n t} c_g[n] with
    chi = Omega_0^2 / (4 delta).

    Returns the joint state as an array of shape (2, n_trunc): row 0 the
    |e> branch, row 1 the |g> branch.
    """
    if psi.leakage > 1e-8:
        warnings.warn(f"initial Fock vector carries truncation leakage {psi.leakage:.2e}", stacklevel=2)
    c_tls = np.asarray(tls, dtype=complex)
    if c_tls.shape != (2,):
        raise ValueError("tls must be a 2-component amplitude vector")
    n = psi.dimension
    t = params.interaction_time
    delta = params.detuning
    ce = c_tls[0] * psi.coefficients
    cg = c_tls[1] * psi.coefficients

    if hamiltonian == "jc":
        g = 0.5 * params.omega0_rabi * np.sqrt(np.arange(1, n))  # couples e[k] <-> g[k+1]
        rabi = np.sqrt(0.25 * delta**2 + g**2)
        cos, sinc = np.cos(rabi * t), np.sin(rabi * t) / rabi
        a, b = ce[:-1], cg[1:]
        ce[:-1], cg[1:] = (
            np.exp(0.5j * delta * t) * ((cos - 0.5j * delta * sinc) * a - 1j * g * sinc * b),
            np.exp(-0.5j * delta * t) * (-1j * g * sinc * a + (cos + 0.5j * delta * sinc) * b),
        )
    elif hamiltonian == "dispersive":
        if delta == 0:
            raise ValueError("dispersive model needs a nonzero detuning")
        chi = params.omega0_rabi**2 / (4.0 * delta)
        cg = cg * np.exp(-1j * chi * t * np.arange(n))
    else:
        raise ValueError("hamiltonian must be 'jc' or 'dispersive'")

    out = np.vstack([ce, cg])
    top_population = float(np.abs(out[0, -1]) ** 2 + np.abs(out[1, -1]) ** 2)
    if top_population > 1e-10:
        warnings.warn(f"population {top_population:.2e} reached the top Fock level; enlarge the basis", stacklevel=2)
    return out
