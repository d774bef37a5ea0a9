"""Independent numeric oracles used by the test suite.

Everything here deliberately avoids the closed-form code paths it checks:
the resonant evolution uses the exact 2x2 ladder blocks, the
Jaynes-Cummings evolution at any detuning is integrated numerically, the Wigner
oracles evaluate the displaced-parity definition W_A = 2 Tr[A D P D^dag]
by explicit Fock sums or the unfactorised cross-term exponent point by
point, and displacement operators are built as matrix exponentials where
full independence from the coherent-state identities is wanted.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from subplanck.states import coherent_state, default_n_trunc, displace, inner_product, to_fock


def perturbed_overlap(target, spec) -> float:
    """|<target|U|target>|^2 for one PerturbationSpec: the perturbed state
    is built term by term and contracted with the 2-d Gram matrix."""
    return abs(inner_product(target, spec.apply(target))) ** 2


def fock_inner(fa, fb) -> complex:
    n = min(fa.dimension, fb.dimension)
    return complex(np.vdot(fa.coefficients[:n], fb.coefficients[:n]))


def fock_mean_n(f) -> float:
    n = np.arange(f.dimension)
    return float(np.sum(n * np.abs(f.coefficients) ** 2))


def lowering_matrix(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def displacement_matrix(beta: complex, dim: int) -> np.ndarray:
    a = lowering_matrix(dim)
    return expm(beta * a.conj().T - np.conj(beta) * a)


def generic_strategy_fock(u_ops, spec, alpha: complex, initial_level: str = "e") -> float:
    """P_e of U^dag U_pert U |level, alpha> on a truncated joint Fock vector
    of shape (2, dim): D(beta) by matrix exponential, diag((-1)^n) on the |g>
    row for conditional_phase, diag(e^{i theta n}) for rotate and 2x2 gates
    on the TLS rows.  `spec` must carry an explicit direction."""
    shift = sum(abs(op[1]) for op in u_ops if op[0] == "displace")
    dim = default_n_trunc(abs(alpha) + shift + spec.magnitude) + 20
    n = np.arange(dim)
    pi_half = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)

    def step(psi, op, sign):
        name = op[0]
        if name == "pi_half":
            return (pi_half if sign > 0 else pi_half.T) @ psi
        if name == "sigma_z":
            return psi * np.array([[1.0], [-1.0]])
        if name == "conditional_phase":
            return np.vstack([psi[0], (-1.0) ** n * psi[1]])
        if name == "displace":
            return psi @ displacement_matrix(sign * op[1], dim).T
        if name == "rotate":
            return psi * np.exp(1j * sign * op[1] * n)
        raise ValueError(name)

    vacuum = np.eye(dim)[0]
    coherent = displacement_matrix(alpha, dim) @ vacuum
    psi = np.outer([1.0, 0.0] if initial_level == "e" else [0.0, 1.0], coherent)
    for op in u_ops:
        psi = step(psi, op, 1.0)
    if spec.kind == "rotation":
        psi = step(psi, ("rotate", spec.magnitude), 1.0)
    else:
        psi = step(psi, ("displace", spec.magnitude * np.exp(1j * spec.direction)), 1.0)
    for op in reversed(u_ops):
        psi = step(psi, op, -1.0)
    return float(np.sum(np.abs(psi[0]) ** 2) / np.sum(np.abs(psi) ** 2))


def parity_wigner_fock(alpha_k: complex, alpha_l: complex, point: complex) -> complex:
    """Displaced-parity value 2 <a_l| D(p) P D(p)^dag |a_k> with the parity
    sum (-1)^n taken over explicit Fock coefficients."""
    u = displace(coherent_state(alpha_k), -point)
    v = displace(coherent_state(alpha_l), -point)
    dim = default_n_trunc(max(abs(u.amplitudes[0]), abs(v.amplitudes[0])))
    cu = to_fock(u, dim).coefficients
    cv = to_fock(v, dim).coefficients
    signs = (-1.0) ** np.arange(dim)
    return 2.0 * complex(np.sum(np.conj(cv) * signs * cu))


def parity_wigner_expm(alpha_k: complex, alpha_l: complex, point: complex, dim: int) -> complex:
    """Same displaced-parity value with D(p) built by matrix exponential;
    no coherent-displacement identity is used anywhere."""
    d = displacement_matrix(point, dim)
    parity = np.diag((-1.0) ** np.arange(dim))
    ck = to_fock(coherent_state(alpha_k), dim).coefficients
    cl = to_fock(coherent_state(alpha_l), dim).coefficients
    op = d @ parity @ d.conj().T
    return 2.0 * complex(np.conj(cl) @ op @ ck)


def cross_wigner_direct(alpha_k: complex, alpha_l: complex, point):
    """2 exp(E_kl(p)) with the whole exponent
    E_kl = -2 (p - a_k)(conj(p) - conj(a_l)) + log <a_l|a_k>
    assembled before a single exp: no midpoint form, no axis factors."""
    p = np.asarray(point, dtype=complex)
    log_overlap = -0.5 * (abs(alpha_k) ** 2 + abs(alpha_l) ** 2) + np.conj(alpha_l) * alpha_k
    return 2.0 * np.exp(-2.0 * (p - alpha_k) * (np.conj(p) - np.conj(alpha_l)) + log_overlap)


def wigner_direct(weights, amplitudes, points) -> np.ndarray:
    """sum_kl w_k conj(w_l) 2 exp(E_kl(p)) at each point, real part."""
    p = np.asarray(points, dtype=complex)
    total = np.zeros(p.shape, dtype=complex)
    for wk, ak in zip(weights, amplitudes):
        for wl, al in zip(weights, amplitudes):
            total += wk * np.conj(wl) * cross_wigner_direct(ak, al, p)
    return total.real


def resonant_blocks(joint: np.ndarray, omega0: float, t: float) -> np.ndarray:
    """Exact resonant evolution from the 2x2 dressed blocks coupling
    |e, n> and |g, n+1> at Rabi angle omega0 sqrt(n+1) t / 2."""
    n = joint.shape[1]
    ce, cg = joint[0], joint[1]
    ce_t = np.zeros(n, dtype=complex)
    cg_t = np.zeros(n, dtype=complex)
    cg_t[0] = cg[0]
    theta = 0.5 * omega0 * np.sqrt(np.arange(1, n)) * t
    ce_t[:-1] = np.cos(theta) * ce[:-1] - 1j * np.sin(theta) * cg[1:]
    cg_t[1:] = np.cos(theta) * cg[1:] - 1j * np.sin(theta) * ce[:-1]
    return np.vstack([ce_t, cg_t])


def jc_ode(joint: np.ndarray, omega0: float, detuning: float, t: float, hamiltonian: str = "jc") -> np.ndarray:
    """Integrate the truncated interaction-picture Schroedinger equation
    (row 0 the |e> branch, row 1 the |g> branch) with DOP853 at tight
    tolerances.  "jc": H/hbar = (omega0/2)(e^{i delta t} sigma^+ a + h.c.);
    "dispersive": chi n on the |g> branch, chi = omega0^2 / (4 delta)."""
    n = joint.shape[1]
    if hamiltonian == "dispersive":
        chi_n = (omega0**2 / (4.0 * detuning)) * np.arange(n)

        def rhs(time, y):
            return np.concatenate([np.zeros(n, dtype=complex), -1j * chi_n * y[n:]])

    else:
        ladder = 0.5 * omega0 * np.sqrt(np.arange(1, n))

        def rhs(time, y):
            ce, cg = y[:n], y[n:]
            phase = np.exp(1j * detuning * time)
            dce = np.zeros(n, dtype=complex)
            dcg = np.zeros(n, dtype=complex)
            dce[:-1] = -1j * phase * ladder * cg[1:]
            dcg[1:] = -1j * np.conj(phase) * ladder * ce[:-1]
            return np.concatenate([dce, dcg])

    sol = solve_ivp(rhs, (0.0, t), joint.astype(complex).ravel(), method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    return sol.y[:, -1].reshape(2, n)


def trapezoid_overlap(v1, v2, re, im):
    """(1/pi) * 2-d trapezoid integral of v1 * v2 over sampled fields
    v[ix, iy], with the Richardson error estimate against the
    half-resolution subgrid of the odd-truncated grid."""

    def integral(values, x, y):
        return float(np.trapezoid(np.trapezoid(values, x=y, axis=1), x=x)) / np.pi

    prod = v1 * v2
    mx = re.size if re.size % 2 == 1 else re.size - 1
    my = im.size if im.size % 2 == 1 else im.size - 1
    value = integral(prod, re, im)
    full = integral(prod[:mx, :my], re[:mx], im[:my])
    half = integral(prod[:mx:2, :my:2], re[:mx:2], im[:my:2])
    return value, abs(full - half) / 3.0 + abs(value - full)
