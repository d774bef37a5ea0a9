"""50-digit oracles for the exact coherent-state algebra, in plain Python
over mpmath.

Nothing here imports `subplanck`: each function restates its algebra from
the definitions, so an error in the package cannot repeat itself here, and
no truncation or asymptotic form enters.  Inputs are taken at their exact
binary values, so the only error left on the package side is its own
double rounding.
"""

import mpmath
from mpmath import mp

DIGITS = 50


def gram(bra, ket):
    """G[k][l] = <bra_k|ket_l> = exp(-(|b_k|^2 + |a_l|^2)/2 + conj(b_k) a_l)."""
    return [[mpmath.exp(-(abs(b) ** 2 + abs(a) ** 2) / 2 + mpmath.conj(b) * a) for a in ket] for b in bra]


def _norm_sq(w, a):
    """<psi|psi> = sum_kl conj(w_k) G_kl w_l for psi = sum_k w_k |a_k>."""
    g = gram(a, a)
    return mpmath.re(mpmath.fsum(mpmath.conj(wk) * gk * wl for wk, row in zip(w, g) for gk, wl in zip(row, w)))


def _step(e, g, a, op, inverse):
    """One descriptor on the joint state sum_k e_k |e, a_k> + g_k |g, a_k>:
    ("pi_half",) and its transpose, ("sigma_z",), ("conditional_phase",)
    (|a> -> |-a> on the |g> row, so the terms double), ("displace", beta)
    (D(beta)|a> = e^{i Im(beta conj(a))} |a + beta>) or ("rotate", theta)
    (|a> -> |e^{i theta} a>), undone when `inverse`."""
    name, sign = op[0], -1 if inverse else 1
    if name == "pi_half":
        r = 1 / mpmath.sqrt(2)
        return [r * (x + sign * y) for x, y in zip(e, g)], [r * (y - sign * x) for x, y in zip(e, g)], a
    if name == "sigma_z":
        return e, [-y for y in g], a
    if name == "conditional_phase":
        zeros = [mpmath.mpc(0)] * len(a)
        return e + zeros, zeros + g, a + [-x for x in a]
    if name == "displace":
        beta = sign * mpmath.mpc(complex(op[1]))
        phases = [mpmath.expj(mpmath.im(beta * mpmath.conj(x))) for x in a]
        return [p * x for p, x in zip(phases, e)], [p * y for p, y in zip(phases, g)], [x + beta for x in a]
    if name == "rotate":
        turn = mpmath.expj(sign * mpmath.mpf(float(op[1])))
        return e, g, [turn * x for x in a]
    raise ValueError(f"unknown descriptor {op!r}")


def joint_p_e(u_ops, pert_op, alpha, level="e"):
    """P_e of U^dag U_pert U |level, alpha>, U the descriptor list `u_ops` and
    U_pert the one descriptor `pert_op` on the oscillator, at DIGITS digits:
    the |e> row's norm^2 over the total."""
    with mp.workdps(DIGITS):
        one, zero = [mpmath.mpc(1)], [mpmath.mpc(0)]
        e, g = (one, zero) if level == "e" else (zero, one)
        a = [mpmath.mpc(complex(alpha))]
        for op, inverse in [*((op, False) for op in u_ops), (pert_op, False), *((op, True) for op in reversed(u_ops))]:
            e, g, a = _step(e, g, a, op, inverse)
        n_e, n_g = _norm_sq(e, a), _norm_sq(g, a)
        return n_e / (n_e + n_g)
