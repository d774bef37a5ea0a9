from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subplanck import states
from subplanck.metrology import PerturbationSpec
from subplanck.protocol import (
    JCParams,
    ProtocolResult,
    dispersive_protocol,
    dispersive_sequence,
    generic_strategy,
    jc_numeric_evolve,
    resonant_protocol,
    revival_time,
    _fringe_weights,
)
from subplanck.states import (
    CoherentSuperposition,
    FockVector,
    coherent_state,
    fidelity,
    inner_product,
    to_fock,
    vacuum,
)

from oracles import displacement_matrix, generic_strategy_fock, jc_ode, resonant_blocks

ALPHA = 4j


def displacement(s, phi=None):
    return PerturbationSpec("displacement", s, phi)


class TestProtocolResult:
    @staticmethod
    def _one_term(w_e, w_g):
        return ProtocolResult(np.array([[w_e], [w_g]], complex), np.array([1.0 + 0j]), abs(w_e) ** 2, abs(w_g) ** 2)

    def test_weight_normalization_enforced(self):
        with pytest.raises(ValueError):
            self._one_term(1.0, 1.0)

    @pytest.mark.parametrize("weights", [(np.nan, 0.0), (0.0, np.nan), (1.0, np.inf)])
    def test_non_finite_weights_rejected(self, weights):
        with pytest.raises(ValueError):
            self._one_term(*weights)

    def test_branches_are_normalized_on_demand(self):
        res = self._one_term(0.6, 0.8)
        assert res.p_e == pytest.approx(0.36)
        assert res.p_g == pytest.approx(0.64)
        assert fidelity(res.branch("g"), coherent_state(1.0)) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError):
            res.branch("x")

    def test_vanishing_branch_raises(self):
        # the |g> row of U = 1 from |e, alpha> was never populated
        res = generic_strategy([], displacement(0.0, phi=0.0), ALPHA, initial_level="e")
        with pytest.raises(ValueError, match="cannot normalize"):
            res.branch("g")


class TestDispersiveProtocol:
    def test_self_inversion(self):
        res = dispersive_protocol(ALPHA, displacement(0.0))
        assert res.p_e == pytest.approx(0.0, abs=1e-12)
        assert fidelity(res.branch("g"), coherent_state(ALPHA)) == pytest.approx(1.0, abs=1e-10)

    def test_full_fringe_at_pi_sixteenth(self):
        res = dispersive_protocol(ALPHA, displacement(np.pi / 16))
        assert res.p_e == pytest.approx(1.0, abs=1e-12)

    def test_rotation_half_fringe(self):
        res = dispersive_protocol(ALPHA, PerturbationSpec("rotation", np.pi / 128))
        assert res.p_e == pytest.approx(0.5, abs=1e-12)

    def test_fringe_law_everywhere(self):
        for s in np.linspace(0.0, 0.5, 41):
            res = dispersive_protocol(ALPHA, displacement(s))
            assert res.p_e == pytest.approx((1 - np.cos(16 * s)) / 2, abs=1e-10)
            assert res.p_e + res.p_g == pytest.approx(1.0, abs=1e-10)

    def test_intermediate_states(self):
        # the engine, not the closed form, gives the exact state at the
        # perturbation stage
        inter = generic_strategy(dispersive_sequence(ALPHA), displacement(0.1), ALPHA).intermediate
        assert inter.p_e == pytest.approx(0.5)
        assert fidelity(inter.branch("e"), coherent_state(ALPHA)) == pytest.approx(1.0)
        assert fidelity(inter.branch("g"), coherent_state(-ALPHA)) == pytest.approx(1.0)
        rotation = PerturbationSpec("rotation", 1e-3)
        rot = generic_strategy(dispersive_sequence(ALPHA, rotation=True), rotation, ALPHA).intermediate
        assert rot.p_e == pytest.approx(0.5)
        assert fidelity(rot.branch("e"), coherent_state(2 * ALPHA)) == pytest.approx(1.0)
        assert fidelity(rot.branch("g"), vacuum()) == pytest.approx(1.0)

    def test_direction_dependence(self):
        # displacement along alpha carries no fringe signal
        res = dispersive_protocol(ALPHA, displacement(0.1, phi=float(np.angle(ALPHA))))
        assert res.p_e == pytest.approx(0.0, abs=1e-12)


class TestResonantProtocol:
    def test_self_inversion(self):
        res = resonant_protocol(ALPHA, displacement(0.0))
        assert res.p_e == pytest.approx(1.0, abs=1e-12)
        assert fidelity(res.branch("e"), coherent_state(ALPHA)) == pytest.approx(1.0, abs=1e-10)

    def test_dark_fringe_at_pi_sixteenth(self):
        res = resonant_protocol(ALPHA, displacement(np.pi / 16))
        assert res.p_e == pytest.approx(0.0, abs=1e-12)

    def test_fringe_law_everywhere(self):
        for s in np.linspace(0.0, 0.5, 41):
            res = resonant_protocol(ALPHA, displacement(s))
            assert res.p_e == pytest.approx((1 + np.cos(16 * s)) / 2, abs=1e-10)
            assert res.p_e + res.p_g == pytest.approx(1.0, abs=1e-10)

    def test_shortened_interaction_rescales_fringe(self):
        s = 0.1
        res = resonant_protocol(ALPHA, displacement(s), dt_fraction=0.5)
        s_eff = s * np.sin(np.pi * 0.25)
        assert res.p_e == pytest.approx((1 + np.cos(16 * s_eff)) / 2, abs=1e-12)

    def test_dt_fraction_domain(self):
        with pytest.raises(ValueError):
            resonant_protocol(ALPHA, displacement(0.1), dt_fraction=0.0)
        with pytest.raises(ValueError):
            resonant_protocol(ALPHA, displacement(0.1), dt_fraction=1.5)


@pytest.mark.parametrize(
    "closed_form",
    [
        lambda: dispersive_protocol(ALPHA, displacement(0.1)),
        lambda: dispersive_protocol(ALPHA, PerturbationSpec("rotation", 1e-3)),
        lambda: resonant_protocol(ALPHA, displacement(0.1)),
        lambda: resonant_protocol(ALPHA, displacement(0.1), dt_fraction=0.7),
    ],
    ids=["dispersive", "dispersive_rotation", "resonant", "resonant_early"],
)
def test_closed_form_returns_only_its_fringe(monkeypatch, closed_form):
    # a one-term joint state: no oscillator state, no intermediate and no Gram block
    calls = Counter()
    gram, init = states._gram, CoherentSuperposition.__init__

    def counted_gram(*args):
        calls["gram"] += 1
        return gram(*args)

    def counted_init(self, *args):
        calls["state"] += 1
        init(self, *args)

    monkeypatch.setattr(states, "_gram", counted_gram)
    monkeypatch.setattr(CoherentSuperposition, "__init__", counted_init)
    assert closed_form().intermediate is None
    assert dict(calls) == {}


@st.composite
def closed_form_sweeps(draw):
    """(regime, alpha, kind, phi, magnitude grid, dt_fraction) in the CLI's range."""
    regime = draw(st.sampled_from(["dispersive", "resonant"]))
    kind = draw(st.sampled_from(["displacement", "rotation"]))
    alpha = draw(st.floats(0.0, 30.0)) * np.exp(1j * draw(st.floats(-np.pi, np.pi)))
    phi = draw(st.none() | st.floats(-7.0, 7.0))
    s_max = draw(st.floats(0.0, 0.5 if kind == "displacement" else 0.05))
    mags = np.linspace(0.0, s_max, draw(st.integers(2, 40)))
    early = st.floats(0.0, 1.0, exclude_min=True)
    dt_fraction = 1.0 if regime == "dispersive" else draw(st.just(1.0) | early)
    return regime, alpha, kind, phi, mags, dt_fraction


@pytest.mark.filterwarnings("ignore::subplanck.metrology.OutOfRegimeWarning")
@given(closed_form_sweeps())
@settings(max_examples=100, deadline=None)
def test_fringe_kernel_on_a_grid_matches_the_closed_forms(sweep):
    # one array call of the kernel gives, bit for bit, the one-term joint
    # weights of the per-point public closed forms, and the shared |w|^2
    # rule their abs()**2
    regime, alpha, kind, phi, mags, dt_fraction = sweep
    w_e, w_g = _fringe_weights(regime, alpha, kind, phi, mags, dt_fraction)
    results = [
        dispersive_protocol(alpha, PerturbationSpec(kind, float(x), phi)) if regime == "dispersive"
        else resonant_protocol(alpha, PerturbationSpec(kind, float(x), phi), dt_fraction)
        for x in mags
    ]
    assert np.stack([w_e, w_g], axis=1).tolist() == [r.weights[:, 0].tolist() for r in results]
    assert all(r.amplitudes.tolist() == [complex(alpha)] for r in results)
    assert states._abs_sq(w_e).tolist() == [r.p_e for r in results]
    assert states._abs_sq(w_g).tolist() == [r.p_g for r in results]


class TestGenericStrategy:
    def test_empty_sequence_identity(self):
        res = generic_strategy([], displacement(0.0, phi=0.0), ALPHA)
        assert res.p_e == pytest.approx(1.0, abs=1e-12)
        assert fidelity(res.branch("e"), coherent_state(ALPHA)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("s", [0.02, 0.07, 0.1, 0.15])
    def test_exact_model_shows_gaussian_envelope(self, s):
        # the exact engine keeps the e^{-2 s^2} envelope the closed form
        # drops: P_e = [1 - e^{-2 s^2} (1 - 2 P_e^closed)] / 2, and with
        # P_e^closed = [1 - cos(4 |alpha| s)] / 2 that is
        # [1 - e^{-2 s^2} cos(16 s)] / 2 at |alpha| = 4
        pert = displacement(s)
        res = generic_strategy(dispersive_sequence(ALPHA), pert, ALPHA, initial_level="g")
        closed = dispersive_protocol(ALPHA, pert).p_e
        assert res.p_e == pytest.approx(0.5 * (1 - np.exp(-2 * s**2) * (1 - 2 * closed)), abs=1e-12)
        assert res.p_e == pytest.approx(0.5 * (1 - np.exp(-2 * s**2) * np.cos(16 * s)), abs=1e-12)

    def test_branch_identity_for_random_sequences(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ops = []
            for _ in range(rng.integers(1, 4)):
                choice = rng.integers(0, 5)
                ops.append(
                    [("pi_half",), ("conditional_phase",), ("sigma_z",),
                     ("displace", complex(*rng.normal(0, 1, 2))), ("rotate", float(rng.normal(0, 0.5)))][choice]
                )
            res = generic_strategy(ops, displacement(0.05, phi=0.3), 2.0 + 1j)
            # consistency identity P_e |<alpha|psi_e>|^2 = |<e,alpha|Psi_f>|^2, the
            # right side from the |e> row over the joint state's total norm
            ref = coherent_state(2.0 + 1j)
            rows = [CoherentSuperposition(row, res.amplitudes) for row in res.weights]
            total = np.hypot(*(row.norm() for row in rows))
            rhs = abs(inner_product(ref, rows[0]) / total) ** 2
            lhs = res.p_e * abs(inner_product(ref, res.branch("e"))) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-10)
            assert res.p_e + res.p_g == pytest.approx(1.0, abs=1e-10)

    def test_sigma_z_and_rotation_sequence(self):
        res = generic_strategy([("sigma_z",), ("rotate", 0.3)], displacement(0.0, phi=0.0), 1.5)
        assert res.p_e == pytest.approx(1.0, abs=1e-12)

    def test_unknown_descriptor_rejected(self):
        with pytest.raises(ValueError):
            generic_strategy([("hadamard",)], displacement(0.1), ALPHA)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_fock_oracle_on_entangling_sequences(self, seed):
        # a pi_half ahead of a conditional_phase entangles the branches in
        # either initial level; the oracle evolves a truncated joint Fock vector
        rng = np.random.default_rng(seed)

        def random_ops():
            return [
                [("pi_half",), ("conditional_phase",), ("sigma_z",),
                 ("displace", complex(*rng.normal(0, 0.7, 2))), ("rotate", float(rng.normal(0, 0.5)))][rng.integers(0, 5)]
                for _ in range(rng.integers(0, 3))
            ]

        alpha = complex(*rng.normal(0, 1.5, 2))
        ops = random_ops() + [("pi_half",)] + random_ops() + [("conditional_phase",), ("displace", alpha)] + random_ops()
        kind = "rotation" if seed % 2 else "displacement"
        pert = PerturbationSpec(kind, float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.0, 2 * np.pi)))
        for level in ("e", "g"):
            res = generic_strategy(ops, pert, alpha, initial_level=level)
            assert res.p_e == pytest.approx(generic_strategy_fock(ops, pert, alpha, level), abs=1e-9)

    def test_empty_descriptor_and_bad_level_rejected(self):
        with pytest.raises(ValueError):
            generic_strategy([()], displacement(0.1), ALPHA)
        with pytest.raises(ValueError):
            generic_strategy([("pi_half",)], displacement(0.1), ALPHA, initial_level="x")


class TestJCNumeric:
    def test_zero_time_identity(self):
        psi = to_fock(vacuum(), 6)
        out = jc_numeric_evolve(psi, (1.0, 0.0), JCParams(1.0, 0.0, 0.0, 0.0))
        assert abs(out[0, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_rabi_flop(self):
        psi = to_fock(vacuum(), 6)
        out = jc_numeric_evolve(psi, (1.0, 0.0), JCParams(1.0, 0.0, 0.0, np.pi))
        assert abs(out[1, 1]) ** 2 >= 1.0 - 1e-6

    def test_half_flop_populations(self):
        out = jc_numeric_evolve(to_fock(vacuum(), 6), (1.0, 0.0), JCParams(1.0, 0.0, 0.0, np.pi / 2))
        assert abs(out[0, 0]) ** 2 == pytest.approx(0.5, abs=1e-9)
        assert abs(out[1, 1]) ** 2 == pytest.approx(0.5, abs=1e-9)

    def test_matches_closed_form_blocks(self):
        alpha = 2.0
        psi = to_fock(coherent_state(alpha))
        t = 2 * np.pi * alpha  # half revival
        numeric = jc_numeric_evolve(psi, (1.0, 0.0), JCParams(1.0, 0.0, alpha**2, t))
        joint0 = np.vstack([psi.coefficients, np.zeros(psi.dimension, complex)])
        exact = resonant_blocks(joint0, 1.0, t)
        assert np.max(np.abs(numeric - exact)) < 1e-5
        assert np.linalg.norm(numeric) == pytest.approx(1.0, abs=1e-9)

    def test_half_revival_factorization_measured(self):
        # the leading-order factorized form is approximate; its joint
        # fidelity saturates near 0.70 because of the quadratic spread of
        # the Rabi phases, while the factorization itself (product-ness,
        # TLS state) is excellent.  Record, don't idealize.
        alpha = 3.0
        nbar = alpha**2
        psi = to_fock(coherent_state(alpha))
        out = jc_numeric_evolve(psi, (1.0, 0.0), JCParams(1.0, 0.0, nbar, 2 * np.pi * alpha))
        cat = CoherentSuperposition(
            [np.exp(-0.5j * np.pi * nbar), -np.exp(0.5j * np.pi * nbar)],
            [-1j * alpha, 1j * alpha],
        ).normalized()
        catf = to_fock(cat, psi.dimension).coefficients
        target = np.vstack([np.exp(-0.5j * np.pi) * catf, np.exp(-1j * np.angle(alpha + 0j)) * catf]) / np.sqrt(2)
        joint_fidelity = abs(np.vdot(target.ravel(), out.ravel())) ** 2
        print(f"half-revival joint fidelity vs factorized form: {joint_fidelity:.4f}")
        assert joint_fidelity >= 0.65

        svals = np.linalg.svd(out, compute_uv=False)
        assert svals[0] ** 2 >= 0.97  # nearly a product state
        atom = np.linalg.svd(out)[0][:, 0]
        phi_a = np.array([np.exp(-0.5j * np.pi), 1.0]) / np.sqrt(2)
        assert abs(np.vdot(phi_a, atom)) ** 2 >= 0.999

    def test_effective_dispersive_conditional_phase(self):
        # chi T = pi flips the coupled branch: |g, alpha> -> |g, -alpha>
        for alpha in [2.0, 3.0, 4.0]:
            nbar = alpha**2
            omega0 = 1.0
            detuning = 20.0 * omega0 * np.sqrt(nbar)
            params = JCParams(omega0, detuning, nbar, np.pi * 4 * detuning / omega0**2)
            assert params.is_dispersive
            psi = to_fock(coherent_state(alpha))
            out = jc_numeric_evolve(psi, (0.0, 1.0), params, hamiltonian="dispersive")
            flipped = to_fock(coherent_state(-alpha), psi.dimension).coefficients
            branch_fidelity = abs(np.vdot(flipped, out[1])) ** 2
            assert branch_fidelity >= 0.99
            assert np.allclose(out[0], 0.0)

    def test_true_jc_dispersive_branch_recorded(self):
        # full interaction-picture evolution at delta = 20 Omega sqrt(nbar):
        # the second-order light shift leaves only a tiny residual field
        # rotation ~ pi nbar Omega^2 / (2 delta^2) per photon and leakage
        # ~ (Omega sqrt(n) / 2 delta)^2, so the conditional-phase picture
        # holds to better than 1e-3
        alpha = 2.0
        nbar = alpha**2
        omega0 = 1.0
        detuning = 20.0 * omega0 * np.sqrt(nbar)
        t = np.pi * 4 * detuning / omega0**2
        psi = to_fock(coherent_state(alpha))
        out = jc_numeric_evolve(psi, (0.0, 1.0), JCParams(omega0, detuning, nbar, t))
        leak = float(np.sum(np.abs(out[0]) ** 2))
        assert leak < 1e-4
        branch = out[1] / np.linalg.norm(out[1])
        flipped = to_fock(coherent_state(-alpha), psi.dimension).coefficients
        raw_fidelity = abs(np.vdot(flipped, branch)) ** 2
        print(f"true-JC dispersive branch fidelity vs |-alpha>: {raw_fidelity:.6f}")
        assert raw_fidelity >= 0.999

    @pytest.mark.parametrize(
        "alpha, tls, omega0, detuning, t, hamiltonian",
        [
            (2.0, (1.0, 0.0), 1.0, 0.0, 3.0, "jc"),
            (2.0 + 1.0j, (0.6, 0.8j), 1.0, 1.7, 4.0, "jc"),
            (1.5 - 0.5j, (np.sqrt(0.3), -np.sqrt(0.7)), 0.8, -2.5, 5.0, "jc"),
            (3.0, (0.0, 1.0), 1.0, 12.0, 20.0, "dispersive"),
        ],
    )
    def test_matches_ode_oracle(self, alpha, tls, omega0, detuning, t, hamiltonian):
        psi = to_fock(coherent_state(alpha))
        out = jc_numeric_evolve(psi, tls, JCParams(omega0, detuning, abs(alpha) ** 2, t), hamiltonian=hamiltonian)
        joint0 = np.outer(tls, psi.coefficients)
        assert np.linalg.norm(out - jc_ode(joint0, omega0, detuning, t, hamiltonian)) <= 1e-9
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(joint0), abs=1e-12)

    def test_truncation_edges_stationary(self):
        # |e, n-1> and |g, 0> have no partner in the truncated ladder
        n = 6
        params = JCParams(1.0, 0.7, 0.0, 2.3)
        top = FockVector(np.eye(n)[n - 1])
        with pytest.warns(UserWarning, match="top Fock level"):
            out = jc_numeric_evolve(top, (1.0, 0.0), params)
        np.testing.assert_array_equal(out, np.outer([1.0, 0.0], np.eye(n)[n - 1]))
        out = jc_numeric_evolve(FockVector(np.eye(n)[0]), (0.0, 1.0), params)
        np.testing.assert_array_equal(out, np.outer([0.0, 1.0], np.eye(n)[0]))

    def test_truncation_warning_on_tight_basis(self):
        psi = to_fock(coherent_state(2.0), 8)
        with pytest.warns(UserWarning):
            jc_numeric_evolve(psi, (1.0, 0.0), JCParams(1.0, 0.0, 4.0, 3.0))


class TestNumericResonantProtocol:
    """Full numeric interferometer: evolve, displace, sigma_z kick, evolve."""

    @staticmethod
    def _run(alpha, beta):
        psi = to_fock(coherent_state(alpha))
        n = psi.dimension
        joint = np.vstack([psi.coefficients, np.zeros(n, complex)])
        t_half = 2 * np.pi * np.sqrt(abs(alpha) ** 2)
        joint = resonant_blocks(joint, 1.0, t_half)
        d = displacement_matrix(beta, n)
        joint = np.vstack([d @ joint[0], d @ joint[1]])
        joint[1] *= -1.0
        joint = resonant_blocks(joint, 1.0, t_half)
        return float(np.sum(np.abs(joint[0]) ** 2))

    def test_exact_self_inversion(self):
        # sigma_z H sigma_z = -H makes the kick inversion exact, with no
        # reliance on the factorization approximation
        assert self._run(3.0, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_fringe_law_for_displacement_along_alpha(self):
        alpha = 3.0
        for s in [0.05, np.pi / 24]:
            p_numeric = self._run(alpha, s)  # beta parallel to alpha
            p_analytic = resonant_protocol(alpha, displacement(s)).p_e
            assert abs(p_numeric - p_analytic) < 0.02

    def test_orthogonal_displacement_carries_no_fringe(self):
        # the intermediate cat lies along +-i alpha, so beta = i s is the
        # insensitive direction: P_e stays near 1 instead of fringing
        alpha = 3.0
        s = np.pi / 24
        assert resonant_protocol(alpha, displacement(s, phi=np.pi / 2)).p_e == pytest.approx(1.0, abs=1e-12)
        assert self._run(alpha, 1j * s) > 0.9


class TestRevivalTime:
    def test_ion_preset(self):
        omega0 = 2 * np.pi / 140e-6
        params = JCParams(omega0, 0.0, 20.0, 0.0)
        assert revival_time(params) / 2 == pytest.approx(0.63e-3, abs=0.01e-3)

    def test_arithmetic_identity(self):
        assert revival_time(JCParams(4 * np.pi, 0.0, 1.0, 0.0)) == pytest.approx(1.0)

    def test_sqrt_scaling(self):
        t1 = revival_time(JCParams(1.0, 0.0, 1.0, 0.0))
        t4 = revival_time(JCParams(1.0, 0.0, 4.0, 0.0))
        assert t4 == pytest.approx(2 * t1)

    def test_requires_positive_nbar(self):
        with pytest.raises(ValueError):
            revival_time(JCParams(1.0, 0.0, 0.0, 0.0))

    def test_nan_nbar_rejected(self):
        with pytest.raises(ValueError):
            revival_time(JCParams(1.0, 0.0, np.nan, 0.0))


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_jc_params_must_be_finite(field, bad):
    values = [1.0, 0.0, 4.0, 1.0]
    values[field] = bad
    with pytest.raises(ValueError):
        JCParams(*values)
