import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subplanck import protocol, states
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
)

from mp_oracles import joint_p_e
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
        # the engine's preparation, not the closed form, gives the exact state
        # at the perturbation stage
        def prepared(ops):
            w, a = protocol._prepare(tuple(ops), ALPHA, "e")
            return protocol._joint(w, a, states._norms(w, a))

        inter = prepared(dispersive_sequence(ALPHA))
        assert inter.p_e == pytest.approx(0.5)
        assert fidelity(inter.branch("e"), coherent_state(ALPHA)) == pytest.approx(1.0)
        assert fidelity(inter.branch("g"), coherent_state(-ALPHA)) == pytest.approx(1.0)
        rot = prepared(dispersive_sequence(ALPHA, rotation=True))
        assert rot.p_e == pytest.approx(0.5)
        assert fidelity(rot.branch("e"), coherent_state(2 * ALPHA)) == pytest.approx(1.0)
        assert fidelity(rot.branch("g"), coherent_state(0)) == pytest.approx(1.0)

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
    # a one-term joint state: no oscillator state and no Gram block
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
    assert closed_form().amplitudes.shape == (1,)
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

@pytest.mark.parametrize("regime", ["dispersive", "resonant"])
@pytest.mark.parametrize("kind", ["displacement", "rotation"])
def test_fringe_phase_past_the_rounding_limit_raises(regime, kind):
    # e^{i Delta} rounds its phase by about eps |Delta|, which passes 1e-8 at
    # |Delta| = 4.5e7; Delta = 16 s or 64 theta at |alpha| = 4, for scalar
    # and array magnitudes alike
    limit = 1e-8 / np.finfo(float).eps / (16.0 if kind == "displacement" else 64.0)
    for mags in (0.99 * limit, np.array([0.0, 0.99 * limit])):
        w_e, w_g = _fringe_weights(regime, ALPHA, kind, None, mags, 1.0)
        assert np.all(np.isfinite(w_e)) and np.all(np.isfinite(w_g))
    for mags in (1.01 * limit, np.array([0.0, 1.01 * limit]), np.nan):
        with pytest.raises(ValueError, match="fringe phase"):
            _fringe_weights(regime, ALPHA, kind, None, mags, 1.0)


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
        # a pi_half ahead of a conditional_phase entangles the oscillator with
        # the TLS; no pi_half before it, which could pair into a full flip,
        # and a displacement after it, without which a rotation commutes with
        # the whole sequence and leaves no signal
        rng = np.random.default_rng(5)
        menu = ["conditional_phase", "sigma_z", "displace", "rotate", "pi_half"]

        def random_op(name):
            if name == "displace":
                return (name, complex(*rng.normal(0, 1, 2)))
            return (name, float(rng.normal(0, 0.5))) if name == "rotate" else (name,)

        def random_ops(names):
            return [random_op(names[rng.integers(0, len(names))]) for _ in range(rng.integers(0, 3))]

        entangled = 0
        for draw in range(10):
            ops = (random_ops(menu[:4]) + [("pi_half",)] + random_ops(menu[1:4])
                   + [("conditional_phase",), ("displace", complex(*rng.normal(0, 1, 2)))] + random_ops(menu))
            kind = "rotation" if draw % 2 else "displacement"
            pert = PerturbationSpec(kind, float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.0, 2 * np.pi)))
            alpha = 2.0 + 1j
            res = generic_strategy(ops, pert, alpha, initial_level="eg"[draw // 2 % 2])
            # consistency identity P_e |<alpha|psi_e>|^2 = |<e,alpha|Psi_f>|^2, the
            # right side from the |e> row over the joint state's total norm; a
            # vanishing |e> row has no branch and contributes 0
            ref = coherent_state(alpha)
            rows = [CoherentSuperposition(row, res.amplitudes) for row in res.weights]
            norm_e, norm_g = (row.norm() for row in rows)
            rhs = abs(inner_product(ref, rows[0]) / np.hypot(norm_e, norm_g)) ** 2
            lhs = res.p_e * abs(inner_product(ref, res.branch("e"))) ** 2 if norm_e > 1e-12 else 0.0
            assert lhs == pytest.approx(rhs, abs=1e-10)
            assert res.p_e + res.p_g == pytest.approx(1.0, abs=1e-10)
            entangled += 1e-6 < res.p_e < 1 - 1e-6
        assert entangled >= 8

    @settings(max_examples=60, deadline=None)
    @given(
        radius=st.floats(0.1, 6.0),
        phase=st.floats(0.0, 2 * np.pi),
        magnitude=st.floats(0.0, 0.5),
        direction=st.floats(0.0, 2 * np.pi),
        kind=st.sampled_from(["displacement", "rotation"]),
        rotation=st.booleans(),
        level=st.sampled_from(["e", "g"]),
    )
    def test_echo_law(self, radius, phase, magnitude, direction, kind, rotation, level):
        # P_e = [1 +- Re<E_g alpha|E_e alpha>]/2, + from |e> and - from |g>,
        # with each branch's echo E_b = U_b^dag U_pert U_b built from the
        # public state operations: U_e = D(alpha) if rotation, else 1, and
        # U_g = U_e R(pi)
        alpha = radius * np.exp(1j * phase)
        pert = PerturbationSpec(kind, magnitude, direction)

        def echo(state):
            if rotation:
                return states.displace(pert.apply(states.displace(state, alpha), alpha), -alpha)
            return pert.apply(state, alpha)

        start = coherent_state(alpha)
        echo_e = echo(start)
        echo_g = states.rotate(echo(states.rotate(start, np.pi)), -np.pi)
        sign = 1.0 if level == "e" else -1.0
        law = 0.5 * (1.0 + sign * inner_product(echo_g, echo_e).real)
        res = generic_strategy(dispersive_sequence(alpha, rotation), pert, alpha, initial_level=level)
        assert abs(res.p_e - law) <= 1e-12

    def test_non_unitary_step_is_caught(self, monkeypatch):
        # a pi/2 pulse scaled by 1.01 keeps P_e + P_g = 1 after normalization
        # but not the total norm
        monkeypatch.setattr(protocol, "_PI_HALF", 1.01 * protocol._PI_HALF)
        with pytest.raises(AssertionError, match="not unitary"):
            generic_strategy(dispersive_sequence(ALPHA), displacement(0.1), ALPHA)

    @pytest.mark.parametrize("ops", [
        [],
        dispersive_sequence(ALPHA),
        [("pi_half",), ("conditional_phase",), ("displace", ALPHA), ("rotate", 0.3), ("sigma_z",)],
    ], ids=["0_ops", "2_ops", "5_ops"])
    def test_one_gram_contraction_per_call(self, monkeypatch, ops):
        # a call contracts only the final row norms
        calls = Counter()
        gram = states._gram

        def counted_gram(*args):
            calls["gram"] += 1
            return gram(*args)

        for module in [m for name, m in sys.modules.items() if name.startswith("subplanck")]:
            for name, value in list(vars(module).items()):
                if value is gram:
                    monkeypatch.setattr(module, name, counted_gram)
        generic_strategy(ops, displacement(0.1), ALPHA)
        assert calls["gram"] == 1

    @pytest.mark.parametrize("level", ["e", "g"])
    @pytest.mark.parametrize("phase", [0.0, 0.3, np.pi / 2], ids=["real", "phase_0.3", "imaginary"])
    @pytest.mark.parametrize("radius", [10.0, 1e2, 1e3, 1e4, 1e5])
    def test_large_amplitude_returns_the_fringe_or_raises(self, radius, phase, level):
        # at large |alpha| the Gram exponents lose absolute precision, so the
        # engine may raise ValueError; a returned P_e must still follow
        # [1 +- e^{-2 s^2} cos(4 |alpha| s)]/2, + from |e> and - from |g>
        s, alpha = 0.1, radius * np.exp(1j * phase)
        try:
            res = generic_strategy(dispersive_sequence(alpha), displacement(s), alpha, initial_level=level)
        except ValueError:
            return
        sign = 1.0 if level == "e" else -1.0
        assert abs(res.p_e - 0.5 * (1 + sign * np.exp(-2 * s**2) * np.cos(4 * radius * s))) <= 1e-8

    def test_sigma_z_and_rotation_sequence(self):
        res = generic_strategy([("sigma_z",), ("rotate", 0.3)], displacement(0.0, phi=0.0), 1.5)
        assert res.p_e == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_fock_oracle_on_entangling_sequences(self, seed):
        # the oracle evolves a truncated joint Fock vector
        ops, pert, alpha = _entangling_call(seed)
        for level in ("e", "g"):
            res = generic_strategy(ops, pert, alpha, initial_level=level)
            assert res.p_e == pytest.approx(generic_strategy_fock(ops, pert, alpha, level), abs=1e-9)

    def test_non_finite_amplitude_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            generic_strategy([], displacement(0.1), complex(np.nan, 1.0))

    def test_empty_descriptor_and_bad_level_rejected(self):
        with pytest.raises(ValueError):
            generic_strategy([()], displacement(0.1), ALPHA)
        with pytest.raises(ValueError):
            generic_strategy([("pi_half",)], displacement(0.1), ALPHA, initial_level="x")

    def test_descriptors_are_read_once(self):
        # U^dag walks the descriptors U read, so an iterator or a generator
        # works, and list-form ops are the same descriptors as tuples
        seq = dispersive_sequence(ALPHA, rotation=True)
        pert = PerturbationSpec("rotation", 1e-3)
        expected = _result_bits(generic_strategy(seq, pert, ALPHA))
        for form in (iter(seq), (op for op in seq), tuple(seq), [list(op) for op in seq]):
            assert _result_bits(generic_strategy(form, pert, ALPHA)) == expected

    @pytest.mark.parametrize("op", [
        ("displace",), ("rotate",), ("pi_half", 3), ("sigma_z", None), ("conditional_phase", 0.0),
        ("displace", 1.0, 2.0), ("rotate", np.nan), ("rotate", np.inf), ("rotate", 1j),
        ("displace", complex(np.inf, 0.0)), ("displace", "1"), ("displace", [1.0, 2.0]), (), ("hadamard",),
    ])
    def test_malformed_descriptor_is_one_value_error(self, monkeypatch, op):
        # one ValueError that names the descriptor, raised before any step
        # runs, though a valid step comes first; a numpy warning would fail
        # the test as an error
        steps = Counter()
        apply_op = protocol._apply_op

        def counted(*args, **kwargs):
            steps["op"] += 1
            return apply_op(*args, **kwargs)

        monkeypatch.setattr(protocol, "_apply_op", counted)
        with pytest.raises(ValueError, match=re.escape(repr(op))):
            generic_strategy([("pi_half",), op], displacement(0.1), ALPHA)
        assert steps["op"] == 0

    @pytest.mark.parametrize("variants, start", [
        ([[("displace", 0.0)], [("displace", -0.0)]], complex(-0.0, -0.0)),
        ([[("pi_half",), ("conditional_phase",), ("displace", 1.0), ("rotate", v)]
          for v in (1, 1.0, np.float64(1.0), np.array(1.0))], 2.0),
    ], ids=["signed_zero", "rotate_types"])
    def test_interleaved_calls_return_the_isolated_bits(self, variants, start):
        # 0.0 == -0.0 and 1 == 1.0, yet each descriptor gives its own bits
        # when calls on its equal-comparing variants come between, so no
        # cache keyed by == may merge them; a 0-d array parameter works
        pert = displacement(0.1, phi=0.3)
        isolated = [_result_bits(generic_strategy(ops, pert, start)) for ops in variants]
        for ops, bits in [*zip(variants, isolated), *zip(variants[::-1], isolated[::-1])]:
            assert _result_bits(generic_strategy(ops, pert, start)) == bits
        if len(variants) == 2:  # the signed zero reaches the prepared amplitudes, though not the result's
            prepared = [protocol._prepare(tuple(ops), start, "e")[1].tobytes() for ops in variants]
            assert prepared[0] != prepared[1]

    @pytest.mark.parametrize("ops, alpha", [
        ([("displace", 4e3)], ALPHA),
        (dispersive_sequence(3e3, rotation=True), 3e3),
    ], ids=["displace_4e3", "rotation_sequence_3e3"])
    def test_past_ceiling_preparation_raises_on_every_call(self, ops, alpha):
        # U leaves amplitudes past the ceiling, though U^dag brings them back
        for _ in range(2):
            with pytest.raises(ValueError, match="exceed"):
                generic_strategy(ops, displacement(0.1), alpha)


def _entangling_call(seed: int) -> tuple:
    """(ops, pert, alpha) of seeded entangling sequence `seed`: a pi_half
    ahead of a conditional_phase entangles the branches in either initial
    level; rotations on odd seeds, displacements on even, direction explicit."""
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
    return ops, PerturbationSpec(kind, float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.0, 2 * np.pi))), alpha


def _result_bits(res: ProtocolResult) -> tuple:
    """The bytes of a result's arrays and populations."""
    return res.weights.tobytes(), res.amplitudes.tobytes(), np.float64(res.p_e).tobytes(), np.float64(res.p_g).tobytes()


def _random_calls(seed=2026, n=300):
    """(ops, pert, alpha, level) of n seeded calls: alpha ~ N(0, 2) per axis;
    every third sequence is <= 2 random ops, pi_half, <= 2, conditional_phase,
    <= 2, which entangles; the rest <= 6 random ops (displace N(0, 1) per
    axis, rotate N(0, 0.7)); kinds alternate, magnitude U(0, 0.4), direction
    None every fifth call, else U(0, 2 pi); levels alternate in pairs."""
    rng = np.random.default_rng(seed)
    names = ["pi_half", "conditional_phase", "sigma_z", "displace", "rotate"]

    def op(name):
        if name == "displace":
            return (name, complex(*rng.normal(0, 1, 2)))
        return (name, float(rng.normal(0, 0.7))) if name == "rotate" else (name,)

    def some(k):
        return [op(names[rng.integers(0, 5)]) for _ in range(rng.integers(0, k + 1))]

    calls = []
    for i in range(n):
        alpha = complex(*rng.normal(0, 2, 2))
        ops = some(2) + [("pi_half",)] + some(2) + [("conditional_phase",)] + some(2) if i % 3 == 0 else some(6)
        direction = None if i % 5 == 0 else float(rng.uniform(0, 2 * np.pi))
        pert = PerturbationSpec("rotation" if i % 2 else "displacement", float(rng.uniform(0, 0.4)), direction)
        calls.append((ops, pert, alpha, "eg"[(i // 2) % 2]))
    return calls


def _pert_op(pert: PerturbationSpec) -> tuple:
    """The descriptor of an explicit-direction perturbation, with the double
    beta or theta the engine forms."""
    if pert.kind == "rotation":
        return ("rotate", pert.magnitude)
    return ("displace", pert.magnitude * np.exp(1j * pert.direction))


class TestAgainstMpOracle:
    """P_e within 1e-8 of the 50-digit engine in `tests/mp_oracles.py`, up to
    the amplitude ceiling."""

    @pytest.mark.parametrize("level", ["e", "g"])
    @pytest.mark.parametrize("radius", [4.0, 30.0, 300.0, 3e3])
    @pytest.mark.parametrize("kind", ["displacement", "rotation"])
    def test_dispersive_sequences(self, kind, radius, level):
        rng = np.random.default_rng([int(radius), int(kind == "rotation"), int(level == "g")])
        alpha = radius * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        ops = dispersive_sequence(alpha, rotation=kind == "rotation")
        for s in [0.0, *rng.uniform(0.0, 0.3, 3)]:
            pert = PerturbationSpec(kind, float(s), float(np.angle(alpha)) + np.pi / 2)
            if kind == "rotation" and 2 * radius > states._AMPLITUDE_CEILING:
                with pytest.raises(ValueError, match="exceed"):
                    generic_strategy(ops, pert, alpha, level)
                continue
            p_e = generic_strategy(ops, pert, alpha, level).p_e
            assert abs(p_e - joint_p_e(ops, _pert_op(pert), alpha, level)) <= 1e-8

    @pytest.mark.parametrize("seed", range(8))
    def test_entangling_sequences(self, seed):
        ops, pert, alpha = _entangling_call(seed)
        for level in ("e", "g"):
            p_e = generic_strategy(ops, pert, alpha, level).p_e
            assert abs(p_e - joint_p_e(ops, _pert_op(pert), alpha, level)) <= 1e-8


class TestJCNumeric:
    def test_zero_time_identity(self):
        psi = to_fock(coherent_state(0), 6)
        out = jc_numeric_evolve(psi, (1.0, 0.0), JCParams(1.0, 0.0, 0.0, 0.0))
        assert abs(out[0, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_rabi_flop(self):
        psi = to_fock(coherent_state(0), 6)
        out = jc_numeric_evolve(psi, (1.0, 0.0), JCParams(1.0, 0.0, 0.0, np.pi))
        assert abs(out[1, 1]) ** 2 >= 1.0 - 1e-6

    def test_half_flop_populations(self):
        out = jc_numeric_evolve(to_fock(coherent_state(0), 6), (1.0, 0.0), JCParams(1.0, 0.0, 0.0, np.pi / 2))
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
