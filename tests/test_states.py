import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subplanck.states import (
    CoherentSuperposition,
    coherent_state,
    default_n_trunc,
    displace,
    fidelity,
    inner_product,
    make_circular_state,
    mean_excitation,
    rotate,
    to_fock,
    vacuum,
)

from oracles import fock_inner, fock_mean_n

# small |alpha| so the Fock oracle stays cheap inside hypothesis loops
amplitudes = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
angles = st.floats(min_value=-np.pi, max_value=np.pi)
CLI_MS = (1, 2, 3, 4, 6, 8, 16)


@st.composite
def circular_states(draw, ms=(1, 2, 3, 4, 6), max_radius=3.0):
    m = draw(st.sampled_from(ms))
    radius = draw(st.floats(min_value=0.2, max_value=max_radius))
    phase = draw(angles)
    gammas = draw(st.lists(angles, min_size=m, max_size=m))
    return make_circular_state(radius * np.exp(1j * phase), m, gammas)


class TestConstruction:
    def test_single_component_is_coherent(self):
        s = make_circular_state(3.0, 1, [0.0])
        assert s.n_terms == 1
        assert s.amplitudes[0] == pytest.approx(3.0)
        assert s.norm() == pytest.approx(1.0, abs=1e-12)

    def test_cat_amplitudes(self):
        s = make_circular_state(4j, 2, [0.0, 0.0])
        assert sorted(np.round(s.amplitudes, 10), key=lambda z: z.imag) == [-4j, 4j]

    def test_compass_amplitudes(self):
        s = make_circular_state(4j, 4, [0.0, 0.0, 0.0, 0.0])
        got = set(np.round(s.amplitudes, 10))
        assert got == {4.0 + 0j, -4.0 + 0j, 4j, -4j}

    def test_gamma_length_mismatch(self):
        with pytest.raises(ValueError):
            make_circular_state(2.0, 3, [0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_gamma_rejected(self, bad):
        # refused before np.exp, which would warn on it
        with pytest.raises(ValueError, match="finite"):
            make_circular_state(2.0, 2, [0.0, bad])

    def test_small_radius_normalization_uses_gram(self):
        # at |alpha| = 0.3 the 1/sqrt(M) prefactor would be badly wrong
        s = make_circular_state(0.3, 2, [0.0, 0.0])
        assert s.norm() == pytest.approx(1.0, abs=1e-12)
        assert abs(s.weights[0]) * np.sqrt(2.0) != pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize(
        "gammas", [[0.0, np.pi] * 8, [0.0, np.pi / 2, np.pi, -np.pi / 2] * 4], ids=["alternating", "quarter_turns"]
    )
    def test_norm_lost_to_cancellation_raises(self, gammas):
        # at radius 0.2 the 16 components overlap so heavily that the Gram
        # norm^2 (~5e-14 or 0) is below the rounding error of its 256 terms;
        # its Fock expansion disagreed with the Gram norm by 16 %
        with pytest.raises(ValueError, match="cancellation"):
            make_circular_state(0.2, 16, gammas)

    @pytest.mark.parametrize("radius, j", [(1.5, 3), (1.0, 7)], ids=["j3_r1.5", "j7_r1.0"])
    def test_structured_phases_that_keep_their_norm_normalize(self, radius, j):
        # gamma_k = 2 pi j k / 16 cancels part of the Gram sum, but its norm^2
        # stays accurate (to ~1e-11 against the Fock expansion); the rounding
        # estimate is ~1e-10 of the norm^2, well inside the 1e-8 threshold
        gammas = 2.0 * np.pi * j * np.arange(1, 17) / 16
        state = make_circular_state(radius, 16, gammas)
        fock = to_fock(state, 120).coefficients
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert np.sum(np.abs(fock) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            CoherentSuperposition([], [])
        with pytest.raises(ValueError):
            CoherentSuperposition([1.0], [1.0, 2.0])


class TestDisplace:
    def test_vacuum_displacement(self):
        d = displace(vacuum(), 1.5 - 0.5j)
        assert d.weights[0] == pytest.approx(1.0)
        assert d.amplitudes[0] == pytest.approx(1.5 - 0.5j)

    def test_return_to_origin_has_no_phase(self):
        alpha = 2.0 + 1.0j
        back = displace(coherent_state(alpha), -alpha)
        assert inner_product(vacuum(), back) == pytest.approx(1.0, abs=1e-12)

    def test_displaced_cat_overlap_frozen_value(self):
        # frozen from the Fock oracle; the quoted fringe formula
        # (1 + cos 1.6)/2 = 0.48540 agrees only to ~5e-3 because it drops
        # the exact Gaussian envelope e^{-s^2}
        cat = make_circular_state(4j, 2, [0.0, 0.0])
        shifted = displace(cat, 0.1j * 4j / 4.0)
        val = fidelity(cat, shifted)
        assert val == pytest.approx(0.48057042577461395, abs=1e-12)
        assert val == pytest.approx((1 + np.cos(1.6)) / 2, abs=5e-3)


class TestRotate:
    def test_identity(self):
        s = make_circular_state(2.0 + 1j, 3, [0.1, 0.2, 0.3])
        assert fidelity(s, rotate(s, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_half_turn(self):
        r = rotate(coherent_state(2.0), np.pi)
        assert r.amplitudes[0] == pytest.approx(-2.0)

    def test_rotated_displaced_cat_quasi_orthogonal(self):
        cat = make_circular_state(4j, 2, [0.0, 0.0])
        shifted = displace(cat, 4j)
        assert fidelity(shifted, rotate(shifted, np.pi / 64)) < 0.02


class TestInnerProduct:
    def test_self_overlap(self):
        assert inner_product(coherent_state(1 + 2j), coherent_state(1 + 2j)) == pytest.approx(1.0)

    def test_vacuum_overlap(self):
        alpha = 1.3 - 0.4j
        expected = np.exp(-abs(alpha) ** 2 / 2)
        assert inner_product(vacuum(), coherent_state(alpha)) == pytest.approx(expected, abs=1e-14)

    def test_cat_quasi_orthogonality_point(self):
        cat = make_circular_state(4j, 2, [0.0, 0.0])
        shifted = displace(cat, (np.pi / 16) * 1j * 4j / 4.0)
        assert fidelity(cat, shifted) < 1e-10


class TestFock:
    def test_vacuum_vector(self):
        f = to_fock(vacuum(), 4)
        np.testing.assert_allclose(f.coefficients, [1, 0, 0, 0], atol=1e-15)

    def test_unit_coherent_coefficients(self):
        f = to_fock(coherent_state(1.0), 32)
        assert f.coefficients[0] == pytest.approx(np.exp(-0.5), abs=1e-14)
        assert f.coefficients[1] == pytest.approx(np.exp(-0.5), abs=1e-14)

    def test_even_cat_parity(self):
        f = to_fock(make_circular_state(2.0, 2, [0.0, 0.0]))
        assert np.max(np.abs(f.coefficients[1::2])) < 1e-14

    def test_default_truncation_leakage(self):
        for alpha in [0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 40.0]:
            f = to_fock(coherent_state(alpha))
            assert f.dimension == default_n_trunc(alpha)
            assert 0.0 <= f.leakage < 1e-10

    def test_everything_finite_at_large_amplitude(self):
        f = to_fock(coherent_state(5.0 + 5.0j))
        assert np.all(np.isfinite(f.coefficients))

    def test_invalid_truncation(self):
        with pytest.raises(ValueError):
            to_fock(vacuum(), 0)


class TestMeanExcitation:
    def test_coherent(self):
        assert mean_excitation(coherent_state(3.0)) == pytest.approx(9.0, abs=1e-12)

    def test_large_cat(self):
        cat = make_circular_state(4j, 2, [0.0, 0.0])
        assert mean_excitation(cat) == pytest.approx(16.0, abs=1e-10)

    def test_small_cat_differs_from_radius_squared(self):
        cat = make_circular_state(0.5, 2, [0.0, 0.0])
        val = mean_excitation(cat)
        assert val == pytest.approx(fock_mean_n(to_fock(cat, 40)), abs=1e-12)
        assert abs(val - 0.25) > 0.15


class TestProperties:
    @given(circular_states(), amplitudes, angles)
    @settings(max_examples=60, deadline=None)
    def test_unitarity(self, state, beta, theta):
        assert displace(state, beta).norm() == pytest.approx(1.0, abs=1e-12)
        assert rotate(state, theta).norm() == pytest.approx(1.0, abs=1e-12)

    @given(circular_states(), amplitudes, amplitudes)
    @settings(max_examples=60, deadline=None)
    def test_displacement_composition_up_to_global_phase(self, state, b1, b2):
        probe = coherent_state(0.5 + 0.5j)
        two_step = displace(displace(state, b1), b2)
        one_step = displace(state, b1 + b2)
        lhs = abs(inner_product(probe, two_step))
        rhs = abs(inner_product(probe, one_step))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    # the CLI's range: one Fock expansion stays cheap up to radius 40, M = 16
    @given(circular_states(CLI_MS, 40.0), circular_states(CLI_MS, 40.0))
    @settings(max_examples=30, deadline=None)
    def test_fock_oracle_agreement(self, a, b):
        dim = default_n_trunc(max(a.max_amplitude, b.max_amplitude))
        exact = inner_product(a, b)
        numeric = fock_inner(to_fock(a, dim), to_fock(b, dim))
        assert abs(exact - numeric) < 1e-8

    def test_fock_oracle_agreement_at_radius_five(self):
        a = make_circular_state(5.0, 4, np.zeros(4))
        b = displace(a, 0.3 + 0.2j)
        numeric = fock_inner(to_fock(a), to_fock(b))
        assert abs(inner_product(a, b) - numeric) < 1e-8

    @given(st.floats(min_value=1.0, max_value=4.0), angles)
    @settings(max_examples=30, deadline=None)
    def test_rotation_displacement_identity(self, radius, phase):
        # a rotation of the displaced circle is a displacement i theta alpha
        alpha = radius * np.exp(1j * phase)
        theta = 0.01 / radius
        shifted = displace(make_circular_state(alpha, 2, [0.0, 0.0]), alpha)
        rotated = rotate(shifted, theta)
        translated = displace(shifted, 1j * theta * alpha)
        assert fidelity(rotated, translated) >= 0.999
