import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subplanck.estimation import (
    estimate_displacement,
    estimator_calibration,
    feasibility,
    run_trials,
    simulate_readout,
    theory_sigma,
)
from subplanck.protocol import dispersive_protocol, resonant_protocol
from subplanck.metrology import PerturbationSpec


class TestSimulateReadout:
    def test_degenerate_probabilities(self):
        for seed in [0, 1, 99]:
            assert simulate_readout(0.0, 500, seed) == 0
            assert simulate_readout(1.0, 500, seed) == 500

    def test_reproducible(self):
        a = simulate_readout(0.37, 20_000, 123456)
        b = simulate_readout(0.37, 20_000, 123456)
        assert a == b

    def test_three_sigma_band_over_seeds(self):
        # binomial std at p = 1/2, R = 1e4 is 0.005; ~99.7% of seeds stay
        # inside +-3 sigma
        inside = sum(
            0.485 <= simulate_readout(0.5, 10_000, seed) / 10_000 <= 0.515
            for seed in range(200)
        )
        assert inside >= 194

    def test_normal_approximation_regime(self):
        r = simulate_readout(0.25, 2_000_000, 7)
        assert abs(r / 2_000_000 - 0.25) < 0.002

    def test_input_validation(self):
        with pytest.raises(ValueError):
            simulate_readout(1.5, 10, 0)
        with pytest.raises(ValueError):
            simulate_readout(0.5, 0, 0)

    def test_int_seed_draws_the_seed_sequence_pcg64_stream(self):
        for seed in (0, 7, 2**40 + 3):
            ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
            assert simulate_readout(0.37, 20_000, seed) == ref.binomial(20_000, 0.37)

    @pytest.mark.parametrize("convention, protocol", [("dispersive", dispersive_protocol), ("resonant", resonant_protocol)])
    def test_spawned_children_reproduce_run_trials(self, convention, protocol):
        # run_trials draws trial i with simulate_readout from child i of the
        # master SeedSequence, so one child replays one trial
        alpha, true_s, repetitions, n = 2 - 3j, 0.05, 4000, 12
        counts = run_trials(true_s, alpha, repetitions, n, 321, convention)
        p_e = protocol(alpha, PerturbationSpec("displacement", true_s)).p_e
        children = np.random.SeedSequence(321).spawn(n)
        assert [simulate_readout(p_e, repetitions, child) for child in children] == counts.tolist()


class TestEstimateDisplacement:
    def test_zero_count_gives_zero(self):
        assert estimate_displacement(0, 100, 4.0).tolist() == [0.0]

    def test_half_count_quarter_fringe(self):
        assert estimate_displacement(5000, 10_000, 4.0)[0] == pytest.approx(np.pi / 32, abs=1e-15)

    def test_quoted_sigma(self):
        assert theory_sigma(100, 4.0) == pytest.approx(0.003125)

    def test_resonant_convention(self):
        # resonant fringe starts bright: r = R inverts to s = 0
        estimates = estimate_displacement([100, 0], 100, 4.0, convention="resonant")
        assert estimates[0] == 0.0
        assert estimates[1] == pytest.approx(np.pi / 16)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            estimate_displacement(11, 10, 4.0)
        with pytest.raises(ValueError):
            estimate_displacement([5, -1], 10, 4.0)

    @pytest.mark.parametrize("alpha_mag", [0.0, -4.0, np.nan, np.inf])
    def test_alpha_mag_must_be_positive_and_finite(self, alpha_mag):
        with pytest.raises(ValueError, match="alpha_mag"):
            estimate_displacement([3], 10, alpha_mag)

    @pytest.mark.parametrize("convention", ["dispersive", "resonant"])
    def test_one_libm_arccos_per_count(self, convention):
        # numpy's arccos differs from libm's in the last bit on some ratios,
        # so each estimate must equal the scalar math.acos inversion exactly
        repetitions, alpha_mag = 10_000, 4.0
        expected = []
        for r in range(repetitions + 1):
            xi = r / repetitions
            arg = 1.0 - 2.0 * xi if convention == "dispersive" else 2.0 * xi - 1.0
            expected.append(math.acos(min(max(arg, -1.0), 1.0)) / (4.0 * alpha_mag))
        estimates = estimate_displacement(np.arange(repetitions + 1), repetitions, alpha_mag, convention)
        np.testing.assert_array_equal(estimates, expected)

    @given(
        st.floats(min_value=0.15, max_value=0.85),
        st.floats(min_value=2.0, max_value=6.0),
        st.integers(min_value=100, max_value=20_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_within_quantization(self, branch_pos, alpha_mag, repetitions):
        s = branch_pos * np.pi / (4 * alpha_mag)
        p_e = dispersive_protocol(1j * alpha_mag, PerturbationSpec("displacement", s)).p_e
        r = round(repetitions * p_e)
        estimate = estimate_displacement(r, repetitions, alpha_mag)[0]
        assert abs(estimate - s) <= np.pi / (4 * alpha_mag * repetitions)


class TestCalibration:
    def test_midfringe_sigma_matches_binomial_propagation(self):
        # the sampling width of the arccos estimator is sigma_p / |dp/ds|
        # = 1/(4 |alpha| sqrt(R)) at every interior point; the quoted
        # theory_sigma = 1/(8 sqrt(R nbar)) sits a factor 2 below it (at
        # the Cramer-Rao bound no estimator can reach it)
        repetitions, alpha = 10_000, 4j
        bias, sigma = estimator_calibration(np.pi / 32, alpha, repetitions, 1000, seed=2024)
        expected = 1.0 / (4 * 4.0 * np.sqrt(repetitions))
        assert sigma == pytest.approx(expected, rel=0.10)
        assert abs(bias) < 3 * expected / np.sqrt(1000)

    def test_quadrupling_repetitions_halves_sigma(self):
        _, s1 = estimator_calibration(np.pi / 32, 4j, 1000, 800, seed=11)
        _, s4 = estimator_calibration(np.pi / 32, 4j, 4000, 800, seed=12)
        assert s1 / s4 == pytest.approx(2.0, rel=0.10)

    def test_heisenberg_scaling_exponent(self):
        sigmas = []
        nbars = [4.0, 16.0, 64.0]
        for i, nbar in enumerate(nbars):
            a = np.sqrt(nbar)
            _, sig = estimator_calibration(np.pi / (8 * a), 1j * a, 10_000, 400, seed=100 + i)
            sigmas.append(sig)
        exponent = np.polyfit(np.log(nbars), np.log(sigmas), 1)[0]
        assert exponent == pytest.approx(-0.5, abs=0.1)

    def test_boundary_true_s_rejected(self):
        with pytest.raises(ValueError):
            estimator_calibration(0.0, 4j, 100, 10, seed=0)
        with pytest.raises(ValueError):
            estimator_calibration(np.pi / 16, 4j, 100, 10, seed=0)

    def test_single_trial_has_no_spread(self):
        # one trial has no sample standard deviation (it was a NaN)
        with pytest.raises(ValueError, match="n_trials"):
            estimator_calibration(0.05, 4j, 1000, 1, 3)

    def test_trials_deterministic_and_order_independent(self):
        a = run_trials(np.pi / 32, 4j, 1000, 32, seed=555)
        b = run_trials(np.pi / 32, 4j, 1000, 32, seed=555)
        np.testing.assert_array_equal(a, b)
        # sub-seeds are spawned per trial, so a shorter run is a prefix
        c = run_trials(np.pi / 32, 4j, 1000, 8, seed=555)
        np.testing.assert_array_equal(a[:8], c)

    @pytest.mark.parametrize("true_s", [5.0, np.pi / 16 + 1e-9, -1e-3, np.nan])
    def test_trials_reject_s_off_the_principal_branch(self, true_s):
        # beyond pi/(4|alpha|) the arccos inversion would alias the shift
        with pytest.raises(ValueError, match="principal branch"):
            run_trials(true_s, 4j, 1000, 4, seed=1)

    def test_trials_reject_infinite_s_where_the_branch_overflows(self):
        # pi/(4|alpha|) overflows for a subnormal |alpha|, so an infinite
        # true_s passed the branch test and reached the fringe's exp
        with pytest.raises(ValueError, match="finite"):
            run_trials(math.inf, 1e-320, 100, 2, seed=1)

    def test_trials_reject_unknown_convention(self):
        # a misspelt convention must not fall through to the resonant fringe
        with pytest.raises(ValueError, match="convention"):
            run_trials(0.05, 4j, 100, 2, seed=1, convention="resonnant")

    def test_trials_accept_both_branch_ends(self):
        assert run_trials(0.0, 4j, 100, 2, seed=1).shape == (2,)
        assert run_trials(np.pi / 16, 4j, 100, 2, seed=1).shape == (2,)


class TestFeasibility:
    def test_cavity_reference_numbers(self):
        rep = feasibility(3e5, 20.0, 15e-3, regime="cavity")
        assert 1.87e-3 <= rep.decoherence_threshold <= 1.90e-3
        assert rep.ratio == pytest.approx(8.007, abs=0.01)
        assert rep.verdict is False  # 8x margin misses the 10x bar

    def test_ion_reference_numbers(self):
        omega0 = 2 * np.pi / 140e-6
        rep = feasibility(omega0, 20.0, 5e-3, regime="ion")
        assert 0.60e-3 <= rep.interaction_time <= 0.63e-3
        assert rep.decoherence_threshold == pytest.approx(rep.interaction_time)
        reply = feasibility(omega0, 20.0, 10e-3, regime="ion")
        assert reply.verdict is True

    def test_unit_nbar_thresholds_coincide(self):
        cav = feasibility(1e5, 1.0, 1e-2, regime="cavity")
        ion = feasibility(1e5, 1.0, 1e-2, regime="ion")
        assert cav.decoherence_threshold == pytest.approx(ion.decoherence_threshold)
        assert cav.decoherence_threshold == pytest.approx(cav.interaction_time)

    def test_validation(self):
        with pytest.raises(ValueError):
            feasibility(-1.0, 20.0, 1e-3)
        with pytest.raises(ValueError):
            feasibility(1e5, 20.0, 1e-3, regime="atom")

    @pytest.mark.parametrize("inputs", [(1e-320, 1.0, 1.0), (1.0, 1e308, 1e308), (1e300, 1.0, 1e300), (1e308, 1e-300, 1.0)],
                             ids=["time_overflows", "threshold_overflows", "ratio_overflows", "time_underflows"])
    def test_non_finite_results_rejected(self, inputs):
        # finite inputs whose interaction time, threshold or ratio leave the doubles
        with pytest.raises(FloatingPointError):
            feasibility(*inputs)

    @pytest.mark.parametrize("inputs", [(np.nan, 20.0, 1e-3), (1e5, np.inf, 1e-3), (1e5, 20.0, np.nan), (np.inf, 20.0, 1e-3)])
    def test_non_finite_inputs_rejected(self, inputs):
        # NaN passes a `<= 0` test, so each input must be checked as finite too
        with pytest.raises(ValueError, match="positive and finite"):
            feasibility(*inputs)
