import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from subplanck import estimation
from subplanck.estimation import (
    estimate_displacement,
    estimator_calibration,
    feasibility,
    run_trials,
    theory_sigma,
)
from subplanck.protocol import dispersive_protocol, resonant_protocol
from subplanck.metrology import PerturbationSpec


MID_S = np.pi / 32  # mid-fringe at |alpha| = 4: p_e = 1/2 in the dispersive convention


class TestRunTrials:
    @pytest.mark.parametrize("convention, ends", [("dispersive", (0, 500)), ("resonant", (500, 0))])
    def test_degenerate_probabilities_at_the_branch_ends(self, convention, ends):
        # p_e is 0 or 1 at s = 0 and at pi/(4|alpha|), so every count is 0 or R
        for seed in [0, 1, 99]:
            assert run_trials(0.0, 4j, 500, 8, seed, convention).tolist() == [ends[0]] * 8
            assert run_trials(np.pi / 16, 4j, 500, 8, seed, convention).tolist() == [ends[1]] * 8

    def test_reproducible(self):
        a = run_trials(0.05, 3 + 1j, 20_000, 64, 123456)
        b = run_trials(0.05, 3 + 1j, 20_000, 64, 123456)
        np.testing.assert_array_equal(a, b)
        assert a.dtype == np.int64

    def test_three_sigma_band_over_seeds(self):
        # binomial std at p = 1/2, R = 1e4 is 0.005; ~99.7% of seeds stay
        # inside +-3 sigma
        inside = sum(
            0.485 <= run_trials(MID_S, 4j, 10_000, 1, seed)[0] / 10_000 <= 0.515
            for seed in range(200)
        )
        assert inside >= 194

    def test_normal_approximation_regime(self):
        # p_e = 1/4 at s = pi/48 and |alpha| = 4
        counts = run_trials(np.pi / 48, 4j, 2_000_000, 4, 7)
        assert np.all(np.abs(counts / 2_000_000 - 0.25) < 0.002)

    @pytest.mark.parametrize("args", [(0.05, 4j, 0, 4, 0), (0.05, 4j, 100, 0, 0), (0.05, 4j, 100, 4, 0, "resonnant")],
                             ids=["zero_repetitions", "zero_trials", "convention"])
    def test_input_validation(self, args):
        with pytest.raises(ValueError):
            run_trials(*args)

    def test_probability_outside_the_unit_interval_rejected(self, monkeypatch):
        # the fringe weight's modulus must not pass 1, or binomial would draw nonsense
        monkeypatch.setattr(estimation, "_fringe_weights", lambda *args: np.array([1.5]))
        with pytest.raises(ValueError, match="p_e must lie in"):
            run_trials(0.05, 4j, 100, 4, 0)

    @pytest.mark.parametrize("convention, protocol", [("dispersive", dispersive_protocol), ("resonant", resonant_protocol)])
    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5, 2**200 + 3],
                             ids=["0", "7", "2^32-1", "2^32", "2^40+3", "2^64+5", "2^200+3"])
    def test_int_seed_draws_the_seed_sequence_pcg64_stream(self, seed, convention, protocol):
        # seeds of one, two, three and seven 32-bit words
        alpha, true_s, repetitions, n = 2 - 3j, 0.05, 20_000, 12
        p_e = protocol(alpha, PerturbationSpec("displacement", true_s)).p_e
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        expected = ref.binomial(repetitions, p_e, size=n)
        np.testing.assert_array_equal(run_trials(true_s, alpha, repetitions, n, seed, convention), expected)

    @pytest.mark.parametrize("seed", [[1, 2, 3], [7, 2**32 + 1, 0, 5]], ids=["list3", "list_5_words"])
    def test_int_list_seed_draws_the_seed_sequence_pcg64_stream(self, seed):
        # a 5-word list overflows SeedSequence's 4-word pool
        p_e = dispersive_protocol(4j, PerturbationSpec("displacement", MID_S)).p_e
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        np.testing.assert_array_equal(run_trials(MID_S, 4j, 1000, 20, seed), ref.binomial(1000, p_e, size=20))

    @given(st.integers(min_value=0, max_value=2**256 - 1), st.integers(min_value=1, max_value=300),
           st.sampled_from(["dispersive", "resonant"]))
    @settings(max_examples=40, deadline=None)
    def test_counts_equal_one_sized_draw_of_the_seeded_stream(self, seed, n, convention):
        alpha, true_s, repetitions = 3 + 1j, 0.1, 5000
        protocol = dispersive_protocol if convention == "dispersive" else resonant_protocol
        p_e = protocol(alpha, PerturbationSpec("displacement", true_s)).p_e
        expected = np.random.default_rng(seed).binomial(repetitions, p_e, size=n)
        assert run_trials(true_s, alpha, repetitions, n, seed, convention).tolist() == expected.tolist()

    @given(st.integers(min_value=0, max_value=2**64), st.integers(min_value=1, max_value=200),
           st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_shorter_run_is_a_prefix_of_a_longer_one(self, seed, n_a, n_b):
        # one stream drawn in order: the first counts do not depend on how many follow
        short, long = sorted((n_a, n_b))
        a = run_trials(MID_S, 4j, 1000, short, seed)
        b = run_trials(MID_S, 4j, 1000, long, seed)
        np.testing.assert_array_equal(a, b[:short])

    def test_seed_sequence_seed_draws_the_same_stream_as_its_entropy(self):
        np.testing.assert_array_equal(run_trials(MID_S, 4j, 1000, 16, np.random.SeedSequence(2**40 + 3)),
                                      run_trials(MID_S, 4j, 1000, 16, 2**40 + 3))

    def test_generator_seed_continues_its_own_stream(self):
        # default_rng hands a Generator back as it is, so two runs on one
        # generator draw what one run of both lengths draws from its seed
        rng = np.random.default_rng(31)
        first = run_trials(MID_S, 4j, 1000, 5, rng)
        second = run_trials(MID_S, 4j, 1000, 11, rng)
        np.testing.assert_array_equal(np.concatenate([first, second]), run_trials(MID_S, 4j, 1000, 16, 31))

    def test_unseeded_run_draws_valid_counts(self):
        # seed None draws fresh OS entropy; the counts are still R-bounded int64
        counts = run_trials(MID_S, 4j, 1000, 64, None)
        assert counts.dtype == np.int64 and counts.shape == (64,)
        assert np.all((counts >= 0) & (counts <= 1000))

    def test_largest_repetition_count_draws_without_an_r_sized_array(self):
        # R = 2^63 - 1, the largest int64: each count is one exact draw, within
        # 6 binomial standard deviations of R p_e
        repetitions = 2**63 - 1
        p_e = dispersive_protocol(4j, PerturbationSpec("displacement", MID_S)).p_e
        counts = run_trials(MID_S, 4j, repetitions, 8, 5)
        assert counts.dtype == np.int64 and np.all((counts >= 0) & (counts <= repetitions))
        sd = math.sqrt(repetitions * p_e * (1 - p_e))
        assert np.all(np.abs(counts.astype(float) - repetitions * p_e) <= 6 * sd)

    def test_moments_match_the_binomial(self):
        # 1e5 trials at the mid-fringe p_e: the sample mean and variance each
        # lie within 4 standard errors of Binomial(R, p_e)'s
        repetitions, n = 10_000, 100_000
        p_e = dispersive_protocol(4j, PerturbationSpec("displacement", MID_S)).p_e
        counts = run_trials(MID_S, 4j, repetitions, n, 2024).astype(float)
        mean, var = repetitions * p_e, repetitions * p_e * (1 - p_e)
        # the variance's standard error: sqrt((mu4 - var^2 (n-3)/(n-1)) / n),
        # with the binomial's fourth central moment mu4 = 3 var^2 + var (1 - 6 p q)
        mu4 = 3 * var**2 + var * (1 - 6 * p_e * (1 - p_e))
        assert abs(counts.mean() - mean) <= 4 * math.sqrt(var / n)
        assert abs(counts.var(ddof=1) - var) <= 4 * math.sqrt((mu4 - var**2 * (n - 3) / (n - 1)) / n)

    @pytest.mark.parametrize("n", [16, 512])
    def test_one_generator_and_one_binomial_call_per_run(self, monkeypatch, n):
        # the n counts are one draw, never one generator or one draw per trial
        rngs, draws = [], []
        default_rng = np.random.default_rng

        class Counted:
            def __init__(self, generator):
                self.generator = generator

            def binomial(self, *args, **kwargs):
                draws.append(kwargs.get("size"))
                return self.generator.binomial(*args, **kwargs)

        def counted_rng(seed):
            rngs.append(seed)
            return Counted(default_rng(seed))

        monkeypatch.setattr(np.random, "default_rng", counted_rng)
        assert run_trials(0.05, 4j, 100, n, 9).shape == (n,)
        assert rngs == [9] and draws == [n]


class TestAlphaGuard:
    @pytest.mark.parametrize("true_s, alpha", [(0.05, 0j), (0.05, complex(math.nan, 1.0)), (0.0, math.inf), (0.05, 3e-309)],
                             ids=["zero", "nan", "inf", "branch_end_overflows"])
    @pytest.mark.parametrize("function", [run_trials, estimator_calibration], ids=lambda f: f.__name__)
    def test_alpha_must_be_nonzero_and_finite(self, function, true_s, alpha):
        # before the guard, 0 divided by zero, NaN met the branch test,
        # infinity reached the sampler as a NaN probability, and below about
        # 4.4e-309 the branch end pi/(4|alpha|) was infinite
        with pytest.raises(ValueError, match="alpha must be nonzero and finite"):
            function(true_s, alpha, 100, 3, 1)


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

    @given(st.lists(st.floats(min_value=-1e150, max_value=1e150, allow_subnormal=False), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_scaled_summary_keeps_numpy_bits(self, values):
        # scaling by a power of two is exact, so wherever the scaling loses
        # no bit and every nonzero squared deviation stays normal, before and
        # after it, the mean and the spread equal numpy's bit for bit
        estimates = np.array(values)
        k = math.frexp(float(np.max(np.abs(estimates))))[1]
        scaled = np.ldexp(estimates, -k)
        assume(np.array_equal(np.ldexp(scaled, k), estimates))
        for x in (estimates, scaled):
            with np.errstate(under="ignore"):
                deviations = x - x.mean()
                squares = deviations * deviations
            assume(np.all((deviations == 0) | (squares >= np.finfo(float).tiny)))
        mean, spread = estimation._mean_and_spread(estimates)
        assert mean == float(estimates.mean())
        assert spread == (float(estimates.std(ddof=1)) if estimates.size > 1 else 0.0)

    def test_spread_of_estimates_whose_squares_overflow(self):
        # numpy's std squares deviations of 1e200 and returns inf; deviations
        # of 7/3, 1/3 and -8/3 (in 1e200) give 114/9 over 2 degrees of freedom
        estimates = np.array([3e200, 1e200, -2e200])
        mean, spread = estimation._mean_and_spread(estimates)
        assert mean == pytest.approx(2e200 / 3, rel=1e-15)
        assert spread == pytest.approx(math.sqrt((49 + 1 + 64) / 18) * 1e200, rel=1e-15)

    def test_trials_deterministic_and_order_independent(self):
        a = run_trials(np.pi / 32, 4j, 1000, 32, seed=555)
        b = run_trials(np.pi / 32, 4j, 1000, 32, seed=555)
        np.testing.assert_array_equal(a, b)
        # the counts are one stream drawn in order, so a shorter run is a prefix
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

    def test_trials_reject_zero_repetitions_before_seeding(self, monkeypatch):
        # the repetitions check comes before any generator is seeded
        def default_rng(seed):
            raise AssertionError("default_rng ran before the repetitions check")

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        with pytest.raises(ValueError, match="repetitions must be >= 1"):
            run_trials(0.05, 4j, 0, 200_000, seed=0)

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
