import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subplanck.metrology import PerturbationSpec, locate_first_zero, overlap_sweep
from subplanck import metrology, states
from subplanck.states import displace, make_circular_state

from oracles import perturbed_overlap

angles = st.floats(min_value=-np.pi, max_value=np.pi)


def approx_at(m, alpha, spec):
    """The sweep's closed-form kernel at the one magnitude of `spec`."""
    mags = np.array([spec.magnitude])
    return float(metrology._approx_overlaps(m, alpha, spec.kind, spec.resolve_direction(alpha), mags)[0])


def exact_at(state, spec, alpha=None):
    """The sweep's exact kernel at the one magnitude of `spec`; `alpha` only
    resolves a None displacement direction."""
    mags = np.array([spec.magnitude])
    return float(metrology._exact_overlaps(state, spec.kind, spec.resolve_direction(alpha), mags)[0])


class TestPerturbationSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PerturbationSpec("squeeze", 0.1)
        with pytest.raises(ValueError):
            PerturbationSpec("displacement", -0.1)

    @pytest.mark.parametrize(
        "magnitude,direction",
        [(np.nan, None), (np.inf, None), (0.1, np.nan), (0.1, np.inf)],
        ids=["nan_magnitude", "inf_magnitude", "nan_direction", "inf_direction"],
    )
    @pytest.mark.parametrize("kind", ["displacement", "rotation"])
    def test_non_finite_inputs_rejected(self, kind, magnitude, direction):
        with pytest.raises(ValueError):
            PerturbationSpec(kind, magnitude, direction)

    def test_direction_resolution(self):
        p = PerturbationSpec("displacement", 0.1)
        assert p.resolve_direction(4j) == pytest.approx(np.pi / 2 + np.pi / 2)
        with pytest.raises(ValueError):
            p.resolve_direction()
        # a rotation has no direction, with or without a reference amplitude
        assert PerturbationSpec("rotation", 0.1, 0.3).resolve_direction(4j) is None
        assert PerturbationSpec("rotation", 0.1).resolve_direction() is None

    def test_regime_flags(self):
        assert metrology._in_regime("displacement", 0.1, 4.0)
        assert not metrology._in_regime("displacement", 0.5, 4.0)
        assert metrology._in_regime("rotation", 0.01, 4.0)
        assert not metrology._in_regime("rotation", 0.1, 4.0)


class TestApproxOverlap:
    def test_identity_perturbation(self):
        for m in (1, 2, 3, 4, 6):
            assert approx_at(m, 4j, PerturbationSpec("displacement", 0.0)) == pytest.approx(1.0)

    def test_cat_fringe_value(self):
        val = approx_at(2, 4j, PerturbationSpec("displacement", 0.1))
        assert val == pytest.approx((1 + np.cos(1.6)) / 2, abs=1e-12)
        assert val == pytest.approx(0.48540023884935557, abs=1e-12)

    def test_rotation_zero_at_heisenberg_angle(self):
        # theta = pi/(4 |alpha|^2) maps to s = pi/16, formally past the
        # validity flag, so the value comes back flagged but still exact
        assert not metrology._in_regime("rotation", np.pi / 64, 4.0)
        assert approx_at(2, 4j, PerturbationSpec("rotation", np.pi / 64)) == pytest.approx(0.0, abs=1e-12)

    def test_out_of_regime_still_computed(self):
        sweep = overlap_sweep(4j, 2, max_magnitude=0.5, n_points=2)
        assert not sweep.in_regime[-1]
        assert np.isfinite(sweep.approx[-1])


class TestExactOverlap:
    def test_identity(self):
        cat = make_circular_state(4j, 2, [0.0, 0.0])
        assert exact_at(cat, PerturbationSpec("displacement", 0.0), alpha=4j) == pytest.approx(1.0)

    def test_matches_approx_at_small_s(self):
        cat = make_circular_state(4j, 2, [0.0, 0.0])
        spec = PerturbationSpec("displacement", 0.1)
        exact = exact_at(cat, spec, alpha=4j)
        approx = approx_at(2, 4j, spec)
        assert abs(exact - approx) < 5e-3

    def test_minimal_sensitivity_along_alpha(self):
        cat = make_circular_state(4j, 2, [0.0, 0.0])
        s = 0.15
        spec = PerturbationSpec("displacement", s, direction=float(np.angle(4j)))
        val = exact_at(cat, spec)
        assert val >= 1.0 - 1.1 * s**2

    @given(
        st.sampled_from([2, 3, 4, 6]),
        st.floats(min_value=3.0, max_value=5.0),
        angles,
        angles,
        st.floats(min_value=0.0, max_value=0.2),
        angles,
    )
    @settings(max_examples=60, deadline=None)
    def test_agreement_band(self, m, radius, phase, direction, s, gamma0):
        alpha = radius * np.exp(1j * phase)
        gammas = np.full(m, gamma0)
        state = make_circular_state(alpha, m, gammas)
        spec = PerturbationSpec("displacement", s, direction=direction)
        exact = exact_at(state, spec, alpha=alpha)
        approx = approx_at(m, alpha, spec)
        assert abs(exact - approx) < 5e-3 + 10 * s**2

    def test_cosine_periodicity(self):
        period = np.pi / (2 * 4.0)
        for s in np.linspace(0.0, 0.15, 7):
            a = approx_at(2, 4j, PerturbationSpec("displacement", s))
            b = approx_at(2, 4j, PerturbationSpec("displacement", s + period))
            assert a == pytest.approx(b, abs=1e-12)

    def test_direction_extremes(self):
        alpha = 3.0 * np.exp(0.4j)
        cat = make_circular_state(alpha, 2, [0.0, 0.0])
        s = 0.05
        phis = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        vals = [exact_at(cat, PerturbationSpec("displacement", s, direction=float(p))) for p in phis]
        lo, hi = phis[int(np.argmin(vals))], phis[int(np.argmax(vals))]
        ref = np.angle(alpha) % np.pi

        def axis_distance(angle, target):
            return np.abs((angle - target + np.pi / 2) % np.pi - np.pi / 2)

        assert axis_distance(lo, (ref + np.pi / 2) % np.pi) < 2 * np.pi / 64 + 1e-9
        assert axis_distance(hi, ref) < 2 * np.pi / 64 + 1e-9

    @given(st.floats(min_value=2.0, max_value=5.0), angles)
    @settings(max_examples=30, deadline=None)
    def test_rotation_displacement_consistency(self, radius, phase):
        alpha = radius * np.exp(1j * phase)
        shifted = displace(make_circular_state(alpha, 2, [0.0, 0.0]), alpha)
        theta = 0.01 / radius
        rot = exact_at(shifted, PerturbationSpec("rotation", theta))
        beta = 1j * theta * alpha
        disp = exact_at(shifted, PerturbationSpec("displacement", abs(beta), direction=float(np.angle(beta))))
        assert abs(rot - disp) < 1e-3


class TestSweep:
    def test_endpoints_and_monotone_grid(self):
        sweep = overlap_sweep(4j, 2, n_points=32, max_magnitude=np.pi / 8)
        assert sweep.exact[0] == pytest.approx(1.0)
        assert sweep.approx[0] == pytest.approx(1.0)
        assert np.all(np.diff(sweep.magnitudes) > 0)

    def test_cat_first_zero(self):
        sweep = overlap_sweep(4j, 2, n_points=64, max_magnitude=np.pi / 8)
        assert sweep.first_fringe_zero() == pytest.approx(np.pi / 16, abs=1e-6)

    def test_compass_minimum_along_diagonal(self):
        zero = locate_first_zero(4j, 4, kind="displacement", direction=np.pi / 4, search_max=0.5)
        assert zero == pytest.approx(np.pi / (2 * np.sqrt(2) * 4), abs=1e-6)

    def test_rotation_sweep_zero(self):
        # the rotation fringe bottoms out near 1.4e-3 instead of touching
        # zero, so the Gaussian envelope skews the minimum by ~8e-5
        zero = locate_first_zero(4j, 2, kind="rotation", search_max=np.pi / 32)
        assert zero == pytest.approx(np.pi / 64, abs=2e-4)

    def test_regime_flags_in_table(self):
        sweep = overlap_sweep(4j, 2, n_points=16, max_magnitude=0.4)
        assert sweep.in_regime[0]
        assert not sweep.in_regime[-1]

    def test_rotation_target_past_the_gram_ceiling_raises(self):
        # a rotation sweep displaces its circle out to 2|alpha|: at |alpha| =
        # 2e3 the circle normalizes and sweeps, its displaced copy is refused
        assert overlap_sweep(2e3j, 2, n_points=2).exact[0] == pytest.approx(1.0, abs=1e-8)
        with pytest.raises(ValueError, match="amplitudes up to 4e\\+03 exceed .*Gram exponents"):
            overlap_sweep(2e3j, 2, kind="rotation", n_points=2)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            overlap_sweep(4j, 2, n_points=1)


class TestSweepKernel:
    @given(
        st.floats(min_value=0.5, max_value=40.0),
        angles,
        st.integers(min_value=1, max_value=16),
        st.sampled_from(["displacement", "rotation"]),
        st.one_of(st.none(), angles),
        st.lists(angles, min_size=16, max_size=16),
        st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_columns_match_per_point_paths(self, radius, phase, m, kind, phi, gammas, span):
        # the batched Gram stack against one moved state and one inner
        # product per magnitude
        alpha = radius * np.exp(1j * phase)
        scale = np.pi / (2.0 * radius) if kind == "displacement" else np.pi / (2.0 * radius**2)
        sweep = overlap_sweep(alpha, m, gammas[:m], kind, phi, span * scale, 17)
        for mag, exact in zip(sweep.magnitudes, sweep.exact):
            spec = PerturbationSpec(kind, float(mag), sweep.direction)
            assert abs(exact - perturbed_overlap(sweep.target, spec)) <= 1e-13

    @pytest.mark.parametrize("kind", ["displacement", "rotation"])
    def test_work_does_not_grow_with_points(self, monkeypatch, kind):
        # one Gram stack per sweep: the Gram calls and state constructions
        # are the same at 16 and at 257 points
        calls = Counter()
        gram, init = states._gram, states.CoherentSuperposition.__init__

        def counted_gram(*args):
            calls["gram"] += 1
            return gram(*args)

        def counted_init(self, *args):
            calls["state"] += 1
            init(self, *args)

        for module in [m for name, m in sys.modules.items() if name.startswith("subplanck")]:
            for name, value in list(vars(module).items()):
                if value is gram:
                    monkeypatch.setattr(module, name, counted_gram)
        monkeypatch.setattr(states.CoherentSuperposition, "__init__", counted_init)
        counts = []
        for n_points in (16, 257):
            calls.clear()
            overlap_sweep(3 + 1j, 4, None, kind, None, None, n_points)
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert counts[0]["gram"] >= 1


class TestFirstZeroSearch:
    def test_seeded_zeros_are_minima_below_half(self):
        # phi within a quarter turn of the maximum-sensitivity direction, so
        # the first fringe dips and rises again inside the default range
        rng = np.random.default_rng(39)
        for case in range(48):
            m = int(rng.integers(2, 9))
            kind = ("displacement", "rotation")[case % 2]
            alpha = rng.uniform(2.0, 12.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            gammas = rng.uniform(-np.pi, np.pi, m)
            phi = float(np.angle(alpha) + np.pi / 2 + rng.uniform(-np.pi / 4, np.pi / 4))
            sweep = overlap_sweep(alpha, m, gammas, kind, phi, None, 257)
            s = sweep.first_fringe_zero()
            near = np.array([s * (1 - 1e-6), s, s * (1 + 1e-6)])
            below, at, above = metrology._exact_overlaps(sweep.target, kind, sweep.direction, near)
            assert at < 0.5 and at <= below and at <= above, (m, kind, alpha, s)

    def test_a_curve_still_falling_at_the_range_end_is_refused(self):
        # the first fringe dips below 1/2 inside the default range pi/8 but
        # bottoms out past it: the range end is no zero
        with pytest.raises(ValueError, match="still falling; extend the range"):
            locate_first_zero(4, 2, direction=0.4)
        assert locate_first_zero(4, 2, direction=0.4, search_max=1.0) == pytest.approx(0.5042123585789255, rel=1e-9)

    @pytest.mark.parametrize("degrees", [10, 15, 20])
    def test_compass_off_its_axis_finds_the_first_zero(self, degrees):
        # the |alpha| = 4 compass's first zero follows pi/(2(|cos phi| + |sin phi|))
        # in s|alpha|; its run of points below 1/2 holds a second minimum, at
        # 1.9365, 2.2214 and 2.6282, which a half-crossing bracket returned
        phi = math.radians(degrees)
        zero = locate_first_zero(4j, 4, None, "displacement", math.pi + phi, 0.75)
        assert 4.0 * zero == pytest.approx(math.pi / (2.0 * (abs(math.cos(phi)) + abs(math.sin(phi)))), abs=1e-4)

    @pytest.mark.parametrize(
        "args,kwargs,golden",
        [
            ((4j, 2), {"search_max": np.pi / 8}, 0.19634954084929004),
            ((4j, 4), {"direction": np.pi / 4, "search_max": 0.5}, 0.27768015140304225),
            ((4j, 2), {"kind": "rotation", "search_max": np.pi / 32}, 0.04905023038071014),
            ((3 + 5j, 3, [0.3, 1.1, -0.7]), {}, 0.17988684972255875),
        ],
        ids=["cat", "compass_diagonal", "cat_rotation", "triangle_with_phases"],
    )
    def test_zeros_keep_the_golden_section_values(self, args, kwargs, golden):
        # the values the one-point golden-section search located
        assert locate_first_zero(*args, **kwargs) == pytest.approx(golden, rel=1e-7)

    @pytest.mark.parametrize("kind", ["displacement", "rotation"])
    def test_kernel_calls_per_search(self, monkeypatch, kind):
        # one sweep, then one 33-point stack a round, 16x narrower each
        calls = []
        exact = metrology._exact_overlaps

        def spy(target, perturbation, direction, magnitudes):
            calls.append(np.array(magnitudes))
            return exact(target, perturbation, direction, magnitudes)

        monkeypatch.setattr(metrology, "_exact_overlaps", spy)
        locate_first_zero(5 - 2j, 3, [0.2, -0.4, 1.0], kind)
        sweep, *rounds = calls
        assert sweep.size == 257
        assert rounds and all(mags.size == 33 for mags in rounds)
        width = rounds[0][-1] - rounds[0][0]
        assert len(calls) <= int(np.ceil(np.log(width / 1e-12) / np.log(16))) + 2

    @pytest.mark.parametrize("centre", [2.5e2, 7.3e3, 1.1e6, 3.0e15])
    def test_search_ends_where_the_tolerance_is_below_float_spacing(self, centre):
        # past 2^13 the spacing of floats passes 1e-12, so rounds there can
        # stop narrowing; the round count fixed up front still ends the search
        evaluated = []

        def f(xs):
            evaluated.append(xs.size)
            return (xs - centre) ** 2

        lo, hi = centre - 0.3, centre + 0.7
        x = metrology._stacked_minimum(f, lo, hi, 1e-12)
        assert len(evaluated) <= int(np.ceil(np.log((hi - lo) / 1e-12) / np.log(16)))
        assert lo <= x <= hi
        assert abs(x - centre) <= max(1e-12, 2 * np.spacing(centre))


class TestQuadratureColumn:
    """`OverlapSweep.quadrature`: |Tr(rho U)|^2 from the target's one field."""

    def test_seeded_columns_match_the_exact_column_where_resolved(self):
        rng = np.random.default_rng(40)
        resolved = Counter()
        for case in range(48):
            m = int(rng.integers(1, 9))
            kind = ("displacement", "rotation")[case % 2]
            alpha = rng.uniform(1.0, 12.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            phi = float(rng.uniform(-np.pi, np.pi))
            sweep = overlap_sweep(alpha, m, rng.uniform(-np.pi, np.pi, m), kind, phi, rng.uniform(0.0, 3.0),
                                  int(rng.integers(5, 130)))
            try:
                column = sweep.quadrature()
            except ValueError as exc:
                assert kind == "rotation" and "resolves rotations up to" in str(exc), (case, exc)
                continue
            resolved[kind] += 1
            assert column.shape == sweep.exact.shape
            assert np.max(np.abs(column - sweep.exact)) <= 1e-12, (case, m, kind, alpha, phi)
        # no displacement is refused; rotations are refused past about 2.4 rad, and both paths run
        assert resolved["displacement"] == 24 and 0 < resolved["rotation"] < 24

    def test_rotations_the_grid_aliases_are_refused(self):
        sweep = overlap_sweep(4j, 4, kind="rotation", max_magnitude=3.0, n_points=64)
        with pytest.raises(ValueError, match="resolves rotations up to 2.40"):
            sweep.quadrature()
