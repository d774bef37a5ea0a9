import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subplanck.metrology import (
    OutOfRegimeWarning,
    PerturbationSpec,
    approx_overlap,
    exact_overlap,
    locate_first_zero,
    overlap_sweep,
    sensitivity_report,
)
from subplanck import states
from subplanck.states import coherent_state, displace, make_circular_state

from oracles import perturbed_overlap

angles = st.floats(min_value=-np.pi, max_value=np.pi)


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
        assert p.beta(4j) == pytest.approx(-0.1)
        with pytest.raises(ValueError):
            p.resolve_direction()

    def test_regime_flags(self):
        assert PerturbationSpec("displacement", 0.1).in_regime(4.0)
        assert not PerturbationSpec("displacement", 0.5).in_regime(4.0)
        assert PerturbationSpec("rotation", 0.01).in_regime(4.0)
        assert not PerturbationSpec("rotation", 0.1).in_regime(4.0)


class TestApproxOverlap:
    def test_identity_perturbation(self):
        for m in (1, 2, 3, 4, 6):
            assert approx_overlap(m, 4j, PerturbationSpec("displacement", 0.0)) == pytest.approx(1.0)

    def test_cat_fringe_value(self):
        val = approx_overlap(2, 4j, PerturbationSpec("displacement", 0.1))
        assert val == pytest.approx((1 + np.cos(1.6)) / 2, abs=1e-12)
        assert val == pytest.approx(0.48540023884935557, abs=1e-12)

    def test_rotation_zero_at_heisenberg_angle(self):
        # theta = pi/(4 |alpha|^2) maps to s = pi/16, formally past the
        # validity flag, so the value comes back tagged but still exact
        with pytest.warns(OutOfRegimeWarning):
            val = approx_overlap(2, 4j, PerturbationSpec("rotation", np.pi / 64))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_out_of_regime_still_computed(self):
        with pytest.warns(OutOfRegimeWarning):
            val = approx_overlap(2, 4j, PerturbationSpec("displacement", 0.5))
        assert np.isfinite(val)


class TestExactOverlap:
    def test_identity(self):
        cat = make_circular_state(4j, 2, [0.0, 0.0])
        assert exact_overlap(cat, PerturbationSpec("displacement", 0.0), alpha=4j) == pytest.approx(1.0)

    def test_matches_approx_at_small_s(self):
        cat = make_circular_state(4j, 2, [0.0, 0.0])
        spec = PerturbationSpec("displacement", 0.1)
        exact = exact_overlap(cat, spec, alpha=4j)
        approx = approx_overlap(2, 4j, spec)
        assert abs(exact - approx) < 5e-3

    def test_minimal_sensitivity_along_alpha(self):
        cat = make_circular_state(4j, 2, [0.0, 0.0])
        s = 0.15
        spec = PerturbationSpec("displacement", s, direction=float(np.angle(4j)))
        val = exact_overlap(cat, spec)
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
        exact = exact_overlap(state, spec, alpha=alpha)
        approx = approx_overlap(m, alpha, spec)
        assert abs(exact - approx) < 5e-3 + 10 * s**2

    def test_cosine_periodicity(self):
        period = np.pi / (2 * 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OutOfRegimeWarning)
            for s in np.linspace(0.0, 0.15, 7):
                a = approx_overlap(2, 4j, PerturbationSpec("displacement", s))
                b = approx_overlap(2, 4j, PerturbationSpec("displacement", s + period))
                assert a == pytest.approx(b, abs=1e-12)

    def test_direction_extremes(self):
        alpha = 3.0 * np.exp(0.4j)
        cat = make_circular_state(alpha, 2, [0.0, 0.0])
        s = 0.05
        phis = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        vals = [exact_overlap(cat, PerturbationSpec("displacement", s, direction=float(p))) for p in phis]
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
        rot = exact_overlap(shifted, PerturbationSpec("rotation", theta))
        beta = 1j * theta * alpha
        disp = exact_overlap(shifted, PerturbationSpec("displacement", abs(beta), direction=float(np.angle(beta))))
        assert abs(rot - disp) < 1e-3


class TestSensitivityReport:
    def test_coherent_state_is_sql_limited(self):
        rep = sensitivity_report(coherent_state(3.0))
        assert rep.support_action == pytest.approx(1.0)
        assert rep.structure_area == pytest.approx(1.0)
        assert rep.heisenberg_displacement <= rep.sql_displacement
        assert rep.heisenberg_rotation <= rep.sql_rotation

    def test_cat_heisenberg_displacement_scale(self):
        rep = sensitivity_report(make_circular_state(4j, 2, [0.0, 0.0]))
        assert rep.heisenberg_displacement == pytest.approx(0.25, abs=1e-10)
        assert rep.support_action == pytest.approx(16.0, abs=1e-9)
        assert rep.structure_area == pytest.approx(1 / 16, abs=1e-10)

    def test_displaced_cat_rotation_scale(self):
        cat = make_circular_state(4j, 2, [0.0, 0.0])
        rep = sensitivity_report(displace(cat, 4j))
        # the benchmark scale 1/nbar sits a factor 2 below the structural
        # 1/|alpha|^2 because displacing the circle doubles nbar
        assert 0.5 / 16 <= rep.heisenberg_rotation <= 2.0 / 16
        assert rep.structure_area == pytest.approx(1 / 16, abs=1e-9)

    def test_scale_ordering_invariant(self):
        for state in [
            coherent_state(2.0),
            make_circular_state(3.0, 4, np.zeros(4)),
            displace(make_circular_state(2j, 2, [0.0, 0.0]), 2j),
        ]:
            rep = sensitivity_report(state)
            assert rep.heisenberg_displacement <= rep.sql_displacement + 1e-12
            assert rep.heisenberg_rotation <= rep.sql_rotation + 1e-12
            assert rep.structure_area == pytest.approx(1.0 / rep.support_action)


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
        # the batched Gram stack and closed form against one state, one
        # inner product and one scalar approx_overlap per magnitude
        alpha = radius * np.exp(1j * phase)
        scale = np.pi / (2.0 * radius) if kind == "displacement" else np.pi / (2.0 * radius**2)
        sweep = overlap_sweep(alpha, m, gammas[:m], kind, phi, span * scale, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OutOfRegimeWarning)
            for mag, exact, approx in zip(sweep.magnitudes, sweep.exact, sweep.approx):
                spec = PerturbationSpec(kind, float(mag), sweep.direction)
                assert abs(exact - perturbed_overlap(sweep.target, spec)) <= 1e-13
                assert abs(approx - approx_overlap(m, alpha, spec)) <= 1e-15
        assert list(sweep.in_regime) == [PerturbationSpec(kind, float(x)).in_regime(radius) for x in sweep.magnitudes]

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
