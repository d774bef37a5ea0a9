import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subplanck import metrology, wigner
from subplanck.states import (
    CoherentSuperposition,
    _braket,
    displace,
    inner_product,
    make_circular_state,
    rotate,
    vacuum,
)
from subplanck.wigner import (
    PhaseSpaceGrid,
    UnderresolvedGridWarning,
    auto_grid,
    cross_wigner,
    phase_space_overlap,
    quadrature_mass,
    wigner_field,
)

from oracles import cross_wigner_direct, parity_wigner_expm, parity_wigner_fock, trapezoid_overlap, wigner_direct


def _zero_crossings(xs, ys):
    signs = np.sign(ys)
    idx = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    # linear interpolation of each crossing
    return xs[idx] - ys[idx] * (xs[idx + 1] - xs[idx]) / (ys[idx + 1] - ys[idx])


class TestCrossWigner:
    def test_coherent_peak(self):
        a = 1.2 - 0.7j
        assert cross_wigner(a, a, a) == pytest.approx(2.0, abs=1e-12)

    def test_diagonal_gaussian(self):
        a = 0.5 + 0.5j
        assert cross_wigner(a, a, a + 1.0) == pytest.approx(2 * np.exp(-2), abs=1e-12)

    def test_parity_oracle_agreement(self):
        rng = np.random.default_rng(31337)
        for _ in range(25):
            ak, al = (rng.uniform(-4, 4, 2) @ np.array([1, 1j]) for _ in range(2))
            point = rng.uniform(-5, 5) + 1j * rng.uniform(-5, 5)
            assert abs(cross_wigner(ak, al, point) - parity_wigner_fock(ak, al, point)) < 1e-8

    def test_expm_oracle_pins_convention(self):
        # fully independent path: D(p) as a matrix exponential
        cases = [(1.0, -1.0, 0.3 + 0.2j), (1.5j, 0.5, -0.4j), (0.8 + 0.6j, -0.2j, 0.1)]
        for ak, al, p in cases:
            assert abs(cross_wigner(ak, al, p) - parity_wigner_expm(ak, al, p, dim=48)) < 1e-8

    @pytest.mark.parametrize("radius", [8.0, 20.0, 30.0, 40.0])
    def test_finite_beyond_overflow_edge(self, radius):
        # e^{+2|a|^2} alone overflows past |a| ~ 19; the midpoint form does not
        ak, al = radius * np.exp(0.3j), radius * np.exp(2.4j)
        points = np.array([0.0, 0.01 - 0.02j, 0.5 * (ak + al) + 0.1, ak])
        got = cross_wigner(ak, al, points)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - cross_wigner_direct(ak, al, points))) < 1e-9

    def test_interference_zero_spacing(self):
        # cross term of a +-4i pair oscillates as cos(16 x) on the real axis
        xs = np.linspace(-0.8, 0.8, 4001)
        vals = np.real(cross_wigner(4j, -4j, xs))
        crossings = _zero_crossings(xs, vals)
        spacing = np.diff(crossings)
        assert np.allclose(spacing, np.pi / 16, rtol=1e-6)


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseSpaceGrid(0, 1, 0, 1, 1, 8)
        with pytest.raises(ValueError):
            PhaseSpaceGrid(2, 1, 0, 1, 8, 8)

    def test_fringe_resolution_flag(self):
        g = PhaseSpaceGrid(-8, 8, -8, 8, 65, 65)
        assert g.resolves(4.0) is False
        g2 = PhaseSpaceGrid(-8, 8, -8, 8, 513, 513)
        assert g2.resolves(4.0) is True
        assert PhaseSpaceGrid(-1, 1, -1, 1, 4, 4).resolves(0.0) is True

    def test_auto_grid_covers_and_resolves(self):
        cat = make_circular_state(4j, 2, [0.0, 0.0])
        g = auto_grid(cat)
        assert g.re_min <= -4 and g.re_max >= 4
        assert g.im_min <= -8 and g.im_max >= 8
        assert g.resolves(cat.max_amplitude)
        assert g.nx % 2 == 1 and g.ny % 2 == 1

    def test_points_are_computed_once_and_read_only(self):
        g = PhaseSpaceGrid(-2, 3, -1, 1, 11, 5)
        assert g.re_points is g.re_points and g.im_points is g.im_points
        assert np.array_equal(g.re_points, np.linspace(-2, 3, 11))
        assert np.array_equal(g.im_points, np.linspace(-1, 1, 5))
        with pytest.raises(ValueError):
            g.re_points[0] = 0.0
        assert g == PhaseSpaceGrid(-2, 3, -1, 1, 11, 5)  # cached points are not fields


class TestWignerField:
    def test_vacuum_peak_and_mass(self):
        g = auto_grid(vacuum())
        f = wigner_field(vacuum(), g)
        assert f.values.max() == pytest.approx(2.0, abs=1e-9)
        assert quadrature_mass(f) == pytest.approx(1.0, abs=1e-6)
        assert not f.underresolved

    def test_cat_central_fringe_period(self):
        cat = make_circular_state(4j, 2, [0.0, 0.0])
        grid = auto_grid(cat)
        field = wigner_field(cat, grid)
        xs = np.linspace(-0.7, 0.7, 2001)
        mid = np.array([sum(
            (cat.weights[k] * np.conj(cat.weights[l]) * cross_wigner(cat.amplitudes[k], cat.amplitudes[l], x)).real
            for k in range(2) for l in range(2)) for x in xs])
        crossings = _zero_crossings(xs, mid)
        assert np.allclose(np.diff(crossings), np.pi / 16, rtol=1e-4)
        # the sampled field shows the same extremes: period pi/8 cosine
        iy0 = np.argmin(np.abs(grid.im_points))
        central = field.values[:, iy0]
        assert central.max() > 1.5  # fringes as tall as the lobes

    def test_compass_checkerboard_cell(self):
        # along the axes the central pattern is ~(1 + cos) and only touches
        # zero; the sign-alternating checkerboard runs along the diagonals
        comp = make_circular_state(4j, 4, np.zeros(4))
        ts = np.linspace(-0.6, 0.6, 3001)

        def section(direction):
            pts = ts * direction
            return np.array([sum(
                (comp.weights[k] * np.conj(comp.weights[l]) * cross_wigner(comp.amplitudes[k], comp.amplitudes[l], p)).real
                for k in range(4) for l in range(4)) for p in pts])

        d1 = np.diff(_zero_crossings(ts, section(np.exp(1j * np.pi / 4)))).mean()
        d2 = np.diff(_zero_crossings(ts, section(np.exp(3j * np.pi / 4)))).mean()
        cell = d1 * d2
        # sub-unit cell, of order 1/|alpha|^2 (hbar = 1)
        assert cell == pytest.approx((np.pi / (8 * np.sqrt(2))) ** 2, rel=0.05)
        assert 0.3 / 16 < cell < 2.0 / 16

    def test_underresolved_marker(self):
        cat = make_circular_state(4j, 2, [0.0, 0.0])
        coarse = PhaseSpaceGrid(-8, 8, -10, 10, 33, 33)
        with pytest.warns(UnderresolvedGridWarning):
            f = wigner_field(cat, coarse)
        assert f.underresolved

    @pytest.mark.parametrize(
        "alpha, m, shift", [(1.5, 1, 0.0), (4j, 2, 0.0), (3 + 1j, 3, 0.0), (4j, 4, 1 - 2j), (8j, 8, 0.0), (2.5, 16, -0.5j)]
    )
    def test_factor_columns_mirror_bit_for_bit(self, alpha, m, shift):
        # column (l, k) of G and H is the conjugate of column (k, l), exactly
        # as if it had been exponentiated itself: compare against the full set
        state = displace(_random_state(np.random.default_rng(m), m, abs(alpha)), shift)
        grid = auto_grid(state)
        field = wigner_field(state, grid)
        mid, kx, ky, _ = wigner._cross_terms(state.amplitudes[:, None], state.amplitudes[None, :])
        for points, centres, wavenumbers, got in ((grid.re_points, mid.real, kx, field.g), (grid.im_points, mid.imag, ky, field.h)):
            u = points[:, None] - centres.ravel()
            full = np.exp(u * (-2.0 * u + 1j * wavenumbers.ravel()))
            assert got.tobytes() == full.tobytes()
            upper = np.triu_indices(m, 1)
            square = got.reshape(-1, m, m)
            assert square[:, upper[1], upper[0]].tobytes() == np.conj(square[:, upper[0], upper[1]]).tobytes()

    def test_values_bounded(self):
        comp = make_circular_state(3j, 4, np.zeros(4))
        f = wigner_field(comp, auto_grid(comp))
        assert np.all(np.abs(f.values) <= 2.0 + 1e-9)


def _random_state(rng, m, radius):
    alpha = radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return make_circular_state(alpha, m, rng.uniform(0.0, 2.0 * np.pi, m))


class TestFieldOracles:
    """wigner_field against evaluations that share nothing with its kernel:
    the unfactorised exponent sum and the displaced-parity Fock sum."""

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("radius", [0.5, 2.0, 8.0])
    @pytest.mark.filterwarnings("ignore::subplanck.wigner.UnderresolvedGridWarning")
    def test_matches_direct_sum(self, m, radius):
        state = _random_state(np.random.default_rng(100 * m + int(10 * radius)), m, radius)
        box = radius + 3.0
        # point values are exact at any step, so a coarse grid over the
        # whole state checks lobes, fringes and tails alike
        grid = PhaseSpaceGrid(-box, box, -box, box, 41, 37)
        field = wigner_field(state, grid)
        want = wigner_direct(state.weights, state.amplitudes, grid.re_points[:, None] + 1j * grid.im_points)
        assert np.max(np.abs(field.values - want)) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("radius", [1.0, 8.0])
    @pytest.mark.filterwarnings("ignore::subplanck.wigner.UnderresolvedGridWarning")
    def test_matches_parity_fock(self, m, radius):
        gammas = np.random.default_rng(m).uniform(0.0, 2.0 * np.pi, m)
        state = make_circular_state(1j * radius, m, gammas)
        # 5 x 5 samples: the origin, the component at i*radius and points between
        grid = PhaseSpaceGrid(-radius, radius, -radius, radius, 5, 5)
        field = wigner_field(state, grid)
        w, a = state.weights, state.amplitudes
        for ix, x in enumerate(grid.re_points):
            for iy, y in enumerate(grid.im_points):
                want = sum(w[k] * np.conj(w[l]) * parity_wigner_fock(a[k], a[l], complex(x, y))
                           for k in range(m) for l in range(m))
                assert abs(field.values[ix, iy] - want.real) < 1e-8

    @pytest.mark.parametrize("radius", [20.0, 30.0, 40.0])
    @pytest.mark.parametrize("m", [2, 4])
    def test_fringe_window_beyond_overflow_edge(self, m, radius):
        state = _random_state(np.random.default_rng(int(radius) + m), m, radius)
        grid = PhaseSpaceGrid(-0.5, 0.5, -0.5, 0.5, 121, 121)
        field = wigner_field(state, grid)
        assert not field.underresolved
        assert np.all(np.isfinite(field.values))
        assert np.max(np.abs(field.values)) > 0.5  # the fringes are there, not underflowed
        want = wigner_direct(state.weights, state.amplitudes, grid.re_points[:, None] + 1j * grid.im_points)
        assert np.max(np.abs(field.values - want)) < 1e-9

    @pytest.mark.parametrize("radius", [2.0, 8.0])
    def test_m16_auto_grid_mass(self, radius):
        state = _random_state(np.random.default_rng(16), 16, radius)
        field = wigner_field(state, auto_grid(state))
        assert quadrature_mass(field) == pytest.approx(1.0, abs=1e-6)


def _symbol_traces_and_exact(state, kind, magnitudes, direction=None):
    """Tr(rho U) of the kernel at every magnitude its grid resolves, the
    column's grid (the state and U at the largest magnitude), and the Gram
    amplitudes <state|U|state> at the same magnitudes."""
    last = metrology.PerturbationSpec(kind, float(np.max(np.abs(magnitudes))), direction).apply(state)
    grid = auto_grid(state, last)
    symbols = metrology._weyl_symbols(kind, magnitudes, direction)
    kept = wigner._resolves_symbols(state, grid, *symbols[1:])
    traces = wigner._unitary_traces(wigner_field(state, grid), *(part[kept] for part in symbols))
    ket_w, ket_a = metrology._perturbed_terms(kind, magnitudes[kept][:, None], direction, state.weights, state.amplitudes)
    return traces, _braket(state.weights, state.amplitudes, ket_w, ket_a), kept


class TestSymbolTraces:
    """The quadrature column's kernel: Tr(rho U) from one field and the
    Weyl symbol of each perturbation."""

    @pytest.mark.parametrize("kind", ["displacement", "rotation"])
    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_match_the_amplitudes_of_states_moved_one_by_one(self, kind, m):
        # the complex amplitude, not only its modulus, against each moved state
        sweep = metrology.overlap_sweep(3j, m, np.random.default_rng(m).uniform(0, 6, m), kind=kind,
                                        max_magnitude=0.3 if kind == "displacement" else 0.05, n_points=7)
        traces, _, kept = _symbol_traces_and_exact(sweep.target, kind, sweep.magnitudes, sweep.direction)
        assert kept.all()
        for mag, trace in zip(sweep.magnitudes, traces):
            moved = metrology.PerturbationSpec(kind, float(mag), sweep.direction).apply(sweep.target)
            assert abs(trace - inner_product(sweep.target, moved)) <= 1e-12

    @given(
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=0.2, max_value=12.0),
        st.floats(min_value=-np.pi, max_value=np.pi),
        st.floats(min_value=-3.0, max_value=3.0),
        st.sampled_from(["displacement", "rotation"]),
        st.floats(min_value=0.0, max_value=4.0 * np.pi),
        st.floats(min_value=-np.pi, max_value=np.pi),
    )
    @settings(max_examples=30, deadline=None)
    def test_traces_match_the_gram_amplitudes(self, m, radius, phase, shift, kind, reach, direction):
        # random circles, displaced off the origin so rotations move their
        # centre too; displacements in any direction up to |beta| = 4 pi,
        # rotations of both signs up to 4 pi, to the refusal limit
        gammas = np.random.default_rng(m).uniform(0.0, 2.0 * np.pi, m)
        state = displace(make_circular_state(radius * np.exp(1j * phase), m, gammas), shift * np.exp(0.7j))
        magnitudes = np.linspace(-reach, reach, 17) if kind == "rotation" else np.linspace(0.0, reach, 9)
        traces, exact, kept = _symbol_traces_and_exact(state, kind, magnitudes, direction)
        # no displacement is ever refused on the column's grid, nor the identity
        assert kept.all() if kind == "displacement" else kept[magnitudes.size // 2]
        assert np.max(np.abs(traces - exact)) <= 1e-12

    def test_whole_turns_keep_full_accuracy(self):
        # theta - 2 pi round(theta / 2 pi) would be off by 1e-9 here
        state = displace(make_circular_state(2j, 2, [0.0, 0.0]), 2j)
        thetas = 2.0 * np.pi * np.array([1.0, 1e3, 1e6]) + 0.3
        traces, exact, kept = _symbol_traces_and_exact(state, "rotation", thetas)
        assert kept.all() and np.max(np.abs(traces - exact)) <= 1e-12

    def test_quadrature_mass_is_the_kernel_at_the_identity(self):
        state = make_circular_state(2.5 * np.exp(0.3j), 3, [0.1, -0.4, 1.0])
        field = wigner_field(state, auto_grid(state))
        ones = np.ones(1)
        assert wigner._unitary_traces(field, ones, 0 * ones, 0 * ones, 0 * ones)[0].real == quadrature_mass(field)

    def test_refused_chirps_are_the_ones_the_grid_aliases(self):
        # the displaced cat's column resolves rotations to about 2.4 rad; past
        # it the chirped integrand aliases, and refusing it is what keeps the
        # column exact
        state = displace(make_circular_state(4j, 2, [0.0, 0.0]), 4j)
        grid = auto_grid(state)
        field = wigner_field(state, grid)
        thetas = np.array([0.5, 2.0, 2.3, 2.6, 3.0])
        symbols = metrology._weyl_symbols("rotation", thetas, None)
        kept = wigner._resolves_symbols(state, grid, *symbols[1:])
        assert kept.tolist() == [True, True, True, False, False]
        exact = _braket(state.weights, state.amplitudes, state.weights, np.exp(1j * thetas[:, None]) * state.amplitudes)
        chirps = [np.exp(2j * symbols[3] * points[:, None] ** 2) for points in (grid.re_points, grid.im_points)]
        error = np.abs(symbols[0] * wigner._weighted_sum(field, *chirps) / np.pi - exact)
        assert np.all(error[kept] <= 1e-12)
        assert error[-1] > 1e-6

    @pytest.mark.parametrize("scale", [1.001, np.nan])
    def test_traces_beyond_modulus_one_raise(self, scale):
        field = wigner_field(vacuum(), auto_grid(vacuum()))
        ones = np.ones(2)
        with pytest.raises(FloatingPointError, match="unitary trace"):
            wigner._unitary_traces(field, np.array([1.0, scale]), 0 * ones, 0 * ones, 0 * ones)


class TestNonFiniteGuard:
    def test_overflowing_weights_raise(self):
        huge = CoherentSuperposition([1e200], [0.0])  # 2 |w|^2 overflows
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            wigner_field(huge, PhaseSpaceGrid(-3, 3, -3, 3, 33, 33))

    def test_nan_kernel_raises(self, monkeypatch):
        monkeypatch.setattr(wigner, "_axis_factors", lambda points, centres, k: np.full((points.size, centres.size), np.nan))
        with pytest.raises(FloatingPointError):
            wigner_field(vacuum(), PhaseSpaceGrid(-3, 3, -3, 3, 33, 33))

    def test_nan_coefficient_raises_in_overlap(self):
        cat = make_circular_state(2j, 2, [0.0, 0.0])
        field = wigner_field(cat, auto_grid(cat))
        coeffs = field.coeffs.copy()
        coeffs[1] = np.nan
        broken = dataclasses.replace(field, coeffs=coeffs)
        with pytest.raises(FloatingPointError):
            phase_space_overlap(field, broken)
        with pytest.raises(FloatingPointError):
            quadrature_mass(broken)

    def test_non_hermitian_coefficients_raise_on_read(self):
        cat = make_circular_state(2j, 2, [0.0, 0.0])
        field = wigner_field(cat, auto_grid(cat))
        skewed = dataclasses.replace(field, coeffs=1j * field.coeffs)
        with pytest.raises(FloatingPointError, match="Hermiticity"):
            skewed.values
        with pytest.raises(FloatingPointError):
            phase_space_overlap(field, skewed)


class TestOverlapQuadrature:
    def test_vacuum_purity(self):
        f = wigner_field(vacuum(), auto_grid(vacuum()))
        assert phase_space_overlap(f, f) == pytest.approx(1.0, abs=1e-6)

    def test_grid_mismatch_rejected(self):
        f1 = wigner_field(vacuum(), PhaseSpaceGrid(-3, 3, -3, 3, 33, 33))
        f2 = wigner_field(vacuum(), PhaseSpaceGrid(-3, 3, -3, 3, 35, 35))
        with pytest.raises(ValueError):
            phase_space_overlap(f1, f2)

    def test_cat_orthogonality_matches_exact(self):
        cat = make_circular_state(4j, 2, [0.0, 0.0])
        shifted = displace(cat, (np.pi / 16) * 1j * 4j / 4)
        g = auto_grid(cat, shifted)
        quad = phase_space_overlap(wigner_field(cat, g), wigner_field(shifted, g))
        exact = abs(inner_product(cat, shifted)) ** 2
        assert quad == pytest.approx(exact, abs=1e-6)
        assert quad < 1e-6

    def test_compass_displaced_quasi_orthogonal(self):
        comp = make_circular_state(4j, 4, np.zeros(4))
        beta = np.exp(1j * np.pi / 4) * np.pi / (2 * np.sqrt(2) * 4)
        shifted = displace(comp, beta)
        g = auto_grid(comp, shifted)
        quad = phase_space_overlap(wigner_field(comp, g), wigner_field(shifted, g))
        assert abs(quad) < 1e-6

    def test_purity_of_random_cat(self):
        state = make_circular_state(2.5 * np.exp(0.3j), 3, [0.1, -0.4, 1.0])
        f = wigner_field(state, auto_grid(state))
        assert phase_space_overlap(f, f) == pytest.approx(1.0, abs=1e-5)

    @given(
        st.sampled_from([1, 2, 3, 4]),
        st.floats(min_value=1.0, max_value=3.0),
        st.floats(min_value=-np.pi, max_value=np.pi),
        st.floats(min_value=0.0, max_value=0.25),
    )
    @settings(max_examples=10, deadline=None)
    def test_quadrature_matches_exact_overlap(self, m, radius, phase, shift):
        state = make_circular_state(radius * np.exp(1j * phase), m, np.zeros(m))
        other = rotate(displace(state, shift * 1j * np.exp(1j * phase)), 0.02)
        g = auto_grid(state, other)
        f1, f2 = wigner_field(state, g), wigner_field(other, g)
        quad, err = phase_space_overlap(f1, f2, with_error=True)
        exact = abs(inner_product(state, other)) ** 2
        assert abs(quad - exact) < max(1e-6, 10 * err)
        assert abs(quad - exact) < 1e-6

    @given(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=3.0, max_value=12.0),
        st.floats(min_value=-np.pi, max_value=np.pi),
        st.floats(min_value=0.0, max_value=0.25),
        st.floats(min_value=-0.05, max_value=0.05),
    )
    @settings(max_examples=10, deadline=None)
    def test_quadrature_matches_exact_overlap_large_states(self, m, radius, phase, shift, angle):
        gammas = np.linspace(0.0, phase, m)
        state = make_circular_state(radius * np.exp(1j * phase), m, gammas)
        other = rotate(displace(state, shift * 1j * np.exp(1j * phase)), angle)
        g = auto_grid(state, other)
        quad, err = phase_space_overlap(wigner_field(state, g), wigner_field(other, g), with_error=True)
        exact = abs(inner_product(state, other)) ** 2
        assert abs(quad - exact) <= 1e-6
        assert abs(quad - exact) <= max(1e-6, 10 * err)

    @pytest.mark.parametrize("nx,ny", [(33, 33), (34, 33), (33, 36), (40, 38)])
    @pytest.mark.filterwarnings("ignore::subplanck.wigner.UnderresolvedGridWarning")
    def test_factor_quadrature_is_the_sampled_trapezoid_rule(self, nx, ny):
        # odd and even point counts: the Richardson estimate truncates even axes
        state = make_circular_state(1.5 * np.exp(0.4j), 3, [0.2, -0.7, 1.1])
        other = rotate(displace(state, 0.3 - 0.1j), 0.1)
        grid = PhaseSpaceGrid(-4.5, 4.0, -4.0, 4.2, nx, ny)
        f1, f2 = wigner_field(state, grid), wigner_field(other, grid)
        value, err = phase_space_overlap(f1, f2, with_error=True)
        want_value, want_err = trapezoid_overlap(f1.values, f2.values, grid.re_points, grid.im_points)
        assert value == pytest.approx(want_value, abs=1e-14)
        assert err == pytest.approx(want_err, abs=1e-14)
        assert phase_space_overlap(f1, f2) == value
        mass = trapezoid_overlap(f1.values, np.ones((nx, ny)), grid.re_points, grid.im_points)[0]
        assert quadrature_mass(f1) == pytest.approx(mass, abs=1e-14)

    def test_fringe_frequency_scales_linearly(self):
        radii = [2.0, 4.0, 6.0]
        freqs = []
        for r in radii:
            cat = make_circular_state(1j * r, 2, [0.0, 0.0])
            xs = np.linspace(-0.5, 0.5, 6001)
            vals = np.array([sum(
                (cat.weights[k] * np.conj(cat.weights[l]) * cross_wigner(cat.amplitudes[k], cat.amplitudes[l], x)).real
                for k in range(2) for l in range(2)) for x in xs])
            spacing = np.diff(_zero_crossings(xs, vals)).mean()
            freqs.append(np.pi / spacing)
        slope = np.polyfit(radii, freqs, 1)[0]
        assert slope == pytest.approx(4.0, rel=0.1)
