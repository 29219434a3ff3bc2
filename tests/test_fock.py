import math

import numpy as np
import pytest
from scipy.stats import poisson

from kerrcat import fock
from kerrcat.errors import CutoffTooSmall, DimensionMismatch, SeriesNotConverged

import oracles


class TestCoherentState:
    def test_vacuum(self):
        v = fock.coherent_state(0.0, 8)
        assert v.amplitudes[0] == 1.0
        assert np.all(v.amplitudes[1:] == 0.0)

    def test_ground_amplitude(self):
        v = fock.coherent_state(1.0, 40)
        assert abs(v.amplitudes[0] - math.exp(-0.5)) < 1e-12

    def test_poisson_weights(self):
        v = fock.coherent_state(2.0, 40)
        pops = np.abs(v.amplitudes) ** 2
        assert np.max(np.abs(pops - poisson.pmf(np.arange(40), 4.0))) < 1e-12

    def test_matches_factorial_formula(self):
        alpha = 1.3 - 0.7j
        v = fock.coherent_state(alpha, 40)
        brute = oracles.coherent_amplitudes_factorial(alpha, 40)
        assert np.max(np.abs(v.amplitudes - brute)) < 1e-13

    def test_cutoff_too_small(self):
        with pytest.raises(CutoffTooSmall):
            fock.coherent_state(2.0, 10)

    def test_default_cutoff_rule(self):
        assert fock.default_cutoff(2.0) == math.ceil(4 + 16 + 10)
        # rule keeps truncation below tolerance for the worst advertised case
        v = fock.coherent_state(6.0, fock.default_cutoff(6.0))
        assert abs(np.sum(np.abs(v.amplitudes) ** 2) - 1.0) < 1e-12

    def test_accepts_phase_point(self):
        point = fock.PhasePoint(1.0 + 0.5j)
        direct = fock.coherent_state(1.0 + 0.5j, 30)
        via_point = fock.coherent_state(point, 30)
        assert np.array_equal(direct.amplitudes, via_point.amplitudes)
        rho = fock.density_from_pure(direct)
        assert fock.husimi_q(rho, point) == fock.husimi_q(rho, 1.0 + 0.5j)

    def test_phase_point_rejects_non_finite(self):
        with pytest.raises(ValueError):
            fock.PhasePoint(complex("inf"))
        with pytest.raises(ValueError):
            fock.PhasePoint(complex(0.0, math.nan))


class TestCatState:
    def test_degenerate_alpha0_is_vacuum(self):
        cat = fock.cat_state(0.0, 8)
        assert abs(abs(cat.amplitudes[0]) - 1.0) < 1e-12

    def test_overlap_with_branch(self):
        # |<a0|cat>|^2 = (1 + e^{-4 |a0|^2}) / 2 including the small correction
        cat = fock.cat_state(2.0, 40)
        coh = fock.coherent_state(2.0, 40)
        overlap = abs(np.vdot(coh.amplitudes, cat.amplitudes)) ** 2
        exact = (1.0 + math.exp(-16.0)) / 2.0
        assert abs(overlap - exact) < 1e-12
        assert abs(overlap - 0.5) < 1e-6

    def test_matches_direct_expansion(self):
        cat = fock.cat_state(2.0, 40)
        brute = oracles.paper_cat_amplitudes(2.0, 40)
        # compare populations; the global phase is convention dependent
        assert np.max(np.abs(np.abs(cat.amplitudes) ** 2 - np.abs(brute) ** 2)) < 1e-14
        assert abs(abs(np.vdot(cat.amplitudes, brute)) - 1.0) < 1e-12

    def test_even_odd_population_ratio(self):
        cat = fock.cat_state(2.0, 40)
        brute = oracles.paper_cat_amplitudes(2.0, 40)
        pops = np.abs(cat.amplitudes) ** 2
        ref = np.abs(brute) ** 2
        assert abs(pops[::2].sum() / pops[1::2].sum() - ref[::2].sum() / ref[1::2].sum()) < 1e-10

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -2.5, 1.3 - 0.7j, 0.4j, 37.0, 26.0 + 26.0j])
    def test_mirror_is_exact_sign_flip(self, alpha):
        n = 60
        plus = fock.coherent_amplitudes(alpha, n)
        assert np.array_equal(fock.mirror_amplitudes(plus), fock.coherent_amplitudes(-alpha, n))

    def test_unit_norm_for_any_alpha0(self):
        for a0 in (0.3, 1.0, 2.5 + 1.0j):
            cat = fock.cat_state(a0)
            assert abs(np.sum(np.abs(cat.amplitudes) ** 2) - 1.0) < 1e-12


class TestDensityOperator:
    def test_vacuum_projector(self):
        rho = fock.density_from_pure(fock.basis_state(0, 8))
        assert rho.elements[0, 0] == 1.0
        assert np.count_nonzero(rho.elements) == 1

    def test_unit_trace_and_purity(self):
        rho = fock.density_from_pure(fock.coherent_state(1.5, 35))
        assert abs(np.trace(rho.elements) - 1.0) < 1e-12
        assert abs(fock.purity(rho) - 1.0) < 1e-12

    def test_coherent_off_diagonal(self):
        rho = fock.density_from_pure(fock.coherent_state(1.0, 40))
        assert abs(rho.elements[0, 1] - math.exp(-1.0)) < 1e-12

    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 0.1
        with pytest.raises(ValueError):
            fock.DensityOperator(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            fock.DensityOperator(2.0 * np.eye(4) / 4.0)

    def test_rejects_negative_eigenvalue(self):
        bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            fock.DensityOperator(bad)

    def test_fockvector_requires_normalization(self):
        with pytest.raises(ValueError):
            fock.FockVector(np.array([1.0, 1.0]))


class TestHusimi:
    def test_vacuum_origin(self):
        rho = fock.density_from_pure(fock.basis_state(0, 10))
        assert abs(fock.husimi_q(rho, 0.0) - 1.0) < 1e-14

    def test_coherent_projector_on_peak(self):
        rho = fock.density_from_pure(fock.coherent_state(2.0, 40))
        assert abs(fock.husimi_q(rho, 2.0) - 1.0) < 1e-10

    def test_coherent_projector_off_peak(self):
        rho = fock.density_from_pure(fock.coherent_state(2.0, 40))
        assert abs(fock.husimi_q(rho, 3.0) - math.exp(-1.0)) < 1e-10

    def test_gaussian_law_random_points(self):
        # Q(|b><b|, a) = exp(-|a - b|^2) for |a|, |b| <= 3 at N = 60
        rng = np.random.default_rng(11)
        for _ in range(50):
            b = complex(*rng.uniform(-3 / 1.5, 3 / 1.5, 2))
            a = complex(*rng.uniform(-3 / 1.5, 3 / 1.5, 2))
            rho = fock.density_from_pure(fock.coherent_state(b, 60))
            assert abs(fock.husimi_q(rho, a) - math.exp(-abs(a - b) ** 2)) < 1e-8

    def test_matches_brute_force_on_mixed_state(self):
        rng = np.random.default_rng(5)
        rho = fock.DensityOperator(oracles.random_density(rng, 12))
        for a in (0.0, 0.8 - 0.3j, 2.5):
            assert abs(fock.husimi_q(rho, a) - oracles.husimi_brute(rho.elements, a)) < 1e-12

    def test_grid_normalization(self):
        rho = fock.density_from_pure(fock.coherent_state(2.0, 40))
        xs = np.linspace(-7.0, 7.0, 141)
        w = (xs[1] - xs[0]) ** 2
        total = sum(fock.husimi_q(rho, x + 1j * y) for x in xs for y in xs) * w / math.pi
        assert abs(total - 1.0) < 1e-3

    def test_probe_underflow_raises(self):
        # the same underflow, and so the same error, as coherent_form
        rho = fock.density_from_pure(fock.basis_state(0, 4))
        with pytest.raises(SeriesNotConverged):
            fock.husimi_q(rho, 60.0)
        with pytest.raises(SeriesNotConverged):
            fock.coherent_form(rho.elements, np.array([60.0 + 0j]))


CHUNK_EDGES = [1, fock.PROBE_CHUNK - 1, fock.PROBE_CHUNK, fock.PROBE_CHUNK + 1]


class TestCoherentForm:
    @pytest.mark.parametrize("count", CHUNK_EDGES)
    def test_diagonal_matches_brute_force(self, count):
        rng = np.random.default_rng(count)
        rho = oracles.random_density(rng, 9)
        pts = rng.uniform(-3.0, 3.0, count) + 1j * rng.uniform(-3.0, 3.0, count)
        got = fock.coherent_form(rho, pts)
        want = np.array([oracles.husimi_brute(rho, a) for a in pts])
        assert got.shape == (count,)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("count", CHUNK_EDGES)
    def test_cross_element_matches_brute_force(self, count):
        rng = np.random.default_rng(100 + count)
        n = 7
        mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        kets = rng.uniform(-2.5, 2.5, count) + 1j * rng.uniform(-2.5, 2.5, count)
        bras = rng.uniform(-2.5, 2.5, count) + 1j * rng.uniform(-2.5, 2.5, count)
        got = fock.coherent_form(mat, kets, bras)
        want = np.array([
            np.vdot(oracles.coherent_amplitudes_factorial(b, n),
                    mat @ oracles.coherent_amplitudes_factorial(a, n))
            for a, b in zip(kets, bras)
        ])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_empty_points(self):
        assert fock.coherent_form(np.eye(3), np.array([], dtype=complex)).shape == (0,)

    def test_mismatched_sides(self):
        with pytest.raises(DimensionMismatch):
            fock.coherent_form(np.eye(3), np.zeros(4), np.zeros(5))

    def test_probe_underflow_not_converged(self):
        # e^{-|alpha|^2/2} is subnormal for |alpha| > 37.6, where Q would be wrong
        inside, beyond = np.array([37.6]), np.array([38.0])
        assert fock.coherent_form(np.eye(3), inside, inside).shape == (1,)
        for ket, bra in ((beyond, inside), (inside, beyond)):
            with pytest.raises(SeriesNotConverged):
                fock.coherent_form(np.eye(3), ket, bra)


class TestWigner:
    def test_vacuum_parity(self):
        rho = fock.density_from_pure(fock.basis_state(0, 20))
        assert abs(fock.wigner(rho, 0.0) - 2.0 / math.pi) < 1e-14

    def test_single_photon_parity(self):
        rho = fock.density_from_pure(fock.basis_state(1, 20))
        assert abs(fock.wigner(rho, 0.0) + 2.0 / math.pi) < 1e-14

    def test_cat_against_dense_oracle(self):
        rho = fock.density_from_pure(fock.cat_state(2.0, 40))
        for a in (0.0, 0.5j, 1.0 + 0.2j, 2.0):
            assert abs(fock.wigner(rho, a) - oracles.wigner_dense(rho.elements, a)) < 1e-8

    def test_random_mixed_against_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(3, 13))
            rho = fock.DensityOperator(oracles.random_density(rng, n))
            a = complex(*rng.uniform(-2, 2, 2))
            assert abs(fock.wigner(rho, a) - oracles.wigner_dense(rho.elements, a)) < 1e-8

    def test_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rho = fock.DensityOperator(oracles.random_density(rng, 10))
            a = complex(*rng.uniform(-3, 3, 2))
            assert abs(fock.wigner(rho, a)) <= 2.0 / math.pi + 1e-9


class TestFidelityAndMoments:
    def test_self_fidelity(self):
        psi = fock.coherent_state(1.2 + 0.4j, 35)
        assert abs(fock.fidelity(fock.density_from_pure(psi), psi) - 1.0) < 1e-12

    def test_orthogonal_states(self):
        rho = fock.density_from_pure(fock.basis_state(0, 6))
        assert fock.fidelity(rho, fock.basis_state(1, 6)) == 0.0

    def test_maximally_mixed(self):
        n = 7
        rho = fock.DensityOperator(np.eye(n) / n)
        for k in range(n):
            assert abs(fock.fidelity(rho, fock.basis_state(k, n)) - 1.0 / n) < 1e-12

    def test_matches_inner_product(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw1 = rng.normal(size=9) + 1j * rng.normal(size=9)
            raw2 = rng.normal(size=9) + 1j * rng.normal(size=9)
            psi = fock.FockVector(raw1 / np.linalg.norm(raw1))
            phi = fock.FockVector(raw2 / np.linalg.norm(raw2))
            want = abs(np.vdot(phi.amplitudes, psi.amplitudes)) ** 2
            got = fock.fidelity(fock.density_from_pure(psi), phi)
            assert abs(got - want) < 1e-12

    def test_dimension_mismatch(self):
        rho = fock.density_from_pure(fock.basis_state(0, 6))
        with pytest.raises(DimensionMismatch):
            fock.fidelity(rho, fock.basis_state(0, 7))

    def test_vacuum_moments(self):
        rho = fock.density_from_pure(fock.basis_state(0, 6))
        assert fock.expectation_n(rho) == 0.0
        assert abs(fock.purity(rho) - 1.0) < 1e-14

    def test_coherent_mean_photon_number(self):
        rho = fock.density_from_pure(fock.coherent_state(2.0, 40))
        assert abs(fock.expectation_n(rho) - 4.0) < 1e-10

    def test_equal_mix_purity(self):
        mix = np.zeros((6, 6), dtype=complex)
        mix[0, 0] = mix[1, 1] = 0.5
        assert abs(fock.purity(fock.DensityOperator(mix)) - 0.5) < 1e-14


class TestDisplacementMatrix:
    def test_against_padded_expm(self):
        for alpha in (0.7 - 1.3j, 2.0, -0.4j):
            mine = fock.displacement_matrix(alpha, 25)
            ref = oracles.displacement_expm(alpha, 25)
            assert np.max(np.abs(mine - ref)) < 1e-12

    @pytest.mark.parametrize("cutoff", [25, 40, 80, 160])
    @pytest.mark.parametrize("alpha", [0.01, 0.7 - 1.3j, 2.0, 3.0 + 1.0j, 10j])
    def test_matches_scipy_laguerre(self, alpha, cutoff):
        mine = fock.displacement_matrix(alpha, cutoff)
        ref = oracles.displacement_laguerre(alpha, cutoff)
        assert np.max(np.abs(mine - ref)) <= 1e-12

    def test_zero_displacement_is_identity(self):
        assert np.array_equal(fock.displacement_matrix(0.0, 9), np.eye(9))

    def test_large_cutoff_no_overflow(self):
        d = fock.displacement_matrix(3.0 + 1.0j, 130)
        assert np.all(np.isfinite(d))
        # columns of a unitary stay unit norm wherever truncation is negligible
        assert abs(np.linalg.norm(d[:, 0]) - 1.0) < 1e-10
