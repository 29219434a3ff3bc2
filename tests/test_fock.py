import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_laguerre

from kerrcat import fock
from kerrcat.errors import SeriesNotConverged

import oracles


def number_state(n, cutoff):
    return fock.FockVector(np.eye(cutoff)[n])


def density_with_smallest(rng, n, lowest):
    """V diag(lowest, rest) V^H, V a random unitary, unit trace, Hermitian to the bit."""
    rest = rng.uniform(0.1, 1.0, n - 1)
    rest *= (1.0 - lowest) / rest.sum()
    v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    mat = (v * np.concatenate(([lowest], rest))) @ v.conj().T
    return 0.5 * (mat + mat.conj().T)


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Count the eigvalsh calls the gate makes."""
    calls = []
    full = np.linalg.eigvalsh

    def counted(mat, *args, **kwargs):
        calls.append(mat.shape)
        return full(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def husimi(rho, points):
    """Q = <alpha| rho |alpha> at each point, by the probe kernel."""
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    return np.array([fock.q_grid(rho.elements, np.array([a.real]), np.array([a.imag]))[0, 0]
                     for a in pts])


class TestCoherentState:
    def test_vacuum(self):
        v = fock.coherent_state(0.0)
        assert v.amplitudes[0] == 1.0
        assert np.all(v.amplitudes[1:] == 0.0)

    def test_ground_amplitude(self):
        v = fock.coherent_state(1.0)
        assert abs(v.amplitudes[0] - math.exp(-0.5)) < 1e-12

    def test_poisson_weights(self):
        v = fock.coherent_state(2.0)
        pops = np.abs(v.amplitudes) ** 2
        assert np.max(np.abs(pops - oracles.poisson_pmf(np.arange(len(pops)), 4.0))) < 1e-12

    def test_matches_factorial_formula(self):
        alpha = 1.3 - 0.7j
        v = fock.coherent_state(alpha)
        brute = oracles.coherent_amplitudes_factorial(alpha, len(v.amplitudes))
        assert np.max(np.abs(v.amplitudes - brute)) < 1e-13

    @pytest.mark.parametrize("alpha", [0.0, 1e-11, 1.0, 2.0, 1.3 - 0.7j, -6.0j, 20.0])
    def test_levels_from_series_order(self, alpha):
        # the constructor's N is the rule's, and its bits those of a vector built at that N
        v = fock.coherent_state(alpha)
        assert v.cutoff == fock.series_order(alpha)
        assert np.array_equal(v.amplitudes, oracles.coherent_vector(alpha, v.cutoff).amplitudes)


class TestCatState:
    def test_degenerate_alpha0_is_vacuum(self):
        cat = fock.cat_state(0.0)
        assert abs(abs(cat.amplitudes[0]) - 1.0) < 1e-12

    def test_overlap_with_branch(self):
        # |<a0|cat>|^2 = (1 + e^{-4 |a0|^2}) / 2 including the small correction
        cat = fock.cat_state(2.0)
        coh = fock.coherent_state(2.0)
        overlap = abs(np.vdot(coh.amplitudes, cat.amplitudes)) ** 2
        exact = (1.0 + math.exp(-16.0)) / 2.0
        assert abs(overlap - exact) < 1e-12
        assert abs(overlap - 0.5) < 1e-6

    def test_matches_direct_expansion(self):
        cat = fock.cat_state(2.0)
        brute = oracles.paper_cat_amplitudes(2.0, cat.cutoff)
        # compare populations; the global phase is convention dependent
        assert np.max(np.abs(np.abs(cat.amplitudes) ** 2 - np.abs(brute) ** 2)) < 1e-14
        assert abs(abs(np.vdot(cat.amplitudes, brute)) - 1.0) < 1e-12

    def test_even_odd_population_ratio(self):
        cat = fock.cat_state(2.0)
        brute = oracles.paper_cat_amplitudes(2.0, cat.cutoff)
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

    @pytest.mark.parametrize("a0", [0.0, 1.0, 2.0, 2.5 + 1.0j, 16.0])
    def test_levels_from_series_order(self, a0):
        # the cat has |a0>'s populations, so the rule's N for |a0> holds it too
        cat = fock.cat_state(a0)
        assert cat.cutoff == fock.series_order(a0)
        assert np.array_equal(cat.amplitudes, oracles.cat_vector(a0, cat.cutoff).amplitudes)


class TestDensityOperator:
    def test_vacuum_projector(self):
        rho = fock.density_from_pure(number_state(0, 8))
        assert rho.elements[0, 0] == 1.0
        assert np.count_nonzero(rho.elements) == 1

    def test_unit_trace_and_purity(self):
        rho = fock.density_from_pure(fock.coherent_state(1.5))
        assert abs(np.trace(rho.elements) - 1.0) < 1e-12
        assert abs(fock.purity(rho) - 1.0) < 1e-12

    def test_coherent_off_diagonal(self):
        rho = fock.density_from_pure(fock.coherent_state(1.0))
        assert abs(rho.elements[0, 1] - math.exp(-1.0)) < 1e-12

    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 0.1
        with pytest.raises(ValueError):
            fock.DensityOperator(bad)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (0, 0)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            fock.DensityOperator(np.zeros(shape))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            fock.DensityOperator(2.0 * np.eye(4) / 4.0)

    def test_rejects_negative_eigenvalue(self):
        bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            fock.DensityOperator(bad)

    @pytest.mark.parametrize("amplitudes", [[], [[1.0]], 1.0], ids=["empty", "2-d", "scalar"])
    def test_fockvector_requires_a_vector(self, amplitudes):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            fock.FockVector(np.array(amplitudes))

    def test_fockvector_requires_normalization(self):
        with pytest.raises(ValueError):
            fock.FockVector(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    def test_non_finite_rejected_without_warning(self, bad):
        mat = np.eye(2, dtype=complex) / 2
        mat[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                fock.FockVector(np.array([bad, 0.0]))
            with pytest.raises(ValueError, match="finite"):
                fock.DensityOperator(np.full((2, 2), bad))
            with pytest.raises(ValueError, match="finite"):
                fock.DensityOperator(mat)


class TestPositivityGate:
    """Cholesky of rho + s I, s = 5e-10, with eigvalsh only when it fails."""

    def test_factorization_accepts_without_eigvalsh(self, eigvalsh_calls):
        mat = density_with_smallest(np.random.default_rng(1), 8, -0.4e-9)
        assert oracles.eigvalsh_accepts(mat)
        eigvalsh_calls.clear()
        fock.DensityOperator(mat)
        assert eigvalsh_calls == []

    def test_failed_factorization_falls_back_and_accepts(self, eigvalsh_calls):
        mat = density_with_smallest(np.random.default_rng(2), 8, -0.9e-9)
        fock.DensityOperator(mat)
        assert eigvalsh_calls == [(8, 8)]

    def test_rounding_bound_past_the_shift_skips_cholesky(self, monkeypatch):
        # 2 (n + 4) u (trace + n s) = 1.8e-8 > s/2 at trace 1e7: no factorization
        # certifies the floor, so eigvalsh decides without a Cholesky call
        calls = []
        monkeypatch.setattr(np.linalg, "cholesky", lambda mat: calls.append(mat.shape))
        assert fock._factors_above_floor(np.eye(4) / 4, 1e7) is False
        assert calls == []

    def test_below_floor_rejected_with_exact_eigenvalue(self):
        mat = density_with_smallest(np.random.default_rng(3), 8, -1.1e-9)
        with pytest.raises(ValueError, match="not positive") as info:
            fock.DensityOperator(mat)
        lo = float(re.search(r"smallest eigenvalue (\S+)", str(info.value)).group(1))
        assert abs(lo - -1.1e-9) < 1e-15

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(
        n=st.integers(min_value=2, max_value=60),
        lowest=st.one_of(
            st.floats(min_value=-2e-9, max_value=1e-3),
            st.floats(min_value=-2e-9, max_value=0.0),
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_accepts_exactly_when_eigvalsh_does(self, n, lowest, seed):
        mat = density_with_smallest(np.random.default_rng(seed), n, lowest)
        try:
            fock.DensityOperator(mat)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == oracles.eigvalsh_accepts(mat)


class TestHusimi:
    def test_vacuum_origin(self):
        rho = fock.density_from_pure(number_state(0, 10))
        assert abs(husimi(rho, 0.0)[0] - 1.0) < 1e-14

    def test_coherent_projector_on_peak(self):
        rho = fock.density_from_pure(fock.coherent_state(2.0))
        assert abs(husimi(rho, 2.0)[0] - 1.0) < 1e-10

    def test_coherent_projector_off_peak(self):
        rho = fock.density_from_pure(fock.coherent_state(2.0))
        assert abs(husimi(rho, 3.0)[0] - math.exp(-1.0)) < 1e-10

    def test_gaussian_law_random_points(self):
        # Q(|b><b|, a) = exp(-|a - b|^2) for |a|, |b| <= 3 at N = 60
        rng = np.random.default_rng(11)
        for _ in range(50):
            b = complex(*rng.uniform(-3 / 1.5, 3 / 1.5, 2))
            a = complex(*rng.uniform(-3 / 1.5, 3 / 1.5, 2))
            rho = fock.density_from_pure(oracles.coherent_vector(b, 60))
            assert abs(husimi(rho, a)[0] - math.exp(-abs(a - b) ** 2)) < 1e-8

    def test_matches_brute_force_on_mixed_state(self):
        rng = np.random.default_rng(5)
        rho = fock.DensityOperator(oracles.random_density(rng, 12))
        for a in (0.0, 0.8 - 0.3j, 2.5):
            assert abs(husimi(rho, a)[0] - oracles.husimi_brute(rho.elements, a)) < 1e-12

    def test_grid_normalization(self):
        rho = fock.density_from_pure(fock.coherent_state(2.0))
        xs = np.linspace(-7.0, 7.0, 141)
        w = (xs[1] - xs[0]) ** 2
        total = float(np.sum(fock.q_grid(rho.elements, xs, xs))) * w / math.pi
        assert abs(total - 1.0) < 1e-3

    def test_probe_underflow_raises(self):
        rho = fock.density_from_pure(number_state(0, 4))
        with pytest.raises(SeriesNotConverged):
            fock.q_grid(rho.elements, np.array([60.0]), np.array([0.0]))


CHUNK_EDGES = [1, fock.PROBE_CHUNK - 1, fock.PROBE_CHUNK, fock.PROBE_CHUNK + 1]


def _gaussian(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _indefinite(rng, n):
    """Hermitian, with eigenvalues of both signs."""
    m = _gaussian(rng, n)
    return m + m.conj().T


def _graded_spectrum(rng, n):
    """Eigenvalues 1 ... 1e-17 in a random unitary basis: the smallest fall below rounding."""
    v, _ = np.linalg.qr(_gaussian(rng, n))
    return (v * np.logspace(0.0, -17.0, n)) @ v.conj().T


#: matrices that are not states, whose quadratic form q_grid evaluates all the same
MATRICES = {
    "indefinite": _indefinite,
    "non_hermitian": _gaussian,  # only the Hermitian part enters Re <alpha|mat|alpha>
    "graded_spectrum": _graded_spectrum,
}


class TestCoherentForm:
    """The coherent quadratic form of fock.q_grid, Q = Re <alpha|mat|alpha> over a grid."""

    @pytest.mark.parametrize("count", CHUNK_EDGES)
    def test_diagonal_matches_brute_force(self, count):
        # one row of ``count`` points: the last chunk holds 1, 2047, 2048 or 1 of them
        rng = np.random.default_rng(count)
        rho = oracles.random_density(rng, 9)
        re, im = rng.uniform(-3.0, 3.0, count), rng.uniform(-3.0, 3.0, 1)
        got = fock.q_grid(rho, re, im)
        want = np.array([[oracles.husimi_brute(rho, x + 1j * im[0]) for x in re]])
        assert got.shape == (1, count)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_chunk_boundary_splits_a_row(self):
        # 45 x 46 = 2070 points: the first chunk ends 24 points into row 44
        rng = np.random.default_rng(46)
        rho = oracles.random_density(rng, 9)
        re, im = rng.uniform(-3.0, 3.0, 46), rng.uniform(-3.0, 3.0, 45)
        got = fock.q_grid(rho, re, im)
        want = np.array([[oracles.husimi_brute(rho, x + 1j * y) for x in re] for y in im])
        assert got.shape == (45, 46)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("kind", sorted(MATRICES))
    def test_any_matrix_matches_brute_force(self, kind):
        rng = np.random.default_rng(9)
        mat = MATRICES[kind](rng, 9)
        re, im = rng.uniform(-3.0, 3.0, 21), rng.uniform(-3.0, 3.0, 21)
        want = np.array([[oracles.husimi_brute(mat, x + 1j * y) for x in re] for y in im])
        assert np.max(np.abs(fock.q_grid(mat, re, im) - want)) < 1e-12

    def test_macroscopic_coherent_projector(self):
        # |alpha0| 12 on N = 272 levels: a rank-one rho, so Q is one probe product a point
        a0 = cmath.rect(12.0, 0.7)
        rho = fock.density_from_pure(fock.coherent_state(a0)).elements
        assert rho.shape == (272, 272)
        re, im = a0.real + np.linspace(-5.0, 5.0, 41), a0.imag + np.linspace(-5.0, 5.0, 41)
        got = fock.q_grid(rho, re, im)
        want = np.exp(-np.abs(re[np.newaxis, :] + 1j * im[:, np.newaxis] - a0) ** 2)
        assert np.max(np.abs(got - want)) < 1e-13

    def test_empty_points(self):
        empty, one = np.array([]), np.array([0.0])
        for re, im in ((empty, one), (one, empty), (empty, empty)):
            assert fock.q_grid(np.eye(3), re, im).shape == (im.size, re.size)

    def test_probe_underflow_not_converged(self):
        # e^{-|alpha|^2/2} is subnormal for |alpha| > 37.6, where Q would be wrong
        zero, inside, beyond = np.array([0.0]), np.array([37.6]), np.array([38.0])
        assert fock.q_grid(np.eye(3), inside, zero).shape == (1, 1)
        assert fock.q_grid(np.eye(3), zero, inside).shape == (1, 1)
        for re, im in ((beyond, zero), (zero, beyond)):
            with pytest.raises(SeriesNotConverged):
                fock.q_grid(np.eye(3), re, im)


class TestWigner:
    def test_vacuum_parity(self):
        rho = fock.density_from_pure(number_state(0, 20))
        assert abs(fock.wigner(rho, 0.0) - 2.0 / math.pi) < 1e-14

    def test_single_photon_parity(self):
        rho = fock.density_from_pure(number_state(1, 20))
        assert abs(fock.wigner(rho, 0.0) + 2.0 / math.pi) < 1e-14

    def test_cat_against_dense_oracle(self):
        rho = fock.density_from_pure(fock.cat_state(2.0))
        for a in (0.0, 0.5j, 1.0 + 0.2j, 2.0):
            assert abs(fock.wigner(rho, a) - oracles.wigner_dense(rho.elements, a)) < 1e-8

    @pytest.mark.parametrize(
        "x", np.linspace(-13.0, 13.0, 41)[11:14], ids=["-5.85", "-5.2", "-4.55"]
    )
    def test_dense_oracle_far_from_origin(self, x):
        # points of validate's real-axis slice for the |alpha0| = 10 coherent
        # state, where a fixed 60-level padding left the oracle off by up to 0.64
        rho = fock.density_from_pure(fock.coherent_state(10.0))
        exact = 2.0 / math.pi * math.exp(-2.0 * (x - 10.0) ** 2)
        assert abs(oracles.wigner_dense(rho.elements, x) - exact) < 1e-12

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
        psi = fock.coherent_state(1.2 + 0.4j)
        assert abs(fock.fidelity(fock.density_from_pure(psi), psi) - 1.0) < 1e-12

    def test_orthogonal_states(self):
        rho = fock.density_from_pure(number_state(0, 6))
        assert fock.fidelity(rho, number_state(1, 6)) == 0.0

    def test_maximally_mixed(self):
        n = 7
        rho = fock.DensityOperator(np.eye(n) / n)
        for k in range(n):
            assert abs(fock.fidelity(rho, number_state(k, n)) - 1.0 / n) < 1e-12

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
        rho = fock.density_from_pure(number_state(0, 6))
        with pytest.raises(ValueError, match="cutoff 6 != state cutoff 7"):
            fock.fidelity(rho, number_state(0, 7))

    def test_vacuum_moments(self):
        rho = fock.density_from_pure(number_state(0, 6))
        assert fock.expectation_n(rho) == 0.0
        assert abs(fock.purity(rho) - 1.0) < 1e-14

    def test_coherent_mean_photon_number(self):
        rho = fock.density_from_pure(fock.coherent_state(2.0))
        assert abs(fock.expectation_n(rho) - 4.0) < 1e-10

    def test_equal_mix_purity(self):
        mix = np.zeros((6, 6), dtype=complex)
        mix[0, 0] = mix[1, 1] = 0.5
        assert abs(fock.purity(fock.DensityOperator(mix)) - 0.5) < 1e-14


def parity_trace(rho_matrix, d):
    """(2/pi) sum_mn rho_mn (-1)^m D_nm: W at alpha/2 from a displacement matrix D(alpha)."""
    parity = np.where(np.arange(rho_matrix.shape[0]) % 2 == 0, 1.0, -1.0)
    return float(2.0 / np.pi * np.einsum("mn,nm,m->", rho_matrix, d, parity).real)


class TestDisplacementMatrix:
    # fock.wigner builds the elements of D(2 alpha) by recurrence; W(alpha/2) =
    # (2/pi) Tr[rho D(alpha) Pi] on a random rho, whose diagonals are all
    # non-zero, checks every one of them against an oracle matrix

    def test_against_padded_expm(self):
        rho = oracles.random_density(np.random.default_rng(25), 25)
        for alpha in (0.7 - 1.3j, 2.0, -0.4j):
            want = parity_trace(rho, oracles.displacement_expm(alpha, 25))
            assert abs(fock.wigner(fock.DensityOperator(rho), alpha / 2) - want) < 1e-12

    @pytest.mark.parametrize("cutoff", [25, 40, 80, 160])
    @pytest.mark.parametrize("alpha", [1e-8, 1e-4, 0.01, 0.7 - 1.3j, 2.0, 3.0 + 1.0j, 10j])
    def test_matches_scipy_laguerre(self, alpha, cutoff):
        rho = oracles.random_density(np.random.default_rng(cutoff), cutoff)
        want = parity_trace(rho, oracles.displacement_laguerre(alpha, cutoff))
        assert abs(fock.wigner(fock.DensityOperator(rho), alpha / 2) - want) < 1e-12

    def test_zero_displacement_is_identity(self):
        # D(0) = I: W at the origin is the parity sum
        rho = oracles.random_density(np.random.default_rng(9), 9)
        want = parity_trace(rho, np.eye(9))
        assert abs(fock.wigner(fock.DensityOperator(rho), 0.0) - want) < 1e-15

    def test_large_cutoff_no_overflow(self):
        # W(|n><n|, alpha) = (2/pi) (-1)^n e^{-x/2} L_n(x), x = |2 alpha|^2 = 10,
        # up to the top level of a 130-level space
        for n in (0, 64, 129):
            rho = fock.density_from_pure(number_state(n, 130))
            want = 2.0 / np.pi * (-1) ** n * math.exp(-5.0) * eval_laguerre(n, 10.0)
            assert abs(fock.wigner(rho, (3.0 + 1.0j) / 2) - want) < 1e-12


class TestWignerKernel:
    @pytest.mark.parametrize("a0, margin", [(16.0, 110), (20.0, 130)])
    def test_large_coherent_state_closed_form(self, a0, margin):
        # a cutoff with margin holds the state to double precision, so the only
        # error left is the kernel's, and W = (2/pi) e^{-2|alpha - a0|^2} exactly
        rho = fock.density_from_pure(oracles.coherent_vector(a0, fock.series_order(a0) + margin))
        xs = np.linspace(-(a0 + 3.0), a0 + 3.0, 41)
        pts = np.concatenate([xs, 1j * xs, a0 + np.linspace(-1.5, 1.5, 21) * (1 + 0.5j)])
        want = 2.0 / np.pi * np.exp(-2.0 * np.abs(pts - a0) ** 2)
        assert np.max(np.abs(fock.wigner(rho, pts) - want)) < 1e-13

    @pytest.mark.parametrize("a0", [2.0, 6.0], ids=["N35", "N107"])
    @pytest.mark.parametrize(
        "point", [math.inf, math.nan, complex(math.inf, math.nan), 1e155, 1e49, 2.0**150],
        ids=["inf", "nan", "inf_nan", "1e155", "1e49", "2^150"],
    )
    def test_point_past_range_rejected(self, a0, point):
        # a rescaled step multiplies g by about |2 alpha|^2, which overflows past
        # |2 alpha| = sqrt(_RESCALE) = 2^150 (finite points from about 4e48 at
        # N = 35 already did); q_grid rejects a bad point with the same type
        rho = fock.density_from_pure(fock.cat_state(a0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeriesNotConverged):
                fock.wigner(rho, np.array([0.5, point]))

    @pytest.mark.parametrize("a0", [2.0, 6.0], ids=["N35", "N107"])
    @pytest.mark.parametrize("point", [50.0, 1e10j, 2.0**149], ids=["50", "1e10j", "2^149"])
    def test_far_point_in_range_is_zero(self, a0, point):
        # past check_probe_range's 37.6, which q_grid needs, W is still 0.0
        rho = fock.density_from_pure(fock.cat_state(a0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fock.wigner(rho, point) == 0.0

    def test_batch_equals_single_points_bitwise(self):
        # rescaling takes place at the large points, only in some of the batch's rows
        rng = np.random.default_rng(4)
        rho = fock.DensityOperator(oracles.random_density(rng, 120))
        pts = np.array([[0.0, 0.3 - 0.2j, 1e-9j], [-2.5, 14.0 + 9.0j, 25.0j]])
        batched = fock.wigner(rho, pts)
        assert batched.shape == pts.shape
        singles = np.array([fock.wigner(rho, p) for p in pts.ravel()]).reshape(pts.shape)
        assert np.array_equal(batched, singles)
        assert fock.wigner(rho, 0.3 - 0.2j).shape == ()
