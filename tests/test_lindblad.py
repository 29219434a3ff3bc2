import math
import tracemalloc

import numpy as np
import pytest

from kerrcat import fock, lindblad
from kerrcat.analytic_q import KerrSystem, PhaseGrid, q_surface
from kerrcat.errors import CutoffLeak, CutoffTooSmall

import oracles


def damping_sys(alpha0=2.0, gamma=0.1):
    return KerrSystem(alpha0=alpha0, mu=0.0, gamma=gamma)


def rhs(mat, sys_):
    """d rho / dt of the oracle's dense generator, as a matrix."""
    n = mat.shape[0]
    return (oracles.master_generator(sys_, n) @ mat.ravel()).reshape(n, n)


class TestRhs:
    def test_vacuum_stationary(self):
        rho = fock.density_from_pure(fock.FockVector(np.eye(10)[0]))
        sys_ = KerrSystem(alpha0=0.0, mu=1.0, gamma=0.5)
        assert np.max(np.abs(rhs(rho.elements, sys_))) == 0.0

    def test_number_states_stationary_undamped(self):
        sys_ = KerrSystem(alpha0=0.0, mu=1.0, gamma=0.0)
        for m in (0, 3, 7):
            rho = fock.density_from_pure(fock.FockVector(np.eye(10)[m]))
            assert np.max(np.abs(rhs(rho.elements, sys_))) == 0.0

    def test_single_decay_rates(self):
        rho = fock.density_from_pure(fock.FockVector(np.eye(6)[1]))
        deriv = rhs(rho.elements, damping_sys(alpha0=0.0, gamma=1.0))
        assert abs(deriv[0, 0] - 1.0) < 1e-15
        assert abs(deriv[1, 1] + 1.0) < 1e-15
        deriv[0, 0] = deriv[1, 1] = 0.0
        assert np.max(np.abs(deriv)) == 0.0

    def test_hermiticity_preserving(self):
        rng = np.random.default_rng(1)
        rho = fock.DensityOperator(oracles.random_density(rng, 9))
        sys_ = KerrSystem(alpha0=0.0, mu=0.7, gamma=0.2, detuning=0.1)
        deriv = rhs(rho.elements, sys_)
        assert np.max(np.abs(deriv - deriv.conj().T)) == 0.0

    def test_trace_conserving_inside_cutoff(self):
        # zero-temperature damping only moves population downward, so the
        # would-be boundary inflow gamma N rho_NN sits outside the stored
        # matrix and is identically zero: the truncated generator conserves
        # trace exactly
        rng = np.random.default_rng(2)
        n = 8
        rho = fock.DensityOperator(oracles.random_density(rng, n))
        deriv = rhs(rho.elements, damping_sys(alpha0=0.0, gamma=0.4))
        assert abs(np.trace(deriv)) < 1e-14


class TestEvolve:
    def test_vacuum_constant(self):
        sys_ = KerrSystem(alpha0=0.0, mu=1.0, gamma=0.3)
        rho0 = fock.density_from_pure(fock.FockVector(np.eye(12)[0]))
        for rec in lindblad.evolve(sys_, rho0, (1.0, 2.0)):
            assert abs(rec.rho.elements[0, 0] - 1.0) < 1e-12
            assert rec.mean_n < 1e-12

    def test_pure_damping_poisson_populations(self):
        sys_ = damping_sys(alpha0=2.0, gamma=0.1)
        n = 30
        rho0 = fock.density_from_pure(fock.coherent_state(2.0, n))
        for rec in lindblad.evolve(sys_, rho0, (1.5, 4.0)):
            mean = 4.0 * math.exp(-0.1 * rec.time)
            pops = np.diag(rec.rho.elements).real
            assert np.max(np.abs(pops - oracles.poisson_pmf(np.arange(n), mean))) < 1e-8

    def test_damped_cat_matches_closed_form(self):
        gamma = 0.05
        n = 30
        sys_ = damping_sys(alpha0=2.0, gamma=gamma)
        rho0 = fock.density_from_pure(fock.cat_state(2.0, n))
        for rec in lindblad.evolve(sys_, rho0, (1.0, 3.0)):
            exact = oracles.damped_cat_density(2.0, gamma, rec.time, n)
            assert np.max(np.abs(rec.rho.elements - exact)) < 1e-8

    def test_kerr_cat_formation(self):
        sys_ = KerrSystem(alpha0=2.0, mu=1.0, gamma=0.0)
        n = 30
        rho0 = fock.density_from_pure(fock.coherent_state(2.0, n))
        t_cat = math.pi / 2.0
        rec = lindblad.evolve(sys_, rho0, (t_cat,))[-1]
        assert rec.cat_fidelity >= 1.0 - 1e-10
        assert abs(rec.purity - 1.0) < 1e-10

    def test_kerr_phases_against_oracle(self):
        sys_ = KerrSystem(alpha0=1.5, mu=1.0, gamma=0.0)
        n = 25
        rho0 = fock.density_from_pure(fock.coherent_state(1.5, n))
        t = 0.9
        rec = lindblad.evolve(sys_, rho0, (t,))[-1]
        psi = oracles.kerr_amplitudes(1.5, 1.0, t, n)
        exact = np.outer(psi, psi.conj())
        assert np.max(np.abs(rec.rho.elements - exact)) < 1e-10

    def test_mean_decay_independent_of_mu(self):
        n = 30
        rho0 = fock.density_from_pure(fock.coherent_state(2.0, n))
        times = (0.5, 1.5)
        means = {}
        for mu in (0.0, 1.0):
            sys_ = KerrSystem(alpha0=2.0, mu=mu, gamma=0.1)
            means[mu] = [r.mean_n for r in lindblad.evolve(sys_, rho0, times)]
        for t, m0, m1 in zip(times, means[0.0], means[1.0]):
            law = 4.0 * math.exp(-0.1 * t)
            assert abs(m0 - law) < 1e-8
            assert abs(m1 - law) < 1e-8

    def test_trace_conserved(self):
        sys_ = KerrSystem(alpha0=2.0, mu=1.0, gamma=0.02)
        n = 30
        rho0 = fock.density_from_pure(fock.coherent_state(2.0, n))
        for rec in lindblad.evolve(sys_, rho0, np.linspace(0.1, 1.0, 5)):
            assert rec.trace_error <= 1e-8

    def test_fourth_order_convergence(self):
        # halving dt shrinks the RK4 oracle's error against the closed form ~16x
        gamma = 0.8
        n = 12
        sys_ = damping_sys(alpha0=0.0, gamma=gamma)
        rho0 = np.zeros((n, n), dtype=complex)
        rho0[5, 5] = 1.0
        t = 1.0
        # closed form: binomial cascade from |5><5| under damping
        p = math.exp(-gamma * t)
        exact = np.zeros(n)
        for k in range(6):
            exact[k] = math.comb(5, k) * p**k * (1 - p) ** (5 - k)
        errs = {}
        for dt in (0.05, 0.025):
            out = oracles.rk4_integrate(rho0, sys_, t, dt)
            errs[dt] = np.max(np.abs(np.diag(out).real - exact))
        ratio = errs[0.05] / errs[0.025]
        assert 13.0 < ratio < 22.0

    def test_cutoff_leak_raises(self):
        n = 12
        sys_ = damping_sys(alpha0=0.0, gamma=0.5)
        rho0 = fock.density_from_pure(fock.FockVector(np.eye(n)[n - 1]))
        with pytest.raises(CutoffLeak):
            lindblad.evolve(sys_, rho0, (0.5,))


class TestBandStructure:
    def test_band_masked_matrix_stays_banded(self):
        rng = np.random.default_rng(4)
        n = 10
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        sys_ = KerrSystem(alpha0=0.0, mu=1.0, gamma=0.3)
        for band in (-3, 0, 2):
            on_band = np.eye(n, k=-band, dtype=bool)
            masked = np.where(on_band, raw, 0.0)
            out = lindblad.integrate_matrix(masked, sys_, 0.4)
            off = np.where(on_band, 0.0, out)
            assert np.max(np.abs(off)) == 0.0
            assert np.max(np.abs(out)) > 0.0

    def test_rhs_never_mixes_bands(self):
        sys_ = KerrSystem(alpha0=0.0, mu=0.5, gamma=0.2)
        n = 8
        for band in (1, 4):
            mat = np.eye(n, k=band, dtype=complex)
            out = rhs(mat, sys_)
            off = np.where(np.eye(n, k=band, dtype=bool), 0.0, out)
            assert np.max(np.abs(off)) == 0.0


BATCH_SYSTEMS = [
    (1.0, 0.0, 0.0),
    (1.0, 0.01, 0.0),
    (1.0, 0.3, 0.0),
    (0.7, 0.2, 0.3),  # detuned
    (1e-9, 1e-9, 0.0),  # lam_k -> 0: the Taylor branch on most bands at every time
]


class TestBatchedTimes:
    @pytest.mark.parametrize("mu,gamma,delta", BATCH_SYSTEMS)
    @pytest.mark.parametrize("n", (1, 2, 12, 40))
    def test_stack_equals_scalar_calls(self, mu, gamma, delta, n):
        rng = np.random.default_rng(n)
        mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        sys_ = KerrSystem(alpha0=0.0, mu=mu, gamma=gamma, detuning=delta)
        # t = 0 and 1e-9 put every band in the Taylor branch
        times = np.array([0.0, 1e-9, 0.3, 1.7, 40.0])
        stack = lindblad.integrate_matrix(mat, sys_, times)
        assert stack.shape == (times.size, n, n)
        for t, out in zip(times, stack):
            assert np.array_equal(out, lindblad.integrate_matrix(mat, sys_, float(t)))

    def test_scalar_time_gives_matrix(self):
        mat = np.eye(6, dtype=complex) / 6.0
        sys_ = KerrSystem(alpha0=0.0, mu=1.0, gamma=0.1)
        assert lindblad.integrate_matrix(mat, sys_, 0.5).shape == (6, 6)
        assert lindblad.integrate_matrix(mat, sys_, np.float64(0.5)).shape == (6, 6)
        assert lindblad.integrate_matrix(mat, sys_, np.array([0.5])).shape == (1, 6, 6)

    def test_evolve_equals_single_time_runs(self):
        # 23 times at N = 30 span three blocks of EVOLVE_BLOCK elements
        n = 30
        sys_ = KerrSystem(alpha0=2.0, mu=1.0, gamma=0.05)
        rho0 = fock.density_from_pure(fock.coherent_state(2.0, n))
        times = tuple(float(t) for t in np.linspace(0.0, 2.0, 23))
        assert len(times) > lindblad.EVOLVE_BLOCK // n**2
        batched = lindblad.evolve(sys_, rho0, times)
        assert [r.time for r in batched] == list(times)
        for rec in batched:
            one = lindblad.evolve(sys_, rho0, (rec.time,))[0]
            assert np.array_equal(rec.rho.elements, one.rho.elements)
            for name in ("time", "mean_n", "purity", "trace_error", "cat_fidelity", "coherence"):
                assert getattr(rec, name) == getattr(one, name)

    def test_block_memory_bounded(self):
        # the transient above what the records keep stays at a few blocks,
        # whatever the number of samples
        n = 40
        sys_ = KerrSystem(alpha0=2.0, mu=1.0, gamma=0.0)
        rho0 = fock.density_from_pure(fock.coherent_state(2.0, n))
        times = np.linspace(0.0, math.pi / 2.0, 201)
        tracemalloc.start()
        try:
            records = lindblad.evolve(sys_, rho0, times)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 201
        assert peak - retained <= 2 * 2**20


class TestSpecValidation:
    def test_unsorted_sample_times(self):
        sys_ = KerrSystem(alpha0=1.0, mu=1.0, gamma=0.0)
        rho0 = fock.density_from_pure(fock.coherent_state(1.0, 20))
        with pytest.raises(ValueError):
            lindblad.evolve(sys_, rho0, (0.5, 0.2))

    def test_sample_time_out_of_range(self):
        sys_ = KerrSystem(alpha0=1.0, mu=1.0, gamma=0.0)
        rho0 = fock.density_from_pure(fock.coherent_state(1.0, 20))
        for t in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                lindblad.evolve(sys_, rho0, (0.0, t))

    def test_cutoff_below_rule(self):
        # the rule asks for 30 levels at |alpha0| = 2; 20 still hold |alpha0>
        # to 1e-12 when |alpha0| = 1, so only the rule rejects the run
        sys_ = KerrSystem(alpha0=2.0, mu=1.0, gamma=0.0)
        rho0 = fock.density_from_pure(fock.coherent_state(1.0, 20))
        with pytest.raises(CutoffTooSmall):
            lindblad.evolve(sys_, rho0, (1.0,))


class TestQFromRho:
    def test_vacuum_surface(self):
        rho = fock.density_from_pure(fock.FockVector(np.eye(15)[0]))
        grid = PhaseGrid(center=0j, half_extent=3.0, resolution=21)
        surf = lindblad.q_from_rho(rho, grid)
        assert np.max(np.abs(surf.values - np.exp(-np.abs(grid.points()) ** 2))) < 1e-12

    def test_coherent_gaussian(self):
        rho = fock.density_from_pure(fock.coherent_state(2.0, 40))
        grid = PhaseGrid(center=0j, half_extent=5.0, resolution=41)
        surf = lindblad.q_from_rho(rho, grid)
        gauss = np.exp(-np.abs(grid.points() - 2.0) ** 2)
        assert np.max(np.abs(surf.values - gauss)) < 1e-10

    def test_matches_pointwise_husimi(self):
        rng = np.random.default_rng(9)
        rho = fock.DensityOperator(oracles.random_density(rng, 12))
        grid = PhaseGrid(center=0.5 - 0.5j, half_extent=2.0, resolution=9)
        surf = lindblad.q_from_rho(rho, grid)
        pts = grid.points()
        for i in range(9):
            for j in range(9):
                assert abs(surf.values[i, j] - oracles.husimi_brute(rho.elements, pts[i, j])) < 1e-12

    def test_dual_path_agreement(self):
        sys_ = KerrSystem(alpha0=2.0, mu=1.0, gamma=0.01)
        n = 40
        rho0 = fock.density_from_pure(fock.coherent_state(2.0, n))
        t_cat = math.pi / 2.0
        times = (0.25 * t_cat, 0.5 * t_cat, t_cat)
        grid = PhaseGrid(center=0j, half_extent=5.0, resolution=41)
        for rec in lindblad.evolve(sys_, rho0, times):
            ana = q_surface(grid, rec.time, sys_)
            num = lindblad.q_from_rho(rec.rho, grid)
            assert np.max(np.abs(ana.values - num.values)) < 1e-6

    @pytest.mark.parametrize("gamma", (0.0, 0.01, 0.3))
    @pytest.mark.parametrize("delta", (0.3, -0.8, 1.5))
    def test_dual_path_agreement_detuned(self, delta, gamma):
        alpha0 = 1.5 + 0.5j
        sys_ = KerrSystem(alpha0=alpha0, mu=1.0, gamma=gamma, detuning=delta)
        n = fock.default_cutoff(alpha0) + 10
        rho0 = fock.density_from_pure(fock.coherent_state(alpha0, n))
        times = (0.7, 1.9, 3.0)
        grid = PhaseGrid(center=0j, half_extent=5.0, resolution=21)
        for rec in lindblad.evolve(sys_, rho0, times):
            ana = q_surface(grid, rec.time, sys_)
            num = lindblad.q_from_rho(rec.rho, grid)
            assert np.max(np.abs(ana.values - num.values)) < 1e-6
