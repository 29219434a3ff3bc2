import math
import tracemalloc

import numpy as np
import pytest

from kerrcat import fock, lindblad
from kerrcat.analytic_q import KerrSystem, PhaseGrid, density, q_surface

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
        for rho in lindblad.evolve(sys_, rho0, (1.0, 2.0)):
            assert abs(rho.elements[0, 0] - 1.0) < 1e-12
            assert fock.expectation_n(rho) < 1e-12

    def test_pure_damping_poisson_populations(self):
        sys_ = damping_sys(alpha0=2.0, gamma=0.1)
        n = fock.series_order(2.0)
        rho0 = fock.density_from_pure(fock.coherent_state(2.0))
        times = (1.5, 4.0)
        for t, rho in zip(times, lindblad.evolve(sys_, rho0, times)):
            mean = 4.0 * math.exp(-0.1 * t)
            pops = np.diag(rho.elements).real
            assert np.max(np.abs(pops - oracles.poisson_pmf(np.arange(n), mean))) < 1e-8

    def test_damped_cat_matches_closed_form(self):
        gamma = 0.05
        n = fock.series_order(2.0)
        sys_ = damping_sys(alpha0=2.0, gamma=gamma)
        rho0 = fock.density_from_pure(fock.cat_state(2.0))
        times = (1.0, 3.0)
        for t, rho in zip(times, lindblad.evolve(sys_, rho0, times)):
            exact = oracles.damped_cat_density(2.0, gamma, t, n)
            assert np.max(np.abs(rho.elements - exact)) < 1e-8

    def test_kerr_cat_formation(self):
        sys_ = KerrSystem(alpha0=2.0, mu=1.0, gamma=0.0)
        rho0 = fock.density_from_pure(fock.coherent_state(2.0))
        t_cat = math.pi / 2.0
        rho, = lindblad.evolve(sys_, rho0, (t_cat,))
        assert fock.fidelity(rho, fock.cat_state(2.0)) >= 1.0 - 1e-10
        assert abs(fock.purity(rho) - 1.0) < 1e-10

    def test_kerr_phases_against_oracle(self):
        sys_ = KerrSystem(alpha0=1.5, mu=1.0, gamma=0.0)
        n = fock.series_order(1.5)
        rho0 = fock.density_from_pure(fock.coherent_state(1.5))
        t = 0.9
        rho, = lindblad.evolve(sys_, rho0, (t,))
        psi = oracles.kerr_amplitudes(1.5, 1.0, t, n)
        exact = np.outer(psi, psi.conj())
        assert np.max(np.abs(rho.elements - exact)) < 1e-10

    def test_mean_decay_independent_of_mu(self):
        rho0 = fock.density_from_pure(fock.coherent_state(2.0))
        times = (0.5, 1.5)
        means = {}
        for mu in (0.0, 1.0):
            sys_ = KerrSystem(alpha0=2.0, mu=mu, gamma=0.1)
            means[mu] = [fock.expectation_n(r) for r in lindblad.evolve(sys_, rho0, times)]
        for t, m0, m1 in zip(times, means[0.0], means[1.0]):
            law = 4.0 * math.exp(-0.1 * t)
            assert abs(m0 - law) < 1e-8
            assert abs(m1 - law) < 1e-8

    def test_trace_conserved(self):
        # the exact propagator holds |tr rho - 1| at rounding level, far inside
        # the 1e-10 trace check of every DensityOperator it yields
        for alpha0, gamma, delta in (
            (2.0, 0.02, 0.0), (6.0 * np.exp(1j), 0.1, 0.3), (12.0, 1.0, -0.3), (12.0j, 1e-3, 0.3)
        ):
            sys_ = KerrSystem(alpha0=alpha0, mu=1.0, gamma=gamma, detuning=delta)
            for psi in (fock.coherent_state(alpha0), fock.cat_state(alpha0)):
                rho0 = fock.density_from_pure(psi)
                for rho in lindblad.evolve(sys_, rho0, (0.1, 0.55, 1.0, 20.0)):
                    assert abs(float(np.trace(rho.elements).real) - 1.0) <= 1e-13

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

    @pytest.mark.parametrize(
        "sys_",
        [KerrSystem(alpha0=0.0, mu=1.0, gamma=0.5, detuning=0.3),
         damping_sys(alpha0=0.0, gamma=0.5),
         KerrSystem(alpha0=0.0, mu=1.0, gamma=0.0)],
        ids=["damped_detuned_kerr", "damping_only", "undamped"],
    )
    def test_truncation_is_exact(self, sys_):
        # d rho_mn/dt reads only rho_mn and rho_{m+1,n+1}, so levels that start
        # empty stay empty: the N-level run is the leading block of the run
        # padded with zeros, bit for bit, even for |11><11|, all in the top level
        rng = np.random.default_rng(6)
        top = fock.density_from_pure(fock.FockVector(np.eye(12)[11])).elements
        times = (0.0, 0.5, 2.0)
        for mat in (top, oracles.random_density(rng, 12), oracles.random_density(rng, 35)):
            n = mat.shape[0]
            padded = np.zeros((n + 3, n + 3), dtype=complex)
            padded[:n, :n] = mat
            states = lindblad.evolve(sys_, fock.DensityOperator(mat), times)
            wider = lindblad.evolve(sys_, fock.DensityOperator(padded), times)
            for rho, big in zip(states, wider):
                assert np.array_equal(big.elements[:n, :n], rho.elements)
                assert not big.elements[n:].any() and not big.elements[:, n:].any()


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
        assert lindblad.integrate_matrix(mat, sys_, np.array([])).shape == (0, 6, 6)

    def test_evolve_equals_single_time_runs(self):
        # 23 times at N = 35 span four blocks of EVOLVE_BLOCK elements
        n = fock.series_order(2.0)
        sys_ = KerrSystem(alpha0=2.0, mu=1.0, gamma=0.05)
        rho0 = fock.density_from_pure(fock.coherent_state(2.0))
        times = tuple(float(t) for t in np.linspace(0.0, 2.0, 23))
        assert len(times) > lindblad.EVOLVE_BLOCK // n**2
        batched = list(lindblad.evolve(sys_, rho0, times))
        assert len(batched) == len(times)
        for t, rho in zip(times, batched):
            one, = lindblad.evolve(sys_, rho0, (t,))
            assert np.array_equal(rho.elements, one.elements)

    def test_gamma_zero_builds_no_term(self):
        # every weight is zero, so the result is the phase alone
        n = 25
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        sys_ = KerrSystem(alpha0=0.0, mu=1.0, gamma=0.0, detuning=0.3)
        m, k = np.indices((n, n))
        times = np.array([0.0, 0.7, 40.0])
        # mu t and delta t, each reduced mod 2 pi once, times its level difference
        mu_t, delta_t = (np.fmod(rate * times, 2 * np.pi)[:, None, None] for rate in (1.0, 0.3))
        angle = mu_t * (m**2 - k**2) - delta_t * (m - k)
        out = lindblad.integrate_matrix(mat, sys_, times)
        # phase first, as integrate_matrix multiplies: NumPy's complex
        # product does not commute bit for bit
        assert np.array_equal(out, np.exp(1j * angle) * mat)

    def test_blocking_cannot_change_a_record(self, monkeypatch):
        # one time per call, the default blocks and one call for all must
        # return the same states bit for bit from a damped random mixed state
        n = 30
        sys_ = KerrSystem(alpha0=1.0, mu=1.0, gamma=0.01)
        mat = np.zeros((n, n), dtype=complex)
        mat[:20, :20] = oracles.random_density(np.random.default_rng(2), 20)
        rho0 = fock.DensityOperator(mat)
        times = tuple(float(t) for t in np.geomspace(1e-9, 1.5, 23))
        runs = []
        for block in (1, lindblad.EVOLVE_BLOCK, 10**9):
            monkeypatch.setattr(lindblad, "EVOLVE_BLOCK", block)
            runs.append(list(lindblad.evolve(sys_, rho0, times)))
        assert all(len(states) == len(times) for states in runs)
        for states in zip(*runs):
            for rho in states[1:]:
                assert np.array_equal(rho.elements, states[0].elements)

    def test_block_memory_bounded(self):
        # the stream holds one block of times (6 at N = 35) and the state in
        # hand, so the whole peak stays at a few blocks, whatever the number
        # of samples; the 201 states at 19.6 KiB each would take 3.9 MiB
        sys_ = KerrSystem(alpha0=2.0, mu=1.0, gamma=0.0)
        rho0 = fock.density_from_pure(fock.coherent_state(2.0))
        times = np.linspace(0.0, math.pi / 2.0, 201)
        tracemalloc.start()
        try:
            count = sum(1 for _ in lindblad.evolve(sys_, rho0, times))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 201
        assert peak <= 2**20


class TestSpecValidation:
    def test_time_order_is_free(self):
        # each time is propagated from rho(0) on its own, so the order of the
        # times cannot change a state
        sys_ = KerrSystem(alpha0=1.0, mu=1.0, gamma=0.01)
        rho0 = fock.density_from_pure(fock.coherent_state(1.0))
        backward = [rho.elements for rho in lindblad.evolve(sys_, rho0, (0.5, 0.2))]
        forward = [rho.elements for rho in lindblad.evolve(sys_, rho0, (0.2, 0.5))]
        assert len(backward) == 2
        assert all(map(np.array_equal, backward, forward[::-1]))

    def test_sample_time_out_of_range(self):
        sys_ = KerrSystem(alpha0=1.0, mu=1.0, gamma=0.0)
        rho0 = fock.density_from_pure(fock.coherent_state(1.0))
        for t in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                list(lindblad.evolve(sys_, rho0, (0.0, t)))


class TestQFromRho:
    """Q of a numeric-route DensityOperator, by the shared q_surface."""

    def test_vacuum_surface(self):
        rho = fock.density_from_pure(fock.FockVector(np.eye(15)[0]))
        grid = PhaseGrid(center=0j, half_extent=3.0, resolution=21)
        surf = q_surface(grid, rho)
        assert np.max(np.abs(surf.values - np.exp(-np.abs(grid.points()) ** 2))) < 1e-12

    def test_coherent_gaussian(self):
        rho = fock.density_from_pure(fock.coherent_state(2.0))
        grid = PhaseGrid(center=0j, half_extent=5.0, resolution=41)
        surf = q_surface(grid, rho)
        gauss = np.exp(-np.abs(grid.points() - 2.0) ** 2)
        assert np.max(np.abs(surf.values - gauss)) < 1e-10

    def test_matches_pointwise_husimi(self):
        rng = np.random.default_rng(9)
        rho = fock.DensityOperator(oracles.random_density(rng, 12))
        grid = PhaseGrid(center=0.5 - 0.5j, half_extent=2.0, resolution=9)
        surf = q_surface(grid, rho)
        pts = grid.points()
        for i in range(9):
            for j in range(9):
                assert abs(surf.values[i, j] - oracles.husimi_brute(rho.elements, pts[i, j])) < 1e-12

    def test_dual_path_agreement(self):
        sys_ = KerrSystem(alpha0=2.0, mu=1.0, gamma=0.01)
        rho0 = fock.density_from_pure(fock.coherent_state(2.0))
        t_cat = math.pi / 2.0
        times = (0.25 * t_cat, 0.5 * t_cat, t_cat)
        grid = PhaseGrid(center=0j, half_extent=5.0, resolution=41)
        for t, rho in zip(times, lindblad.evolve(sys_, rho0, times)):
            ana = q_surface(grid, density(t, sys_))
            num = q_surface(grid, rho)
            assert np.max(np.abs(ana.values - num.values)) < 1e-6

    @pytest.mark.parametrize("gamma", (0.0, 0.01, 0.3))
    @pytest.mark.parametrize("delta", (0.3, -0.8, 1.5))
    def test_dual_path_agreement_detuned(self, delta, gamma):
        alpha0 = 1.5 + 0.5j
        sys_ = KerrSystem(alpha0=alpha0, mu=1.0, gamma=gamma, detuning=delta)
        rho0 = fock.density_from_pure(fock.coherent_state(alpha0))
        times = (0.7, 1.9, 3.0)
        grid = PhaseGrid(center=0j, half_extent=5.0, resolution=21)
        for t, rho in zip(times, lindblad.evolve(sys_, rho0, times)):
            ana = q_surface(grid, density(t, sys_))
            num = q_surface(grid, rho)
            assert np.max(np.abs(ana.values - num.values)) < 1e-6

    @pytest.mark.parametrize(
        "alpha0, gamma, t",
        [(2.0, 1e-7, 1e7), (2.0, 1e-7, 3e7), (3.0, 1e-8, 1e8), (2.0, 1e-9, 1e9)],
    )
    def test_dual_path_agreement_at_long_damped_times(self, alpha0, gamma, t):
        # the closed form's band weights take lam_k t = (gamma + 2 i mu k) t
        # unreduced, and at gamma t near 1 the damped part they weight is not
        # small; up to mu t = 1e9 the backends still agree (measured max |dQ|
        # 2.5e-16 to 5.6e-16)
        sys_ = KerrSystem(alpha0=alpha0, mu=1.0, gamma=gamma)
        rho0 = fock.density_from_pure(fock.coherent_state(alpha0))
        rho, = lindblad.evolve(sys_, rho0, (t,))  # both states validate as they are built
        grid = PhaseGrid(center=0j, half_extent=alpha0 + 5.0, resolution=41)
        ana = q_surface(grid, density(t, sys_))
        num = q_surface(grid, rho)
        assert np.max(np.abs(ana.values - num.values)) <= 1e-6
