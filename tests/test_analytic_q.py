import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import pdtrc

from kerrcat import fock, analytic_q
from kerrcat.analytic_q import KerrSystem, PhaseGrid, _kernel, density, grid_normalization, q_surface
from kerrcat.errors import InvariantViolation, SeriesNotConverged

import oracles


def make_sys(alpha0=2.0, mu=1.0, gamma=0.01):
    return KerrSystem(alpha0=alpha0, mu=mu, gamma=gamma)


def q_at(points, t, sys_, detuning=0.0):
    """Closed-form Q(alpha, t) at each point: density(t, sys_), turned, read by the probe kernel."""
    mat = fock.turn(density(t, sys_), detuning, t).elements
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    return np.array([fock.q_grid(mat, np.array([a.real]), np.array([a.imag]))[0, 0] for a in pts])


class TestKerrSystem:
    def test_rejects_both_rates_zero(self):
        with pytest.raises(ValueError):
            KerrSystem(alpha0=1.0, mu=0.0, gamma=0.0)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            KerrSystem(alpha0=1.0, mu=1.0, gamma=-0.1)

    def test_rejects_negative_mu(self):
        with pytest.raises(ValueError):
            KerrSystem(alpha0=1.0, mu=-1.0, gamma=0.1)

    @pytest.mark.parametrize(
        "fields",
        [{"alpha0": complex(math.inf, 0.0)}, {"alpha0": complex(0.0, math.nan)},
         {"mu": math.inf}, {"gamma": math.nan}, {"gamma": -math.inf}],
    )
    def test_rejects_non_finite(self, fields):
        # alpha0's range check runs first, and an inf or NaN |alpha0| is past it
        expected = SeriesNotConverged if "alpha0" in fields else ValueError
        with pytest.raises(expected):
            KerrSystem(**{"alpha0": 1.0, "mu": 1.0, "gamma": 0.1, **fields})

    @pytest.mark.parametrize("alpha0", [38.0, 27.0 + 27.0j, 1e200, 1.7e308 + 1.7e308j])
    def test_owns_alpha0_range(self, alpha0):
        # past PROBE_ABS_MAX, |alpha0| measured by hypot, so none of these overflows
        with pytest.raises(SeriesNotConverged, match="underflows"):
            KerrSystem(alpha0=alpha0, mu=1.0, gamma=0.0)


class TestPhaseGrid:
    def test_spacing(self):
        grid = PhaseGrid(center=0j, half_extent=5.0, resolution=101)
        assert abs(grid.spacing - 0.1) < 1e-15

    def test_rejects_even_resolution(self):
        with pytest.raises(ValueError):
            PhaseGrid(center=0j, half_extent=5.0, resolution=100)

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError):
            PhaseGrid(center=0j, half_extent=0.0, resolution=11)

    @pytest.mark.parametrize(
        "center, extent", [(0j, math.nan), (0j, math.inf), (complex(math.nan, 0.0), 1.0)]
    )
    def test_rejects_non_finite(self, center, extent):
        with pytest.raises(ValueError):
            PhaseGrid(center=center, half_extent=extent, resolution=11)

    def test_degenerate_single_point(self):
        grid = PhaseGrid(center=1.0 + 2.0j, half_extent=3.0, resolution=1)
        assert oracles.grid_points(grid).shape == (1, 1)
        assert oracles.grid_points(grid)[0, 0] == 1.0 + 2.0j
        assert grid.spacing == 0.0

    def test_point_layout_im_outer(self):
        grid = PhaseGrid(center=0j, half_extent=1.0, resolution=3)
        pts = oracles.grid_points(grid)
        assert pts[0, 0] == -1.0 - 1.0j  # first row: lowest imaginary part
        assert pts[0, 2] == 1.0 - 1.0j
        assert pts[2, 0] == -1.0 + 1.0j


class TestZFactor:
    """K_qp, the factor left of Z_pq once its damping is in the amplitudes of a_t."""

    def test_unity_at_t0(self):
        sys_ = make_sys()
        assert np.all(_kernel(7, 0.0, sys_) == 1.0 + 0.0j)

    def test_unity_on_diagonal_undamped(self):
        sys_ = make_sys(gamma=0.0)
        assert np.all(np.diag(_kernel(9, 5.0, sys_)) == 1.0 + 0.0j)

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        sys_ = make_sys(alpha0=2.0, mu=1.0, gamma=0.01)
        g, mu, t = mp.mpf("0.01"), mp.mpf(1), mp.mpf("0.5")

        def x(k):
            lam = g + 2j * mu * k
            return (1 - mp.e ** (-lam * t)) / lam

        q, p = 0, 1  # K_qp = K[q, p]
        want = mp.e ** (-1j * mu * (p + q) * (p - q) * t + g * 4 * (x(p - q) - x(0)))
        got = _kernel(1, 0.5, sys_)[q, p]
        assert abs(got - complex(want)) < 1e-14

    def test_degenerate_denominator_continuity(self):
        # gamma -> 0 crosses the 0/0 point of x_0 smoothly
        tiny = make_sys(alpha0=2.0, mu=1.0, gamma=1e-9)
        zero = make_sys(alpha0=2.0, mu=1.0, gamma=0.0)
        assert np.max(np.abs(_kernel(3, 2.0, tiny) - _kernel(3, 2.0, zero))) < 1e-7

    def test_magnitude_bound(self):
        # no exponent has a positive real part, also where Z_pq overflows; the
        # diagonal is 1, so the populations are Poisson(|a_t|^2)
        for alpha0, t in ((2.0, 7.0), (27.0, 20.0), (37.6, 20.0)):
            kernel = _kernel(40, t, make_sys(alpha0=alpha0, mu=1.0, gamma=0.3))
            assert np.max(np.abs(kernel)) <= 1.0 + 1e-12
            assert np.all(np.diag(kernel) == 1.0 + 0.0j)


class TestDampedAmplitudes:
    """density in the amplitudes of a_t = alpha0 e^{-gamma t/2}, where Z_pq overflows."""

    @pytest.mark.parametrize("alpha0", [27.0, 30.0, 37.6])
    def test_large_amplitude_decays(self, alpha0):
        sys_ = make_sys(alpha0=alpha0, mu=1.0, gamma=0.3)
        want = alpha0**2 * math.exp(-0.3 * 20.0)
        assert abs(fock.expectation_n(density(20.0, sys_)) - want) <= 1e-12 * want

    @pytest.mark.parametrize(
        "alpha0, mu, gamma, delta, t",
        [(2.0, 1.0, 0.01, 0.0, 1.5), (1.5 - 2.0j, 0.3, 0.5, 0.4, 3.0), (4.0j, 2.0, 1.2, -0.7, 0.8),
         (5.5, 1.0, 0.05, 0.0, 4.9), (0.7 + 0.2j, 1.0, 2.0, 0.3, 2.5), (3.0, 1.0, 0.0, 0.2, 2.0)],
    )
    def test_matches_z_form(self, alpha0, mu, gamma, delta, t):
        # rho_qp = c_q conj(c_p) Z_pq, c = <n|alpha0>, where Z_pq is finite; the
        # oracle's own delta term pins the sign of the turn
        sys_ = make_sys(alpha0=alpha0, mu=mu, gamma=gamma)
        rho = fock.turn(density(t, sys_), delta, t).elements
        ref = oracles.z_form_density(sys_, t, rho.shape[0], delta)
        assert np.max(np.abs(rho - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_q_outside_range_is_invariant_violation(self):
        # a valid state (trace 1, smallest eigenvalue -5e-10) whose Q at 0 is 1 + 5e-9
        rho = fock.DensityOperator(np.diag([1.0 + 5e-9] + [-5e-10] * 10))
        with pytest.raises(InvariantViolation):
            q_surface(PhaseGrid(center=0j, half_extent=1.0, resolution=3), rho)


class TestQValue:
    def test_initial_condition_peak(self):
        assert abs(q_at(2.0, 0.0, make_sys())[0] - 1.0) < 1e-10

    def test_initial_condition_offset(self):
        q = q_at([3.0, 2.0 + 1.0j], 0.0, make_sys())
        assert np.max(np.abs(q - math.exp(-1.0))) < 1e-10

    def test_cat_formation_matches_fock(self):
        sys_ = make_sys(gamma=0.0)
        rho = fock.density_from_pure(fock.cat_state(2.0))
        points = [0.0, 0.5 + 0.3j, 2.0, -2.0, 1.0j, -1.5 + 2.2j]
        for a, q in zip(points, q_at(points, math.pi / 2, sys_)):
            assert abs(q - oracles.husimi_brute(rho.elements, a)) < 1e-8

    def test_series_not_converged(self):
        # KerrSystem itself rejects the amplitude, before any Q is computed
        with pytest.raises(SeriesNotConverged):
            q_at(40.0, 5.0, make_sys(alpha0=40.0, mu=1.0, gamma=2.0))

    def test_monotone_truncation(self):
        # raising the order beyond the rule moves Q less than the tail bound
        sys_ = make_sys()
        alpha = 2.5 + 1.0j
        order = fock.series_order(sys_.alpha0) - 1
        vals = {extra: oracles.q_series(alpha, 0.7, sys_, order + extra, 0.0)
                for extra in (0, 10, 25)}
        bound = 2.0 * math.sqrt(pdtrc(order, abs(sys_.alpha0) ** 2))
        assert bound <= fock.TAIL_TOL
        assert abs(vals[10] - vals[0]) <= bound
        assert abs(vals[25] - vals[0]) <= bound

    @pytest.mark.parametrize(
        "alpha0, gamma, delta, t",
        [(2.0, 0.01, 0.0, 0.7), (1.5 + 0.5j, 0.3, 0.8, 1.9), (-1.0 + 2.0j, 0.0, -0.5, 3.0),
         (2.5j, 0.1, 0.0, math.pi / 2), (0.7, 0.02, 1.3, 12.0)],
    )
    def test_matches_series_oracle(self, alpha0, gamma, delta, t):
        sys_ = make_sys(alpha0=alpha0, gamma=gamma)
        points = [0.0, 1.2 - 0.7j, alpha0, -alpha0, 3.0 + 1.0j]
        for a, q in zip(points, q_at(points, t, sys_, delta)):
            assert abs(q - oracles.q_series(a, t, sys_, 60, delta)) < 1e-10

    @pytest.mark.parametrize("alpha0", [0.5, 2.0, 1.0 - 3.0j, 6.0])
    def test_series_order_is_smallest_poisson_cut(self, alpha0):
        n = fock.series_order(alpha0)
        mean = abs(alpha0) ** 2
        assert 2.0 * math.sqrt(pdtrc(n - 1, mean)) <= fock.TAIL_TOL
        assert 2.0 * math.sqrt(pdtrc(n - 2, mean)) > fock.TAIL_TOL
        # the state the rule admits is normalized after truncation to double precision
        v = fock.coherent_state(alpha0)
        assert abs(np.sum(np.abs(v.amplitudes) ** 2) - 1.0) < 1e-12

    def test_series_order_matches_pdtrc_cut(self):
        # the pure-math tail sum against SciPy's Poisson tail, every 0.01 up to |alpha0| = 37.6
        amplitudes = np.arange(1, 3761) * 0.01
        n = np.array([fock.series_order(a) for a in amplitudes])
        mean = amplitudes**2
        assert np.all(2.0 * np.sqrt(pdtrc(n - 1, mean)) <= fock.TAIL_TOL)
        # n - 1 breaks the bound, so n is the first level the old pdtrc loop accepts
        assert np.all((n == 2) | (2.0 * np.sqrt(pdtrc(n - 2, mean)) > fock.TAIL_TOL))
        # two levels at least, so the top one of |0> is empty
        assert fock.series_order(0.0) == fock.series_order(1e-11) == 2

    def test_probe_underflow_not_converged(self):
        # past |alpha| = 37.6 the weight e^{-|alpha|^2/2} is subnormal and Q
        # loses its precision (Q(39) = 0 instead of e^{-1} for alpha0 = 38)
        with pytest.raises(SeriesNotConverged):
            q_at(39.0, 0.0, make_sys(alpha0=38.0))
        with pytest.raises(SeriesNotConverged):
            q_at(39.0, 0.0, make_sys(alpha0=2.0))


class TestQSurface:
    def test_initial_gaussian(self):
        grid = PhaseGrid(center=0j, half_extent=7.0, resolution=101)
        surf = q_surface(grid, density(0.0, make_sys()))
        gauss = np.exp(-np.abs(oracles.grid_points(grid) - 2.0) ** 2)
        assert np.max(np.abs(surf.values - gauss)) < 1e-10

    def test_normalization(self):
        grid = PhaseGrid(center=0j, half_extent=7.0, resolution=201)
        surf = q_surface(grid, density(0.6, make_sys()))
        assert abs(grid_normalization(surf) - 1.0) < 1e-3

    def test_revival(self):
        sys_ = make_sys(gamma=0.0)
        grid = PhaseGrid(center=0j, half_extent=5.0, resolution=41)
        now = q_surface(grid, density(0.0, sys_))
        later = q_surface(grid, density(2.0 * math.pi, sys_))
        assert np.max(np.abs(later.values - now.values)) < 1e-8

    def test_parity_half_revival(self):
        sys_ = make_sys(gamma=0.0)
        grid = PhaseGrid(center=0j, half_extent=5.0, resolution=41)
        now = q_surface(grid, density(0.0, sys_))
        half = q_surface(grid, density(math.pi, sys_))
        assert np.max(np.abs(half.values - now.values[::-1, ::-1])) < 1e-8

    def test_kerr_periodicity_generic_time(self):
        sys_ = make_sys(gamma=0.0)
        grid = PhaseGrid(center=0j, half_extent=4.0, resolution=21)
        a = q_surface(grid, density(0.73, sys_))
        b = q_surface(grid, density(0.73 + 2.0 * math.pi, sys_))
        assert np.max(np.abs(a.values - b.values)) < 1e-8

    def test_degenerate_grid(self):
        grid = PhaseGrid(center=2.0 + 0j, half_extent=1.0, resolution=1)
        surf = q_surface(grid, density(0.0, make_sys()))
        assert surf.values.shape == (1, 1)
        assert abs(surf.values[0, 0] - 1.0) < 1e-10

    def test_memory_bounded_by_chunk(self):
        # probes are built PROBE_CHUNK points at a time, so a 301^2 grid
        # never holds a (points x N) array
        grid = PhaseGrid(center=0j, half_extent=7.0, resolution=301)
        tracemalloc.start()
        try:
            q_surface(grid, density(0.9, make_sys()))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("backend", ["analytic", "numeric"])
    def test_memory_per_point_at_1001(self, backend):
        # the float Q array, 8 bytes a point, is the only one that grows with
        # the grid: each chunk's points come from the axes, and QSurface keeps
        # the array it is given
        res = 1001
        grid = PhaseGrid(center=0j, half_extent=7.0, resolution=res)
        sys_ = make_sys()
        rho = fock.density_from_pure(fock.coherent_state(sys_.alpha0))
        tracemalloc.start()
        try:
            q_surface(grid, density(0.9, sys_) if backend == "analytic" else rho)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * res**2

    def test_surface_range_validated(self):
        grid = PhaseGrid(center=0j, half_extent=3.0, resolution=11)
        with pytest.raises(ValueError):
            analytic_q.QSurface(grid=grid, values=np.full((11, 11), 1.5))

    def test_surface_shape_validated(self):
        grid = PhaseGrid(center=0j, half_extent=3.0, resolution=11)
        with pytest.raises(ValueError, match="does not match grid 11x11"):
            analytic_q.QSurface(grid=grid, values=np.zeros((11, 9)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_without_warning(self, bad):
        grid = PhaseGrid(center=0j, half_extent=3.0, resolution=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                analytic_q.QSurface(grid=grid, values=[[bad]])


def mean_n(surf):
    """<n> from the second moment of Q, on a grid that holds the whole distribution."""
    assert abs(grid_normalization(surf) - 1.0) <= 1e-3
    return oracles.q_moment_mean_n(oracles.grid_points(surf.grid), surf.values, surf.grid.spacing)


class TestMeanN:
    def test_vacuum(self):
        sys_ = KerrSystem(alpha0=0.0, mu=0.0, gamma=0.1)
        grid = PhaseGrid(center=0j, half_extent=5.0, resolution=201)
        surf = q_surface(grid, density(0.0, sys_))
        assert abs(mean_n(surf)) < 1e-3

    def test_initial_coherent(self):
        grid = PhaseGrid(center=0j, half_extent=7.0, resolution=201)
        surf = q_surface(grid, density(0.0, make_sys()))
        assert abs(mean_n(surf) - 4.0) < 2e-3

    def test_damped_mean(self):
        # t = 1/gamma: diagonal dynamics is pure damping whatever mu is
        grid = PhaseGrid(center=0j, half_extent=7.0, resolution=201)
        surf = q_surface(grid, density(100.0, make_sys(gamma=0.01)))
        assert abs(mean_n(surf) - 4.0 * math.exp(-1.0)) < 2e-3


class TestCrossElement:
    """The off-diagonal elements rho_qp of the closed-form density."""

    def test_t0_factorizes(self):
        # rho(0) = |a0><a0|, rho_qp = c_q conj(c_p)
        rho = density(0.0, make_sys()).elements
        c = oracles.coherent_amplitudes_factorial(2.0, rho.shape[0])
        assert np.max(np.abs(rho - np.outer(c, c.conj()))) < 1e-12

    def test_hermitian_symmetry(self):
        rho = density(0.9, make_sys()).elements
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-13


class TestDetuning:
    def test_detuning_rotates_initial_amplitude(self):
        # H = hbar delta n rotates alpha0 to alpha0 e^{-i delta t}: the turned
        # state is the resonant state of the rotated kick
        t = 0.6
        delta = 0.8
        sys_rot = make_sys(alpha0=2.0 * np.exp(-1j * delta * t))
        points = [1.0, 0.5 - 1.5j, 2.0 + 0.1j]
        turned = q_at(points, t, make_sys(), delta)
        assert np.max(np.abs(turned - q_at(points, t, sys_rot))) < 1e-10
