import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import pdtrc

from kerrcat import fock, analytic_q
from kerrcat.analytic_q import (
    KerrSystem,
    PhaseGrid,
    _z_matrix,
    coherent_matrix_element,
    grid_normalization,
    q_surface,
)
from kerrcat.errors import SeriesNotConverged

import oracles


def make_sys(alpha0=2.0, mu=1.0, gamma=0.01, detuning=0.0):
    return KerrSystem(alpha0=alpha0, mu=mu, gamma=gamma, detuning=detuning)


def q_at(points, t, sys_):
    """Closed-form Q(alpha, t) at each point: the Fock matrix read out by the probe kernel."""
    return fock.coherent_form(analytic_q._fock_matrix(t, sys_), np.atleast_1d(points)).real


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
         {"mu": math.inf}, {"gamma": math.nan}, {"detuning": -math.inf}],
    )
    def test_rejects_non_finite(self, fields):
        with pytest.raises(ValueError):
            KerrSystem(**{"alpha0": 1.0, "mu": 1.0, "gamma": 0.1, **fields})


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
        assert grid.points().shape == (1, 1)
        assert grid.points()[0, 0] == 1.0 + 2.0j
        assert grid.spacing == 0.0

    def test_point_layout_im_outer(self):
        grid = PhaseGrid(center=0j, half_extent=1.0, resolution=3)
        pts = grid.points()
        assert pts[0, 0] == -1.0 - 1.0j  # first row: lowest imaginary part
        assert pts[0, 2] == 1.0 - 1.0j
        assert pts[2, 0] == -1.0 + 1.0j


class TestZFactor:
    def test_unity_at_t0(self):
        sys_ = make_sys()
        assert np.all(_z_matrix(7, 0.0, sys_) == 1.0 + 0.0j)

    def test_unity_on_diagonal_undamped(self):
        sys_ = make_sys(gamma=0.0)
        assert np.all(np.diag(_z_matrix(9, 5.0, sys_)) == 1.0 + 0.0j)

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        sys_ = make_sys(alpha0=2.0, mu=1.0, gamma=0.01)
        lam = mp.mpf("0.01") + 2j * mp.mpf(1)
        t = mp.mpf("0.5")
        want = mp.e ** (-0.5 * 1 * lam * t + mp.mpf("0.01") * 4 * (1 - mp.e ** (-lam * t)) / lam)
        got = _z_matrix(1, 0.5, sys_)[1, 0]
        assert abs(got - complex(want)) < 1e-14

    def test_degenerate_denominator_continuity(self):
        # gamma -> 0 on the diagonal band crosses the 0/0 point smoothly
        tiny = make_sys(alpha0=2.0, mu=1.0, gamma=1e-9)
        zero = make_sys(alpha0=2.0, mu=1.0, gamma=0.0)
        assert abs(_z_matrix(3, 2.0, tiny)[3, 3] - _z_matrix(3, 2.0, zero)[3, 3]) < 1e-7

    def test_magnitude_bound(self):
        sys_ = make_sys(alpha0=2.0, mu=1.0, gamma=0.3)
        for p, q, t in ((0, 0, 1.0), (4, 1, 2.5), (10, 10, 7.0)):
            assert abs(_z_matrix(10, t, sys_)[p, q]) <= math.exp(0.3 * 4.0 * t) * (1 + 1e-12)


class TestQValue:
    def test_initial_condition_peak(self):
        assert abs(q_at(2.0, 0.0, make_sys())[0] - 1.0) < 1e-10

    def test_initial_condition_offset(self):
        q = q_at([3.0, 2.0 + 1.0j], 0.0, make_sys())
        assert np.max(np.abs(q - math.exp(-1.0))) < 1e-10

    def test_cat_formation_matches_fock(self):
        sys_ = make_sys(gamma=0.0)
        rho = fock.density_from_pure(fock.cat_state(2.0, 40))
        points = [0.0, 0.5 + 0.3j, 2.0, -2.0, 1.0j, -1.5 + 2.2j]
        for a, q in zip(points, q_at(points, math.pi / 2, sys_)):
            assert abs(q - oracles.husimi_brute(rho.elements, a)) < 1e-8

    def test_series_not_converged(self):
        sys_ = make_sys(alpha0=40.0, mu=1.0, gamma=2.0)
        with pytest.raises(SeriesNotConverged):
            q_at(40.0, 5.0, sys_)

    def test_monotone_truncation(self):
        # raising the order beyond the rule moves Q less than the tail bound
        sys_ = make_sys()
        alpha = 2.5 + 1.0j
        order = analytic_q.series_order(sys_) - 1
        vals = {extra: oracles.q_series(alpha, 0.7, sys_, order + extra) for extra in (0, 10, 25)}
        bound = 2.0 * math.sqrt(pdtrc(order, abs(sys_.alpha0) ** 2))
        assert bound <= analytic_q.TAIL_TOL
        assert abs(vals[10] - vals[0]) <= bound
        assert abs(vals[25] - vals[0]) <= bound

    @pytest.mark.parametrize(
        "alpha0, gamma, delta, t",
        [(2.0, 0.01, 0.0, 0.7), (1.5 + 0.5j, 0.3, 0.8, 1.9), (-1.0 + 2.0j, 0.0, -0.5, 3.0),
         (2.5j, 0.1, 0.0, math.pi / 2), (0.7, 0.02, 1.3, 12.0)],
    )
    def test_matches_series_oracle(self, alpha0, gamma, delta, t):
        sys_ = make_sys(alpha0=alpha0, gamma=gamma, detuning=delta)
        points = [0.0, 1.2 - 0.7j, alpha0, -alpha0, 3.0 + 1.0j]
        for a, q in zip(points, q_at(points, t, sys_)):
            assert abs(q - oracles.q_series(a, t, sys_, 60)) < 1e-10

    @pytest.mark.parametrize("alpha0", [0.5, 2.0, 1.0 - 3.0j, 6.0])
    def test_series_order_is_smallest_poisson_cut(self, alpha0):
        sys_ = make_sys(alpha0=alpha0)
        n = analytic_q.series_order(sys_)
        mean = abs(alpha0) ** 2
        assert 2.0 * math.sqrt(pdtrc(n - 1, mean)) <= analytic_q.TAIL_TOL
        assert 2.0 * math.sqrt(pdtrc(n - 2, mean)) > analytic_q.TAIL_TOL

    def test_series_order_matches_pdtrc_cut(self):
        # the pure-math tail sum against SciPy's Poisson tail, every 0.01 up to |alpha0| = 37.6
        amplitudes = np.arange(1, 3761) * 0.01
        n = np.array([analytic_q.series_order(make_sys(alpha0=a)) for a in amplitudes])
        mean = amplitudes**2
        assert np.all(2.0 * np.sqrt(pdtrc(n - 1, mean)) <= analytic_q.TAIL_TOL)
        # n - 1 breaks the bound, so n is the first level the old pdtrc loop accepts
        assert np.all((n == 1) | (2.0 * np.sqrt(pdtrc(n - 2, mean)) > analytic_q.TAIL_TOL))
        assert analytic_q.series_order(make_sys(alpha0=0.0)) == 1

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
        surf = q_surface(grid, 0.0, make_sys())
        gauss = np.exp(-np.abs(grid.points() - 2.0) ** 2)
        assert np.max(np.abs(surf.values - gauss)) < 1e-10

    def test_normalization(self):
        grid = PhaseGrid(center=0j, half_extent=7.0, resolution=201)
        surf = q_surface(grid, 0.6, make_sys())
        assert abs(grid_normalization(surf) - 1.0) < 1e-3

    def test_revival(self):
        sys_ = make_sys(gamma=0.0)
        grid = PhaseGrid(center=0j, half_extent=5.0, resolution=41)
        now = q_surface(grid, 0.0, sys_)
        later = q_surface(grid, 2.0 * math.pi, sys_)
        assert np.max(np.abs(later.values - now.values)) < 1e-8

    def test_parity_half_revival(self):
        sys_ = make_sys(gamma=0.0)
        grid = PhaseGrid(center=0j, half_extent=5.0, resolution=41)
        now = q_surface(grid, 0.0, sys_)
        half = q_surface(grid, math.pi, sys_)
        assert np.max(np.abs(half.values - now.values[::-1, ::-1])) < 1e-8

    def test_kerr_periodicity_generic_time(self):
        sys_ = make_sys(gamma=0.0)
        grid = PhaseGrid(center=0j, half_extent=4.0, resolution=21)
        a = q_surface(grid, 0.73, sys_)
        b = q_surface(grid, 0.73 + 2.0 * math.pi, sys_)
        assert np.max(np.abs(a.values - b.values)) < 1e-8

    def test_degenerate_grid(self):
        surf = q_surface(PhaseGrid(center=2.0 + 0j, half_extent=1.0, resolution=1), 0.0, make_sys())
        assert surf.values.shape == (1, 1)
        assert abs(surf.values[0, 0] - 1.0) < 1e-10

    def test_memory_bounded_by_chunk(self):
        # probes are built PROBE_CHUNK points at a time, so a 301^2 grid
        # never holds a (points x N) array
        grid = PhaseGrid(center=0j, half_extent=7.0, resolution=301)
        tracemalloc.start()
        try:
            q_surface(grid, 0.9, make_sys())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_surface_range_validated(self):
        grid = PhaseGrid(center=0j, half_extent=3.0, resolution=11)
        with pytest.raises(ValueError):
            analytic_q.QSurface(grid=grid, values=np.full((11, 11), 1.5))


def mean_n(surf):
    """<n> from the second moment of Q, on a grid that holds the whole distribution."""
    assert abs(grid_normalization(surf) - 1.0) <= 1e-3
    return oracles.q_moment_mean_n(surf.grid.points(), surf.values, surf.grid.spacing)


class TestMeanN:
    def test_vacuum(self):
        sys_ = KerrSystem(alpha0=0.0, mu=0.0, gamma=0.1)
        grid = PhaseGrid(center=0j, half_extent=5.0, resolution=201)
        surf = q_surface(grid, 0.0, sys_)
        assert abs(mean_n(surf)) < 1e-3

    def test_initial_coherent(self):
        grid = PhaseGrid(center=0j, half_extent=7.0, resolution=201)
        surf = q_surface(grid, 0.0, make_sys())
        assert abs(mean_n(surf) - 4.0) < 2e-3

    def test_damped_mean(self):
        # t = 1/gamma: diagonal dynamics is pure damping whatever mu is
        grid = PhaseGrid(center=0j, half_extent=7.0, resolution=201)
        surf = q_surface(grid, 100.0, make_sys(gamma=0.01))
        assert abs(mean_n(surf) - 4.0 * math.exp(-1.0)) < 2e-3


class TestCrossElement:
    def test_t0_factorizes(self):
        sys_ = make_sys()
        a0 = 2.0

        def overlap(x, y):
            return np.exp(-abs(x) ** 2 / 2 - abs(y) ** 2 / 2 + np.conj(x) * y)

        for beta, alpha in ((1.2 + 0.5j, -0.8 + 0.1j), (0.0, 1.0), (2.0, 2.0)):
            want = overlap(beta, a0) * overlap(a0, alpha)
            got = coherent_matrix_element(beta, alpha, 0.0, sys_)
            assert abs(got - want) < 1e-12

    def test_hermitian_symmetry(self):
        sys_ = make_sys()
        m1 = coherent_matrix_element(1.0 + 0.4j, -0.7j, 0.9, sys_)
        m2 = coherent_matrix_element(-0.7j, 1.0 + 0.4j, 0.9, sys_)
        assert abs(m1 - np.conj(m2)) < 1e-13

    def test_diagonal_matches_q_value(self):
        sys_ = make_sys()
        for a in (0.5, 1.5 - 0.5j):
            assert abs(coherent_matrix_element(a, a, 0.8, sys_).real - q_at(a, 0.8, sys_)[0]) < 1e-12


class TestDetuning:
    def test_detuning_rotates_initial_amplitude(self):
        # H = hbar delta n rotates alpha0 to alpha0 e^{-i delta t}, as the
        # master equation's -i delta (m - n) phase does
        t = 0.6
        delta = 0.8
        sys_d = make_sys(alpha0=2.0, detuning=delta)
        sys_rot = make_sys(alpha0=2.0 * np.exp(-1j * delta * t))
        points = [1.0, 0.5 - 1.5j, 2.0 + 0.1j]
        assert np.max(np.abs(q_at(points, t, sys_d) - q_at(points, t, sys_rot))) < 1e-10
