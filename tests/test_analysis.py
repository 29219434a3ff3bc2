import math

import numpy as np
import pytest

from kerrcat import analysis, fock, lindblad
from kerrcat.analytic_q import KerrSystem, density

import oracles


def damped_cat_coherences(alpha0, gamma, t_final=None, samples=161):
    """Sample times and the coherence of the damping-only cat's state at each."""
    if t_final is None:
        t_final = 2.0 * analysis.WINDOW_DEPTH / (alpha0**2 * gamma)
    times = np.linspace(0.0, t_final, samples)
    rho0 = fock.density_from_pure(fock.cat_state(alpha0))
    states = lindblad.evolve(KerrSystem(alpha0=alpha0, mu=0.0, gamma=gamma), rho0, times)
    return times, [analysis.coherence_metric(r, alpha0, t, gamma) for t, r in zip(times, states)]


def fitted_time(times, coherences):
    return analysis.decoherence_fit(times, coherences).time


def cat_fidelity(rho, alpha0):
    """<cat| rho |cat> against the two-branch target for alpha0."""
    return fock.fidelity(rho, fock.cat_state(alpha0))


class TestCatFidelity:
    def test_pure_cat(self):
        rho = fock.density_from_pure(fock.cat_state(2.0))
        assert abs(cat_fidelity(rho, 2.0) - 1.0) < 1e-12

    def test_kerr_evolution_reaches_cat(self):
        sys_ = KerrSystem(alpha0=2.0, mu=1.0, gamma=0.0)
        rho0 = fock.density_from_pure(fock.coherent_state(2.0))
        t_cat = math.pi / 2.0
        rho, = lindblad.evolve(sys_, rho0, (t_cat,))
        assert cat_fidelity(rho, 2.0) >= 1.0 - 1e-10

    def test_single_branch_fidelity(self):
        # |<cat|a0>|^2 = (1 + e^{-4 |a0|^2}) / 2, brute forced
        rho = fock.density_from_pure(fock.coherent_state(2.0))
        cat = oracles.paper_cat_amplitudes(2.0, 40)
        coh = oracles.coherent_amplitudes_factorial(2.0, 40)
        brute = abs(np.vdot(cat, coh / np.linalg.norm(coh))) ** 2
        got = cat_fidelity(rho, 2.0)
        assert abs(got - brute) < 1e-12
        assert abs(got - 0.5) < 1e-6

    def test_global_phase_invariance(self):
        cat = fock.cat_state(1.5)
        for theta in (0.3, 1.0, 2.7):
            rotated = fock.FockVector(cat.amplitudes * np.exp(1j * theta))
            rho = fock.density_from_pure(rotated)
            assert abs(cat_fidelity(rho, 1.5) - 1.0) < 1e-12


class TestCoherenceMetric:
    def test_pure_cat_is_one(self):
        rho = fock.density_from_pure(fock.cat_state(2.0))
        assert abs(analysis.coherence_metric(rho, 2.0, 0.0, 0.0) - 1.0) < 1e-9

    def test_incoherent_mixture_is_small(self):
        plus = fock.density_from_pure(fock.coherent_state(2.0)).elements
        minus = fock.density_from_pure(fock.coherent_state(-2.0)).elements
        rho = fock.DensityOperator(0.5 * (plus + minus))
        got = analysis.coherence_metric(rho, 2.0, 0.0, 0.0)
        g = math.exp(-2.0 * 4.0)
        assert abs(got - 2.0 * g / (1.0 + g * g)) < 1e-10
        assert got < 1e-3

    def test_damped_decay_law(self):
        # full exact law, including the branch-overlap correction
        gamma = 0.01
        times, coherences = damped_cat_coherences(2.0, gamma, t_final=8.0, samples=17)
        for t, c in zip(times, coherences):
            exact = oracles.damped_cat_coherence(2.0, gamma, t)
            assert abs(c - exact) < 1e-8

    def test_damped_decay_matches_idealized_slope(self):
        # ln C tracks -2 |a0|^2 (1 - e^{-gamma t}) while branches stay distinct
        gamma = 0.01
        times, coherences = damped_cat_coherences(2.0, gamma, t_final=8.0, samples=17)
        for t, c in zip(times[1:], coherences[1:]):
            ideal = -2.0 * 4.0 * (-math.expm1(-gamma * t))
            assert abs(math.log(c) - ideal) < 2e-3

    def test_branch_relabeling_symmetry(self):
        rng = np.random.default_rng(21)
        rho = fock.DensityOperator(oracles.random_density(rng, 25))
        a = analysis.coherence_metric(rho, 1.5, 0.7, 0.1)
        b = analysis.coherence_metric(rho, -1.5, 0.7, 0.1)
        assert abs(a - b) < 1e-14

    def test_degenerate_branches(self):
        rho = fock.density_from_pure(fock.FockVector(np.eye(10)[5]))
        assert math.isnan(analysis.coherence_metric(rho, 0.0, 0.0, 0.0))

    def test_numpy_time_past_the_range_is_the_vacuum_limit(self):
        # a NumPy time, as a linspace gives, is taken as a Python float: gamma t
        # past the range is inf without a RuntimeWarning, and e^{-inf} = 0 probes
        # the vacuum; a finite product keeps its bits
        rho = fock.density_from_pure(fock.coherent_state(0.0))
        assert analysis.coherence_metric(rho, 1.0, np.float64(1e300), 1e9) == 1.0
        cat = fock.density_from_pure(fock.cat_state(2.0))
        assert (analysis.coherence_metric(cat, 2.0, np.float64(0.7), 0.1)
                == analysis.coherence_metric(cat, 2.0, 0.7, 0.1))

    @pytest.mark.parametrize("gamma", [0.0, 0.01])
    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_time_out_of_range(self, t, gamma):
        # lindblad.evolve's rule, 0 <= t < inf, for each function that takes one time
        sys_ = KerrSystem(alpha0=2.0, mu=1.0, gamma=gamma)
        rho = density(0.0, sys_)
        with pytest.raises(ValueError, match="finite and non-negative"):
            density(t, sys_)
        with pytest.raises(ValueError, match="finite and non-negative"):
            analysis.coherence_metric(rho, 2.0, t, gamma)


class TestFit:
    def test_exact_exponential(self):
        tau0 = 7.3
        times = np.linspace(0.0, 0.5, 400)
        fitted = analysis.decoherence_fit(times, np.exp(-times / tau0)).time
        assert abs(fitted - tau0) / tau0 < 1e-6

    @pytest.mark.parametrize("length", [1e-13, 1e298])
    def test_window_length_extremes(self, length):
        # a decay that starts at the first sample, t = length, and leaves the
        # window (depth 0.02) at twice that: 401 of the 801 samples are fitted
        tau = length / analysis.WINDOW_DEPTH
        times = np.linspace(length, 3.0 * length, 801)
        result = analysis.decoherence_fit(times, np.exp(-(times - length) / tau))
        assert result.n_points == 402
        assert abs(result.time - tau) / tau < 1e-9

    def test_fit_reports_residual(self):
        times = np.linspace(0.0, 0.2, 200)
        result = analysis.decoherence_fit(times, np.exp(-times / 3.0))
        assert result.residual < 1e-12
        assert result.n_points >= 5
        assert result.time > 0

    def test_damped_cat_alpha2(self):
        # 1/e time 1/(2 gamma |a0|^2) = 12.5 for a0 = 2, gamma = 0.01
        fitted = fitted_time(*damped_cat_coherences(2.0, 0.01))
        assert abs(fitted - 12.5) / 12.5 < 0.05

    def test_amplitude_scaling_ratio(self):
        taus = {}
        for a0 in (1.0, 2.0):
            taus[a0] = fitted_time(*damped_cat_coherences(a0, 0.01))
        assert abs(taus[1.0] / taus[2.0] - 4.0) / 4.0 < 0.10

    def test_gamma_scaling_ratio(self):
        g = 0.01
        t1 = fitted_time(*damped_cat_coherences(1.5, g))
        t2 = fitted_time(*damped_cat_coherences(1.5, 2 * g))
        assert abs(t1 / t2 - 2.0) / 2.0 < 0.10

    def test_insufficient_decay(self):
        # C never leaves the window, so no rate is certified
        times = np.linspace(0.0, 5.0, 50)
        result = analysis.decoherence_fit(times, np.ones_like(times))
        assert result.time == math.inf
        assert math.isnan(result.residual)
        assert result.n_points == 50

    def test_unresolvable_rate_is_a_lower_bound(self):
        # the slope -2e-309 is subnormal, and -1 / slope overflows to inf
        times = np.linspace(0.0, 1.8e307, 161)
        result = analysis.decoherence_fit(times, np.exp(-2e-309 * times))
        assert result.time == math.inf
        assert math.isnan(result.residual)

    def test_too_few_points(self):
        result = analysis.decoherence_fit((0.0, 1.0, 2.0), (1.0, 0.5, 0.25))
        assert result.time == math.inf
        assert math.isnan(result.residual)
        assert result.n_points == 2

    def test_rate_linear_in_alpha0_squared(self):
        gamma = 0.01
        alphas = (1.0, 1.5, 2.0, 3.0)
        rates = []
        for a0 in alphas:
            rates.append(1.0 / fitted_time(*damped_cat_coherences(a0, gamma)))
        xs = np.array([a * a for a in alphas])
        ys = np.array(rates)
        design = np.vstack([np.ones_like(xs), xs]).T
        coef, res, _, _ = np.linalg.lstsq(design, ys, rcond=None)
        r_sq = 1.0 - res[0] / np.sum((ys - ys.mean()) ** 2)
        assert r_sq >= 0.99

    def test_analytic_and_numeric_paths_agree(self, monkeypatch):
        # mu > 0, gamma > 0: branch coherence sampled at odd cat times, where
        # the transient state is a two-branch cat; the closed-form density and
        # the propagator must yield the same fitted time
        a0 = 1.5
        gamma = 0.01
        sys_ = KerrSystem(alpha0=a0, mu=1.0, gamma=gamma)
        t_cat = math.pi / 2.0
        times = tuple((2 * k + 1) * t_cat for k in range(13))

        c_analytic = [analysis.coherence_metric(density(t, sys_), a0, t, gamma) for t in times]

        rho0 = fock.density_from_pure(fock.coherent_state(a0))
        states = lindblad.evolve(sys_, rho0, times)
        c_numeric = [analysis.coherence_metric(r, a0, t, gamma) for t, r in zip(times, states)]

        for c_a, c_n in zip(c_analytic, c_numeric):
            assert abs(c_a - c_n) < 1e-6

        # the odd-cat-time grid is too coarse for the default window
        monkeypatch.setattr(analysis, "WINDOW_DEPTH", 0.3)
        tau_analytic = fitted_time(times, c_analytic)
        tau_numeric = fitted_time(times, c_numeric)
        assert abs(tau_analytic - tau_numeric) / tau_numeric < 0.02


class TestWignerSlice:
    # W along lines through the origin, each line one batched fock.wigner call

    def test_vacuum_peak(self):
        rho = fock.density_from_pure(fock.FockVector(np.eye(15)[0]))
        xs = np.linspace(-3.0, 3.0, 31)
        for direction in (1.0, 1j):
            ws = fock.wigner(rho, direction * xs)
            assert abs(ws[15] - 2.0 / math.pi) < 1e-12  # xs[15] is the origin
            assert ws.max() == pytest.approx(2.0 / math.pi, abs=1e-12)

    def test_cat_fringes_against_dense_oracle(self):
        rho = fock.density_from_pure(fock.cat_state(2.0))
        xs = np.linspace(-2.0, 2.0, 41)
        ws = fock.wigner(rho, 1j * xs)
        for x, w in zip(xs[::5], ws[::5]):
            assert abs(w - oracles.wigner_dense(rho.elements, 1j * x)) < 1e-8
        assert np.max(np.abs(ws)) > 0.5  # fringes reach near 2/pi

    def test_fringe_period(self):
        # imaginary-axis oscillation period pi / (2 |a0|) for real a0
        a0 = 2.0
        rho = fock.density_from_pure(fock.cat_state(a0))
        xs = np.linspace(-1.5, 1.5, 601)
        ws = fock.wigner(rho, 1j * xs)
        zero_crossings = np.nonzero(np.diff(np.sign(ws)))[0]
        gaps = np.diff(xs[zero_crossings])
        # consecutive zeros sit half a period apart
        assert abs(np.median(gaps) - math.pi / (4.0 * a0)) < 0.02

    def test_mixture_is_fringe_free(self):
        plus = fock.density_from_pure(fock.coherent_state(2.0)).elements
        minus = fock.density_from_pure(fock.coherent_state(-2.0)).elements
        rho = fock.DensityOperator(0.5 * (plus + minus))
        xs = np.linspace(-2.0, 2.0, 21)
        for x, w in zip(xs, fock.wigner(rho, 1j * xs)):
            two_gauss = (1.0 / math.pi) * (
                math.exp(-2.0 * abs(1j * x - 2.0) ** 2)
                + math.exp(-2.0 * abs(1j * x + 2.0) ** 2)
            )
            assert abs(w - two_gauss) < 1e-8
            assert abs(w - oracles.wigner_dense(rho.elements, 1j * x)) < 1e-8

    @pytest.mark.parametrize("a0", [16.0, 20.0])
    def test_macroscopic_cat_stays_bounded(self, a0):
        # validate's lines at |alpha0| = 16 and 20, where x = |2 alpha|^2 reaches
        # 1444 and 2116 and e^{-x/2} underflows; any overflow warning is an error
        rho = fock.density_from_pure(fock.cat_state(a0))
        line = np.linspace(-(a0 + 3.0), a0 + 3.0, 41)
        across = 1j * np.linspace(-math.pi / a0, math.pi / a0, 65)
        ws = fock.wigner(rho, np.concatenate([1j * line, line, across]))
        assert np.all(np.isfinite(ws))
        assert np.max(np.abs(ws)) <= 2.0 / math.pi + 1e-9
