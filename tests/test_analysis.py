import math

import numpy as np
import pytest

from kerrcat import analysis, fock, lindblad
from kerrcat.analytic_q import KerrSystem, coherent_matrix_element
from kerrcat.errors import DegenerateBranches, InsufficientDecay

import oracles


def damped_cat_records(alpha0, gamma, t_final=None, samples=161):
    n = fock.default_cutoff(alpha0)
    if t_final is None:
        t_final = 2.0 * analysis.WINDOW_DEPTH / (alpha0**2 * gamma)
    times = np.linspace(0.0, t_final, samples)
    rho0 = fock.density_from_pure(fock.cat_state(alpha0, n))
    return lindblad.evolve(KerrSystem(alpha0=alpha0, mu=0.0, gamma=gamma), rho0, times)


def fitted_time(records, **kwargs):
    """fit_decoherence_time over the (time, coherence) pairs of evolve records."""
    return analysis.fit_decoherence_time(
        [r.time for r in records], [r.coherence for r in records], **kwargs
    )


def cat_fidelity(rho, alpha0):
    """<cat| rho |cat> against the two-branch target for alpha0."""
    return fock.fidelity(rho, fock.cat_state(alpha0, rho.cutoff))


class TestCatFidelity:
    def test_pure_cat(self):
        rho = fock.density_from_pure(fock.cat_state(2.0, 40))
        assert abs(cat_fidelity(rho, 2.0) - 1.0) < 1e-12

    def test_kerr_evolution_reaches_cat(self):
        sys_ = KerrSystem(alpha0=2.0, mu=1.0, gamma=0.0)
        n = 30
        rho0 = fock.density_from_pure(fock.coherent_state(2.0, n))
        t_cat = math.pi / 2.0
        rec = lindblad.evolve(sys_, rho0, (t_cat,))[-1]
        assert cat_fidelity(rec.rho, 2.0) >= 1.0 - 1e-10

    def test_single_branch_fidelity(self):
        # |<cat|a0>|^2 = (1 + e^{-4 |a0|^2}) / 2, brute forced
        rho = fock.density_from_pure(fock.coherent_state(2.0, 40))
        cat = oracles.paper_cat_amplitudes(2.0, 40)
        coh = oracles.coherent_amplitudes_factorial(2.0, 40)
        brute = abs(np.vdot(cat, coh / np.linalg.norm(coh))) ** 2
        got = cat_fidelity(rho, 2.0)
        assert abs(got - brute) < 1e-12
        assert abs(got - 0.5) < 1e-6

    def test_global_phase_invariance(self):
        cat = fock.cat_state(1.5, 30)
        for theta in (0.3, 1.0, 2.7):
            rotated = fock.FockVector(cat.amplitudes * np.exp(1j * theta))
            rho = fock.density_from_pure(rotated)
            assert abs(cat_fidelity(rho, 1.5) - 1.0) < 1e-12


class TestCoherenceMetric:
    def test_pure_cat_is_one(self):
        rho = fock.density_from_pure(fock.cat_state(2.0, 40))
        assert abs(analysis.coherence_metric(rho, 2.0, 0.0, 0.0) - 1.0) < 1e-9

    def test_incoherent_mixture_is_small(self):
        n = 40
        plus = fock.density_from_pure(fock.coherent_state(2.0, n)).elements
        minus = fock.density_from_pure(fock.coherent_state(-2.0, n)).elements
        rho = fock.DensityOperator(0.5 * (plus + minus))
        got = analysis.coherence_metric(rho, 2.0, 0.0, 0.0)
        g = math.exp(-2.0 * 4.0)
        assert abs(got - 2.0 * g / (1.0 + g * g)) < 1e-10
        assert got < 1e-3

    def test_damped_decay_law(self):
        # full exact law, including the branch-overlap correction
        gamma = 0.01
        records = damped_cat_records(2.0, gamma, t_final=8.0, samples=17)
        for rec in records:
            exact = oracles.damped_cat_coherence(2.0, gamma, rec.time)
            assert abs(rec.coherence - exact) < 1e-8

    def test_damped_decay_matches_idealized_slope(self):
        # ln C tracks -2 |a0|^2 (1 - e^{-gamma t}) while branches stay distinct
        gamma = 0.01
        records = damped_cat_records(2.0, gamma, t_final=8.0, samples=17)
        for rec in records[1:]:
            ideal = -2.0 * 4.0 * (-math.expm1(-gamma * rec.time))
            assert abs(math.log(rec.coherence) - ideal) < 2e-3

    def test_branch_relabeling_symmetry(self):
        rng = np.random.default_rng(21)
        rho = fock.DensityOperator(oracles.random_density(rng, 25))
        a = analysis.coherence_metric(rho, 1.5, 0.7, 0.1)
        b = analysis.coherence_metric(rho, -1.5, 0.7, 0.1)
        assert abs(a - b) < 1e-14

    def test_degenerate_branches(self):
        rho = fock.density_from_pure(fock.FockVector(np.eye(10)[5]))
        with pytest.raises(DegenerateBranches):
            analysis.coherence_metric(rho, 0.0, 0.0, 0.0)


class TestFit:
    def test_exact_exponential(self):
        tau0 = 7.3
        times = np.linspace(0.0, 0.5, 400)
        fitted = analysis.fit_decoherence_time(times, np.exp(-times / tau0))
        assert abs(fitted - tau0) / tau0 < 1e-6

    def test_fit_reports_residual(self):
        times = np.linspace(0.0, 0.2, 200)
        result = analysis.decoherence_fit(times, np.exp(-times / 3.0))
        assert result.residual < 1e-12
        assert result.n_points >= 5
        assert result.slope < 0

    def test_damped_cat_alpha2(self):
        # 1/e time 1/(2 gamma |a0|^2) = 12.5 for a0 = 2, gamma = 0.01
        records = damped_cat_records(2.0, 0.01)
        fitted = fitted_time(records)
        assert abs(fitted - 12.5) / 12.5 < 0.05

    def test_amplitude_scaling_ratio(self):
        taus = {}
        for a0 in (1.0, 2.0):
            taus[a0] = fitted_time(damped_cat_records(a0, 0.01))
        assert abs(taus[1.0] / taus[2.0] - 4.0) / 4.0 < 0.10

    def test_gamma_scaling_ratio(self):
        g = 0.01
        t1 = fitted_time(damped_cat_records(1.5, g))
        t2 = fitted_time(damped_cat_records(1.5, 2 * g))
        assert abs(t1 / t2 - 2.0) / 2.0 < 0.10

    def test_insufficient_decay(self):
        times = np.linspace(0.0, 5.0, 50)
        with pytest.raises(InsufficientDecay) as err:
            analysis.fit_decoherence_time(times, np.ones_like(times))
        assert err.value.lower_bound == 5.0

    def test_too_few_points(self):
        with pytest.raises(InsufficientDecay):
            analysis.fit_decoherence_time((0.0, 1.0, 2.0), (1.0, 0.5, 0.25))

    def test_rate_linear_in_alpha0_squared(self):
        gamma = 0.01
        alphas = (1.0, 1.5, 2.0, 3.0)
        rates = []
        for a0 in alphas:
            rates.append(1.0 / fitted_time(damped_cat_records(a0, gamma)))
        xs = np.array([a * a for a in alphas])
        ys = np.array(rates)
        design = np.vstack([np.ones_like(xs), xs]).T
        coef, res, _, _ = np.linalg.lstsq(design, ys, rcond=None)
        r_sq = 1.0 - res[0] / np.sum((ys - ys.mean()) ** 2)
        assert r_sq >= 0.99

    def test_analytic_and_numeric_paths_agree(self):
        # mu > 0, gamma > 0: branch coherence sampled at odd cat times, where
        # the transient state is a two-branch cat; the continued Q series and
        # the integrator must yield the same fitted time
        a0 = 1.5
        gamma = 0.01
        sys_ = KerrSystem(alpha0=a0, mu=1.0, gamma=gamma)
        t_cat = math.pi / 2.0
        times = tuple((2 * k + 1) * t_cat for k in range(13))

        def analytic_c(t):
            a_t = a0 * math.exp(-0.5 * gamma * t)
            num = abs(coherent_matrix_element(a_t, -a_t, t, sys_))
            d_p = coherent_matrix_element(a_t, a_t, t, sys_).real
            d_m = coherent_matrix_element(-a_t, -a_t, t, sys_).real
            return num / math.sqrt(d_p * d_m)

        c_analytic = [analytic_c(t) for t in times]

        n = fock.default_cutoff(a0)
        rho0 = fock.density_from_pure(fock.coherent_state(a0, n))
        records = lindblad.evolve(sys_, rho0, times)

        for c_a, rec in zip(c_analytic, records):
            assert abs(c_a - rec.coherence) < 1e-6

        depth = 0.3  # the odd-cat-time grid is too coarse for the default window
        tau_analytic = analysis.fit_decoherence_time(times, c_analytic, window_depth=depth)
        tau_numeric = fitted_time(records, window_depth=depth)
        assert abs(tau_analytic - tau_numeric) / tau_numeric < 0.02


class TestWignerSlice:
    def test_vacuum_peak(self):
        rho = fock.density_from_pure(fock.FockVector(np.eye(15)[0]))
        for axis in ("real", "imaginary"):
            pts = analysis.wigner_slice(rho, axis, 3.0, 31)
            values = dict(pts)
            assert abs(values[0.0] - 2.0 / math.pi) < 1e-12
            assert max(v for _, v in pts) == pytest.approx(2.0 / math.pi, abs=1e-12)

    def test_cat_fringes_against_dense_oracle(self):
        rho = fock.density_from_pure(fock.cat_state(2.0, 40))
        pts = analysis.wigner_slice(rho, "imaginary", 2.0, 41)
        for x, w in pts[::5]:
            assert abs(w - oracles.wigner_dense(rho.elements, 1j * x)) < 1e-8
        assert max(abs(w) for _, w in pts) > 0.5  # fringes reach near 2/pi

    def test_fringe_period(self):
        # imaginary-axis oscillation period pi / (2 |a0|) for real a0
        a0 = 2.0
        rho = fock.density_from_pure(fock.cat_state(a0, 40))
        xs = np.linspace(-1.5, 1.5, 601)
        ws = np.array([w for _, w in analysis.wigner_slice(rho, "imaginary", 1.5, 601)])
        zero_crossings = np.nonzero(np.diff(np.sign(ws)))[0]
        gaps = np.diff(xs[zero_crossings])
        # consecutive zeros sit half a period apart
        assert abs(np.median(gaps) - math.pi / (4.0 * a0)) < 0.02

    def test_mixture_is_fringe_free(self):
        n = 40
        plus = fock.density_from_pure(fock.coherent_state(2.0, n)).elements
        minus = fock.density_from_pure(fock.coherent_state(-2.0, n)).elements
        rho = fock.DensityOperator(0.5 * (plus + minus))
        pts = analysis.wigner_slice(rho, "imaginary", 2.0, 21)
        for x, w in pts:
            two_gauss = (1.0 / math.pi) * (
                math.exp(-2.0 * abs(1j * x - 2.0) ** 2)
                + math.exp(-2.0 * abs(1j * x + 2.0) ** 2)
            )
            assert abs(w - two_gauss) < 1e-8
            assert abs(w - oracles.wigner_dense(rho.elements, 1j * x)) < 1e-8

    def test_rejects_unknown_axis(self):
        rho = fock.density_from_pure(fock.FockVector(np.eye(5)[0]))
        with pytest.raises(ValueError):
            analysis.wigner_slice(rho, "diagonal", 1.0, 11)
