"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with plain ``pytest``; the summary lines bypass capture so they are
always visible. Every tolerance is asserted exactly as specified.
"""

import json
import math

import numpy as np
import pytest

from kerrcat import analysis, cli, fock, lindblad, trap_params
from kerrcat.analytic_q import KerrSystem, PhaseGrid, density, grid_normalization, q_surface

import oracles


@pytest.fixture
def report(capsys):
    def _report(number, name, ok, detail):
        line = f"CRITERION {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def coherent_density(alpha0):
    return fock.density_from_pure(fock.coherent_state(alpha0))


def test_criterion_1_parameter_reproduction(report):
    b = oracles.b_field_for_cyclotron(160e9)
    derived = trap_params.derive(
        trap_params.TrapConfig(
            b_field=b, v0=10.0, d=3.3e-3, temperature=4.0, gamma=1.0, alpha0_override=2.0
        )
    )
    f_c = derived.omega_c / (2 * math.pi)
    f_z = derived.omega_z / (2 * math.pi)
    mu_pinned = 650.9017897393376  # hbar omega_c^2/(2 m c^2) at 40-digit precision
    ok = (
        abs(f_c - 160e9) / 160e9 < 1e-12
        and abs(f_z - 64e6) / 64e6 < 0.02
        and abs(derived.mu - mu_pinned) / mu_pinned < 0.05
        and abs(derived.mu - 6.5e2) / 6.5e2 < 0.05
        and 1e2 <= derived.ratio <= 1e3
    )
    report(
        1,
        "parameter_reproduction",
        ok,
        f"f_c={f_c:.6g} Hz, f_z={f_z:.6g} Hz, mu={derived.mu:.6g}, ratio={derived.ratio:.1f}",
    )


def test_criterion_2_initial_condition(report):
    sys_ = KerrSystem(alpha0=2.0, mu=1.0, gamma=0.01)
    grid = PhaseGrid(center=0j, half_extent=7.0, resolution=201)
    gauss = np.exp(-np.abs(grid.points() - 2.0) ** 2)
    err_a = float(np.max(np.abs(q_surface(grid, density(0.0, sys_)).values - gauss)))
    num = q_surface(grid, coherent_density(2.0))
    err_n = float(np.max(np.abs(num.values - gauss)))
    ok = err_a <= 1e-10 and err_n <= 1e-10
    report(2, "initial_condition", ok, f"analytic err={err_a:.2e}, numeric err={err_n:.2e}")


def test_criterion_3_dual_path_agreement(report):
    sys_ = KerrSystem(alpha0=2.0, mu=1.0, gamma=0.01)
    t_cat = math.pi / 2.0
    times = (0.25 * t_cat, 0.5 * t_cat, t_cat)
    states = lindblad.evolve(sys_, coherent_density(2.0), times)
    grid = PhaseGrid(center=0j, half_extent=5.0, resolution=101)
    worst = 0.0
    for t, rho in zip(times, states):
        ana = q_surface(grid, density(t, sys_))
        num = q_surface(grid, rho)
        worst = max(worst, float(np.max(np.abs(ana.values - num.values))))
    ok = worst <= 1e-6
    report(3, "dual_path_agreement", ok, f"max node-wise |dQ|={worst:.2e} over t/t_cat in 1/4,1/2,1")


def test_criterion_4_cat_formation(report):
    sys_ = KerrSystem(alpha0=2.0, mu=1.0, gamma=0.0)
    t_cat = math.pi / 2.0
    rho, = lindblad.evolve(sys_, coherent_density(2.0), (t_cat,))
    fidelity_gap = 1.0 - fock.fidelity(rho, fock.cat_state(2.0))

    grid = PhaseGrid(center=0j, half_extent=5.0, resolution=101)
    ana = q_surface(grid, density(t_cat, sys_))
    cat_surface = q_surface(grid, fock.density_from_pure(fock.cat_state(2.0)))
    surf_err = float(np.max(np.abs(ana.values - cat_surface.values)))
    ok = fidelity_gap <= 1e-8 and surf_err <= 1e-8
    report(4, "cat_formation", ok, f"1-F={fidelity_gap:.2e}, surface err={surf_err:.2e}")


def test_criterion_5_revival_and_parity(report):
    sys_ = KerrSystem(alpha0=2.0, mu=1.0, gamma=0.0)
    grid = PhaseGrid(center=0j, half_extent=5.0, resolution=101)
    base = q_surface(grid, density(0.0, sys_))
    revival = q_surface(grid, density(2.0 * math.pi, sys_))
    err_rev = float(np.max(np.abs(revival.values - base.values)))
    half = q_surface(grid, density(math.pi, sys_))
    err_par = float(np.max(np.abs(half.values - base.values[::-1, ::-1])))
    ok = err_rev <= 1e-8 and err_par <= 1e-8
    report(5, "revival_and_parity", ok, f"revival err={err_rev:.2e}, parity err={err_par:.2e}")


def test_criterion_6_energy_decay(report):
    gamma = 0.1
    times = tuple(float(t) for t in np.linspace(0.0, 3.0 / gamma, 16))
    worst = 0.0
    for mu in (0.0, 1.0):
        sys_ = KerrSystem(alpha0=2.0, mu=mu, gamma=gamma)
        states = lindblad.evolve(sys_, coherent_density(2.0), times)
        for t, rho in zip(times, states):
            law = 4.0 * math.exp(-gamma * t)
            worst = max(worst, abs(fock.expectation_n(rho) - law))
    ok = worst <= 1e-8
    report(6, "energy_decay", ok, f"max |<n> - law|={worst:.2e} over mu in 0,1 and t in [0,3/gamma]")


def test_criterion_7_decoherence_scaling(report):
    gamma = 0.01
    alphas = (1.0, 1.5, 2.0, 3.0)
    taus = []
    for a0 in alphas:
        t_final = 2.0 * analysis.WINDOW_DEPTH / (a0**2 * gamma)
        sample_times = np.linspace(0.0, t_final, 161)
        states = lindblad.evolve(
            KerrSystem(alpha0=a0, mu=0.0, gamma=gamma),
            fock.density_from_pure(fock.cat_state(a0)),
            sample_times,
        )
        coherences = [
            analysis.coherence_metric(r, a0, t, gamma) for t, r in zip(sample_times, states)
        ]
        taus.append(analysis.decoherence_fit(sample_times, coherences).time)

    scale = math.exp(np.mean([math.log(t * a * a) for t, a in zip(taus, alphas)]))
    deviations = [abs(t * a * a / scale - 1.0) for t, a in zip(taus, alphas)]
    rates = np.array([1.0 / t for t in taus])
    xs = np.array([a * a for a in alphas])
    design = np.vstack([np.ones_like(xs), xs]).T
    _, res, _, _ = np.linalg.lstsq(design, rates, rcond=None)
    r_sq = 1.0 - float(res[0]) / float(np.sum((rates - rates.mean()) ** 2))
    ok = max(deviations) <= 0.10 and r_sq >= 0.99
    report(
        7,
        "decoherence_scaling",
        ok,
        f"per-point dev={[f'{d:.1%}' for d in deviations]}, R^2={r_sq:.5f}",
    )


def test_criterion_8_invariant_suite(report):
    rng = np.random.default_rng(2026)
    worst = {"trace": 0.0, "herm": 0.0, "neg": 0.0, "q_low": 0.0, "q_high": 0.0,
             "wigner": 0.0, "band": 0.0, "norm": 0.0}
    for _ in range(100):
        n = int(rng.integers(3, 13))
        sys_ = KerrSystem(
            alpha0=0.0, mu=float(rng.uniform(0.0, 1.0)), gamma=float(rng.uniform(0.01, 0.5))
        )
        rho0 = oracles.random_density(rng, n)
        t = float(rng.uniform(0.1, 1.0))
        mat = lindblad.integrate_matrix(rho0, sys_, t)

        worst["trace"] = max(worst["trace"], abs(np.trace(mat).real - 1.0))
        worst["herm"] = max(worst["herm"], float(np.max(np.abs(mat - mat.conj().T))))
        worst["neg"] = max(worst["neg"], -float(np.linalg.eigvalsh(mat).min()))

        rho = fock.DensityOperator(mat)
        for _ in range(3):
            a = complex(*rng.uniform(-3.0, 3.0, 2))
            q = float(fock.q_grid(rho.elements, np.array([a.real]), np.array([a.imag]))[0, 0])
            worst["q_low"] = max(worst["q_low"], -q)
            worst["q_high"] = max(worst["q_high"], q - 1.0)
            worst["wigner"] = max(worst["wigner"], abs(fock.wigner(rho, a)) - 2.0 / math.pi)

        grid = PhaseGrid(center=0j, half_extent=math.sqrt(n) + 5.0, resolution=101)
        norm = grid_normalization(q_surface(grid, rho))
        worst["norm"] = max(worst["norm"], abs(norm - 1.0))

        band = int(rng.integers(-n + 1, n))
        on_band = np.eye(n, k=-band, dtype=bool)
        masked = np.where(on_band, rho0, 0.0)
        stepped = lindblad.integrate_matrix(masked, sys_, 0.3)
        off = np.where(on_band, 0.0, stepped)
        worst["band"] = max(worst["band"], float(np.max(np.abs(off))))

    ok = (
        worst["trace"] <= 1e-8
        and worst["herm"] <= 1e-10
        and worst["neg"] <= 1e-9
        and worst["q_low"] <= 1e-9
        and worst["q_high"] <= 1e-9
        and worst["wigner"] <= 1e-9
        and worst["norm"] <= 1e-3
        and worst["band"] == 0.0
    )
    report(
        8,
        "invariant_suite",
        ok,
        "100 cases, worst: " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()),
    )


def test_criterion_9_determinism(report, tmp_path):
    doc = {
        "schema_version": 1,
        "mode": "dimensionless",
        "dimensionless": {"alpha0": [2.0, 0.0], "gamma_over_mu": 0.01},
        "grid": {"center": [0.0, 0.0], "half_extent": 5.0, "resolution": 41},
        "seed": 3,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))

    outputs = {}
    for command, filename in (("validate", "validate.json"), ("qsurface", "qsurface.csv")):
        blobs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{command}_{tag}"
            argv = [command, "--config", str(cfg), "--out", str(out)]
            if command == "qsurface":
                argv += ["--time", "0.7853981633974483"]
            code = cli.main(argv)
            assert code == 0
            blobs.append((out / filename).read_bytes())
        outputs[command] = blobs[0] == blobs[1]
    ok = all(outputs.values())
    report(9, "determinism", ok, f"byte-identical reruns: {outputs}")
