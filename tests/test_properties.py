"""Property tests over the parameter ranges the CLI accepts.

Examples are derandomized, so every run checks the same cases.
"""

import cmath
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from kerrcat import analysis, cli, fock, lindblad
from kerrcat.analytic_q import KerrSystem, PhaseGrid, density, q_surface

import oracles

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)

mus = st.floats(min_value=0.0, max_value=2.0, exclude_min=True)
gammas = st.floats(min_value=0.0, max_value=0.5)
deltas = st.floats(min_value=-1.0, max_value=1.0)
times = st.floats(min_value=0.0, max_value=3.0)
alpha0s = st.builds(
    cmath.rect,
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
)


@PROPERTY
@given(
    mu=mus,
    gamma=gammas,
    delta=deltas,
    t=times,
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    alpha0=st.builds(cmath.rect, st.floats(0.0, 0.5), st.floats(0.0, 2.0 * math.pi)),
    backend=st.sampled_from(["analytic", "numeric"]),
)
def test_propagator_matches_rk4_oracle(mu, gamma, delta, t, n, seed, alpha0, backend):
    # turn o backend against RK4 on the detuned master equation, whose own
    # delta term pins the sign of the turn: a random state on n levels through
    # the propagator, or |alpha0> (at most 15 levels) through the closed form
    sys_ = KerrSystem(alpha0=alpha0, mu=mu, gamma=gamma)
    if backend == "analytic":
        rho0, rho = density(0.0, sys_), density(t, sys_)
    else:
        rho0 = fock.DensityOperator(oracles.random_density(np.random.default_rng(seed), n))
        rho = fock.DensityOperator(lindblad.integrate_matrix(rho0.elements, sys_, t))
    n = rho0.cutoff
    # RK4's global error is ~ t rate^5 dt^4 / 120 for the fastest element;
    # rate * dt = 2e-3 keeps it below 1e-10 over the whole range
    rate = mu * (n - 1) ** 2 + abs(delta) * (n - 1) + gamma * (n - 1) + 1.0
    ref = oracles.rk4_integrate(rho0.elements, sys_, t, 2e-3 / rate, delta)
    assert np.max(np.abs(fock.turn(rho, delta, t).elements - ref)) <= 1e-9


@PROPERTY
@given(alpha0=alpha0s, mu=mus, gamma=gammas, delta=deltas, t=times)
def test_backends_agree(alpha0, mu, gamma, delta, t):
    # both states turned to the lab frame, as qsurface turns them
    sys_ = KerrSystem(alpha0=alpha0, mu=mu, gamma=gamma)
    num, = lindblad.evolve(sys_, fock.density_from_pure(fock.coherent_state(alpha0)), (t,))
    ana = density(t, sys_)
    num, ana = fock.turn(num, delta, t), fock.turn(ana, delta, t)
    grid = PhaseGrid(center=0j, half_extent=abs(alpha0) + 3.0, resolution=21)
    assert np.max(np.abs(q_surface(grid, ana).values - q_surface(grid, num).values)) <= 1e-6

    # both states through the same diagnostics
    cat = fock.cat_state(alpha0)
    for observable in (fock.expectation_n, fock.purity, lambda rho: fock.fidelity(rho, cat)):
        assert abs(observable(ana) - observable(num)) <= 1e-13
    c_ana, c_num = (analysis.coherence_metric(rho, alpha0, t, gamma) for rho in (ana, num))
    if math.isnan(c_num):
        assert math.isnan(c_ana)
    else:
        assert abs(c_ana - c_num) <= 1e-10


centers = st.one_of(st.just(0j), st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(
    alpha0=st.builds(cmath.rect, st.floats(0.0, 3.0), st.floats(0.0, 2.0 * math.pi)),
    gamma=st.one_of(st.just(0.0), gammas),
    delta=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    grid=st.builds(lambda c: {"center": [c.real, c.imag], "resolution": 11}, centers),
)
@example(alpha0=2.0, gamma=0.0, delta=0.3, grid={"half_extent": 5.0, "resolution": 21})
def test_validate_passes(alpha0, gamma, delta, grid):
    # detuned configs included: validate reads no detuning, so revival and
    # parity hold at alpha0 itself
    doc = {
        "schema_version": 1,
        "mode": "dimensionless",
        "dimensionless": {
            "alpha0": [alpha0.real, alpha0.imag],
            "gamma_over_mu": gamma,
            "detuning_over_mu": delta,
        },
        "grid": grid,
    }
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, "config.json")
        config.write_text(json.dumps(doc))
        code = cli.main(["validate", "--config", str(config), "--out", tmp])
        report = json.loads(Path(tmp, "validate.json").read_text())
    assert [c["name"] for c in report["checks"] if not c["pass"]] == []
    assert code == cli.EXIT_OK


@PROPERTY
@given(
    alpha0=st.builds(cmath.rect, st.floats(0.0, 6.0), st.floats(0.0, 2.0 * math.pi)),
    gamma=st.one_of(st.just(0.0), gammas),
    t=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    backend=st.sampled_from(["analytic", "numeric"]),
)
def test_q_grid_matches_gemm_oracle(alpha0, gamma, t, backend):
    # the eigen-factor drops only eigenvalues below the GEMM's own rounding
    sys_ = KerrSystem(alpha0=alpha0, mu=1.0, gamma=gamma)
    if backend == "analytic":
        rho = density(t, sys_)
    else:
        rho, = lindblad.evolve(sys_, fock.density_from_pure(fock.coherent_state(alpha0)), (t,))
    re, im = PhaseGrid(center=0j, half_extent=abs(alpha0) + 3.0, resolution=21).axes()
    got = fock.q_grid(rho.elements, re, im)
    assert np.max(np.abs(got - oracles.q_grid_gemm(rho.elements, re, im))) <= 1e-14


@PROPERTY
@given(
    alpha0=alpha0s,
    mu=mus,
    gamma=gammas,
    delta=deltas,
    t=st.one_of(times, st.floats(min_value=1e3, max_value=1e9)),
    backend=st.sampled_from(["analytic", "numeric"]),
)
def test_detuning_is_a_rotation(alpha0, mu, gamma, delta, t, backend):
    # turn o backend against the oracle's lab-frame factor e^{-i delta t (m - n)},
    # up to t = 1e9: delta t is reduced mod 2 pi once, so the turn keeps its
    # precision at any t. Its sign is pinned by the oracles' unreduced delta terms
    # (test_propagator_matches_rk4_oracle, test_matches_z_form, test_matches_series_oracle)
    sys_ = KerrSystem(alpha0=alpha0, mu=mu, gamma=gamma)
    if backend == "analytic":
        rho = density(t, sys_)
    else:
        rho, = lindblad.evolve(sys_, fock.density_from_pure(fock.coherent_state(alpha0)), (t,))
    ref = oracles.detuning_turn(delta, t, rho.cutoff) * rho.elements
    assert np.max(np.abs(fock.turn(rho, delta, t).elements - ref)) <= 2e-14 * np.max(np.abs(ref))
