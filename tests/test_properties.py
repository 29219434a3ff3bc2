"""Property tests over the parameter ranges the CLI accepts.

Examples are derandomized, so every run checks the same cases.
"""

import cmath
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from kerrcat import fock, lindblad
from kerrcat.analytic_q import KerrSystem, PhaseGrid, q_surface

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
)
def test_propagator_matches_rk4_oracle(mu, gamma, delta, t, n, seed):
    sys_ = KerrSystem(alpha0=0.0, mu=mu, gamma=gamma, detuning=delta)
    rho0 = oracles.random_density(np.random.default_rng(seed), n)
    # RK4's global error is ~ t rate^5 dt^4 / 120 for the fastest element;
    # rate * dt = 2e-3 keeps it below 1e-10 over the whole range
    rate = mu * (n - 1) ** 2 + abs(delta) * (n - 1) + gamma * (n - 1) + 1.0
    ref = oracles.rk4_integrate(rho0, sys_, t, 2e-3 / rate)
    exact = lindblad.integrate_matrix(rho0, sys_, t)
    assert np.max(np.abs(exact - ref)) <= 1e-9


@PROPERTY
@given(alpha0=alpha0s, mu=mus, gamma=gammas, delta=deltas, t=times)
def test_backends_agree(alpha0, mu, gamma, delta, t):
    sys_ = KerrSystem(alpha0=alpha0, mu=mu, gamma=gamma, detuning=delta)
    n = fock.default_cutoff(alpha0) + 10
    rec = lindblad.evolve(sys_, fock.density_from_pure(fock.coherent_state(alpha0, n)), (t,))[-1]
    grid = PhaseGrid(center=0j, half_extent=abs(alpha0) + 3.0, resolution=21)
    ana = q_surface(grid, t, sys_)
    num = lindblad.q_from_rho(rec.rho, grid)
    assert np.max(np.abs(ana.values - num.values)) <= 1e-6
