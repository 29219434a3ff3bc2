"""Exact Fock-basis propagator for the damped Kerr master equation.

In the number basis the master equation is elementwise,

    d rho_mn / dt = [ i mu (m^2 - n^2) - i delta (m - n)
                      - (gamma/2)(m + n) ] rho_mn
                    + gamma sqrt((m+1)(n+1)) rho_{m+1,n+1},

so anti-diagonals (fixed k = m - n) form independent bidiagonal linear
systems. In the frame that removes the diagonal rates e^{coef_mn t}, the
gain term carries only the band-constant factor e^{-lam_k t},
lam_k = gamma - 2 i mu k, so the solution is a finite power series in the
nilpotent weighted shift (the damped-Kerr result of Milburn & Holmes,
PRL 56, 2237 (1986)). It is exact for any initial matrix and any time,
needs no step size, and never mixes bands. The truncation boundary is
absorbing: trace lost through the top level is reported, never
redistributed.

Every sample time is propagated from rho(0) on its own, so integrate_matrix
takes a scalar time or a 1-d array of times, carried on a leading axis
through the same sum, and evolve passes its sample times in blocks of
EVOLVE_BLOCK matrix elements before validating each state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, fock
from .analytic_q import KerrSystem, PhaseGrid, QSurface, _lam_integral
from .errors import CutoffLeak, CutoffTooSmall, DegenerateBranches

#: boundary population above which the truncated basis is declared too small
LEAK_TOL = 1e-8

#: sampled states must conserve trace at least this well
TRACE_TOL = 1e-8

#: matrix elements per block of sample times in evolve, whose (times x N x N)
#: propagator temporaries stay this small (5 times at N = 40)
EVOLVE_BLOCK = 8192


@dataclass(frozen=True)
class EvolutionRecord:
    """State and scalar observables at one sample time."""

    time: float
    rho: fock.DensityOperator
    mean_n: float
    purity: float
    trace_error: float
    cat_fidelity: float
    coherence: float


def _coefficients(sys: KerrSystem, n: int):
    m_idx = np.arange(n)
    mm = m_idx[:, np.newaxis]
    nn = m_idx[np.newaxis, :]
    coef = (
        1j * sys.mu * (mm**2 - nn**2).astype(float)
        - 1j * sys.detuning * (mm - nn).astype(float)
        - 0.5 * sys.gamma * (mm + nn).astype(float)
    )
    gain = sys.gamma * np.sqrt((mm + 1.0) * (nn + 1.0))
    return coef, gain


def integrate_matrix(mat: np.ndarray, sys: KerrSystem, t: float | np.ndarray) -> np.ndarray:
    """Exact propagation of an arbitrary matrix to time ``t``, no state validation.

    rho(t) = e^{coef t} o sum_j (gamma x_k)^j S^j rho(0) / j!, where S is the
    weighted shift rho_mn -> sqrt((m+1)(n+1)) rho_{m+1,n+1} and
    x_k = (1 - e^{-lam_k t}) / lam_k with lam_k = gamma - 2 i mu k on the band
    k = m - n. S^j leaves only the leading (N-j) x (N-j) block, so the sum
    ends after N terms and each term is built from the previous one.

    A scalar ``t`` gives the (N, N) matrix; a 1-d array of S times gives the
    (S, N, N) stack, every time carried on a leading axis through the same
    sum. Each slice equals the scalar call bit for bit. The stack holds a few
    (S, N, N) temporaries, so callers with many times pass them in blocks of
    EVOLVE_BLOCK matrix elements (see evolve).
    """
    times = np.asarray(t, dtype=float)
    n = mat.shape[0]
    coef, gain = _coefficients(sys, n)
    k = np.arange(1 - n, n)
    x = _lam_integral(sys.gamma - 2j * sys.mu * k, times.reshape(-1, 1))
    idx = np.arange(n)
    weight = gain * x[:, idx[:, np.newaxis] - idx[np.newaxis, :] + n - 1]
    total = np.array(np.broadcast_to(mat, weight.shape), dtype=complex)
    term = total
    for j in range(1, n):
        term = weight[:, : n - j, : n - j] * term[:, 1:, 1:] / j
        total[:, : n - j, : n - j] += term
    phase = np.exp(coef * times.reshape(-1, 1, 1))
    return np.multiply(phase, total, out=total).reshape(times.shape + (n, n))


def _make_record(
    t: float, mat: np.ndarray, sys: KerrSystem, cat_target: fock.FockVector
) -> EvolutionRecord:
    boundary = float(mat[-1, -1].real)
    if boundary > LEAK_TOL:
        raise CutoffLeak(
            f"boundary population {boundary!r} at t = {t}; raise the cutoff"
        )
    trace_err = abs(float(np.trace(mat).real) - 1.0)
    rho = fock.DensityOperator(mat, trace_tol=TRACE_TOL)
    try:
        coherence = analysis.coherence_metric(rho, sys.alpha0, t, sys.gamma)
    except DegenerateBranches:
        coherence = math.nan
    return EvolutionRecord(
        time=t,
        rho=rho,
        mean_n=fock.expectation_n(rho),
        purity=fock.purity(rho),
        trace_error=trace_err,
        cat_fidelity=fock.fidelity(rho, cat_target),
        coherence=coherence,
    )


def evolve(sys: KerrSystem, rho0: fock.DensityOperator, times) -> list[EvolutionRecord]:
    """Propagate ``rho0`` to each of the ascending ``times`` and validate the states.

    The cutoff is ``rho0``'s and must meet fock.default_cutoff(sys.alpha0).
    """
    times = tuple(float(t) for t in times)
    if not all(0 <= t < math.inf for t in times) or list(times) != sorted(times):
        raise ValueError(f"times must be finite, non-negative and ascending, got {times}")
    n, needed = rho0.cutoff, fock.default_cutoff(sys.alpha0)
    if n < needed:
        raise CutoffTooSmall(
            f"cutoff {n} below the rule value {needed} for |alpha0| = {abs(sys.alpha0)}"
        )
    mat0 = np.asarray(rho0.elements)
    cat_target = fock.cat_state(sys.alpha0, n)
    block = max(1, EVOLVE_BLOCK // n**2)
    records = []
    for start in range(0, len(times), block):
        chunk = times[start : start + block]
        for t, mat in zip(chunk, integrate_matrix(mat0, sys, np.array(chunk))):
            records.append(_make_record(t, mat, sys, cat_target))
    return records


def q_from_rho(rho: fock.DensityOperator, grid: PhaseGrid) -> QSurface:
    """Husimi surface <alpha| rho |alpha> over all grid nodes (fock.coherent_form)."""
    q = fock.coherent_form(rho.elements, grid.points().ravel()).real
    return QSurface(grid=grid, values=q.reshape((grid.resolution, grid.resolution)))
