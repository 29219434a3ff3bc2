"""Exact Fock-basis propagator for the damped Kerr master equation.

In the number basis the master equation is elementwise,

    d rho_mn / dt = [ i mu (m^2 - n^2) - i delta (m - n)
                      - (gamma/2)(m + n) ] rho_mn
                    + gamma sqrt((m+1)(n+1)) rho_{m+1,n+1},

so anti-diagonals (fixed k = m - n) form independent bidiagonal linear
systems. In the frame that removes the diagonal rates, the
gain term carries only the band-constant factor e^{-lam_k t},
lam_k = gamma - 2 i mu k, so the solution is a finite power series in the
nilpotent weighted shift (the damped-Kerr result of Milburn & Holmes,
PRL 56, 2237 (1986)). It is exact for any initial matrix and any time,
needs no step size, and never mixes bands. The truncated equation is
itself exact: d rho_mn/dt reads only rho_mn and rho_{m+1,n+1}, so levels
>= N that start empty stay empty, and the N-level solution is the leading
block of the solution at any larger N. It also conserves trace exactly.

Every sample time is propagated from rho(0) on its own, in any order, so
integrate_matrix takes a scalar time or a 1-d array of times, carried on a
leading axis through the same sum, and evolve yields a validated
fock.DensityOperator per time, as analytic_q.density returns one, from
blocks of EVOLVE_BLOCK matrix elements; the observables are the callers'.
At gamma = 0 every term of the sum vanishes and none is built.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from . import fock
from .analytic_q import KerrSystem, _lam_integral
from .errors import InvariantViolation

#: matrix elements per block of sample times in evolve, whose (times x N x N)
#: propagator temporaries stay this small (6 times at N = 35)
EVOLVE_BLOCK = 8192


def integrate_matrix(mat: np.ndarray, sys: KerrSystem, t: float | np.ndarray) -> np.ndarray:
    """Exact propagation of an arbitrary matrix to time ``t``, no state validation.

    rho(t) = phase o sum_j (gamma x_k)^j S^j rho(0) / j!, where S is the
    weighted shift rho_mn -> sqrt((m+1)(n+1)) rho_{m+1,n+1} and
    x_k = (1 - e^{-lam_k t}) / lam_k with lam_k = gamma - 2 i mu k on the band
    k = m - n. S^j leaves only the leading (N-j) x (N-j) block, so the sum
    ends after N terms and each term is built from the previous one. At
    gamma = 0 every weight, and so every term, is exactly zero: no term is
    built and the result is phase o mat. The phase holds the diagonal rates
    (module docstring) times t, with mu t and delta t from sys.angles(t).

    A scalar ``t`` gives the (N, N) matrix; a 1-d array of S times gives the
    (S, N, N) stack, every time carried on a leading axis through the same
    sum. Each slice equals the scalar call bit for bit. The stack holds a few
    (S, N, N) temporaries, so callers with many times pass them in blocks of
    EVOLVE_BLOCK matrix elements (see evolve).
    """
    times = np.asarray(t, dtype=float)
    n = mat.shape[0]
    mm, nn = np.indices((n, n))
    col = times.reshape(-1, 1, 1)
    total = mat
    if sys.gamma != 0:
        k = np.arange(1 - n, n)
        x = _lam_integral(sys.gamma - 2j * sys.mu * k, times.reshape(-1, 1))
        gain = sys.gamma * np.sqrt((mm + 1.0) * (nn + 1.0))
        weight = gain * x[:, mm - nn + n - 1]
        total = np.array(np.broadcast_to(mat, weight.shape), dtype=complex)
        term = total
        for j in range(1, n):
            term = weight[:, : n - j, : n - j] * term[:, 1:, 1:] / j
            total[:, : n - j, : n - j] += term
    kerr_t, det_t = sys.angles(col)
    phase = np.empty((col.size, n, n), dtype=complex)
    np.multiply(-0.5 * sys.gamma * (mm + nn), col, out=phase.real)
    np.subtract(kerr_t * (mm**2 - nn**2), det_t * (mm - nn), out=phase.imag)
    np.exp(phase, out=phase)
    return np.multiply(phase, total, out=phase).reshape(times.shape + (n, n))


def _make_record(t: float, mat: np.ndarray) -> fock.DensityOperator:
    """rho(t) as a validated DensityOperator; one it rejects, non-finite ones first, raises."""
    try:
        return fock.DensityOperator(mat)
    except ValueError as exc:
        raise InvariantViolation(f"propagated state at t = {t}: {exc}") from exc


def evolve(sys: KerrSystem, rho0: fock.DensityOperator, times) -> Iterator[fock.DensityOperator]:
    """Propagate ``rho0`` to each of ``times``: yields one validated state per time, in order.

    The cutoff is ``rho0``'s, and each block is propagated when its first state is asked for.
    """
    times = tuple(float(t) for t in times)
    for t in times:  # every time, before the first block is propagated
        fock.check_time(t)
    n = rho0.cutoff
    mat0 = np.asarray(rho0.elements)
    block = max(1, EVOLVE_BLOCK // n**2)
    for start in range(0, len(times), block):
        chunk = times[start : start + block]
        # rates that overflow the sum leave a non-finite state, which
        # _make_record reports, so the overflow itself is not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            stack = integrate_matrix(mat0, sys, np.array(chunk))
        for t, mat in zip(chunk, stack):
            yield _make_record(t, mat)
