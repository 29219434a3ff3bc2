"""Cat-state diagnostics and decoherence quantification.

The branch-coherence observable is the normalized cross element

    C = |<a_t| rho |-a_t>| / sqrt(<a_t|rho|a_t> <-a_t|rho|-a_t>),
    a_t = alpha0 e^{-gamma t / 2},

which is exactly 1 for every pure state and decays, for a damped balanced
cat, as exp[-2 |alpha0|^2 (1 - e^{-gamma t})]. Its initial 1/e time is
therefore 1/(2 gamma |alpha0|^2): the decoherence-time scaling with a
factor-2 offset from the bare (gamma |alpha0|^2)^{-1} estimate. The decay
law is exponential only while gamma t << 1, so the fitted time comes from a
least-squares slope over a shallow initial window of ln C. C reads a
fock.DensityOperator from either backend, and each command computes it for
the states it writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import InsufficientDecay

#: fit window ends once ln C has dropped by this much (or C < 1e-4);
#: shallow enough that the exponential approximation holds for the
#: smallest amplitudes of interest
WINDOW_DEPTH = 0.02
WINDOW_FLOOR = 1e-4

_DENOMINATOR_FLOOR = 1e-15


@dataclass(frozen=True)
class FitResult:
    """Decoherence-time fit: the 1/e time, the rms residual of ln C, the samples fitted.

    No command reads residual or n_points yet; they stay so that a run report
    can give each fit's quality.
    """

    time: float
    residual: float
    n_points: int


def coherence_metric(rho: fock.DensityOperator, alpha0, t: float, gamma: float) -> float:
    """Normalized coherence between the two damped branch amplitudes.

    NaN when a branch population is at or below _DENOMINATOR_FLOOR.
    """
    a_t = complex(alpha0) * math.exp(-0.5 * gamma * t)
    plus = fock.coherent_amplitudes(a_t, rho.cutoff)
    minus = fock.mirror_amplitudes(plus)
    mat = np.asarray(rho.elements)
    num = abs(np.vdot(plus, mat @ minus))
    d_plus = float(np.vdot(plus, mat @ plus).real)
    d_minus = float(np.vdot(minus, mat @ minus).real)
    if d_plus <= _DENOMINATOR_FLOOR or d_minus <= _DENOMINATOR_FLOOR:
        return math.nan
    return float(num / math.sqrt(d_plus * d_minus))


def decoherence_fit(times, coherences) -> FitResult:
    """Least-squares slope of ln C over the initial decay window.

    ``coherences`` holds C at each of the ascending ``times``. The window
    runs from the first sample until C drops below
    max(exp(-WINDOW_DEPTH), WINDOW_FLOOR), read at call time. Raises
    InsufficientDecay (carrying a lower bound on the decay time) when the
    samples never reach the window threshold, or the fitted time is not
    finite, i.e. when no decay rate can be certified.
    """
    times = np.asarray(times, dtype=float)
    cs = np.asarray(coherences, dtype=float)
    threshold = max(math.exp(-WINDOW_DEPTH), WINDOW_FLOOR)
    below = np.nonzero(cs < threshold)[0]
    if below.size == 0:
        bound = float(times[-1]) if times.size else 0.0
        raise InsufficientDecay(
            f"coherence never dropped below {threshold!r}; "
            f"decay time exceeds {bound!r}",
            lower_bound=bound,
        )
    end = int(below[0])  # first sample past the window closes it
    t_win = times[: end + 1]
    c_win = cs[: end + 1]
    usable = c_win > 1e-6
    t_win, c_win = t_win[usable], c_win[usable]
    if t_win.size < 5:
        raise InsufficientDecay(
            f"only {t_win.size} usable samples inside the fit window; "
            "sample the evolution more densely",
            lower_bound=float(times[-1]),
        )
    y = np.log(c_win)
    design = np.vstack([np.ones_like(t_win), t_win]).T
    coef, res, _, _ = np.linalg.lstsq(design, y, rcond=None)
    slope = float(coef[1])
    time = -1.0 / slope if slope < 0 else math.inf  # a subnormal slope overflows to inf too
    if time == math.inf:
        raise InsufficientDecay(
            "coherence does not decay at a finite rate over the fit window",
            lower_bound=float(times[-1]),
        )
    residual = float(np.sqrt(res[0] / t_win.size)) if res.size else 0.0
    return FitResult(time=time, residual=residual, n_points=int(t_win.size))
