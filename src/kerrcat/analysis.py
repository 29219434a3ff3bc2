"""Cat-state diagnostics and decoherence quantification.

The branch-coherence observable is the normalized cross element

    C = |<a_t| rho |-a_t>| / sqrt(<a_t|rho|a_t> <-a_t|rho|-a_t>),
    a_t = alpha0 e^{-gamma t / 2},

which is exactly 1 for every pure state whose branch populations both
exceed 1e-15, and decays, for a damped balanced cat, as
exp[-2 |alpha0|^2 (1 - e^{-gamma t})]. At or below that floor C is NaN:
|alpha0> holds e^{-4 |alpha0|^2} of |-alpha0>, so from |alpha0| = 2.94 on
evolve's t = 0 row reads nan. The initial 1/e time is 1/(2 gamma |alpha0|^2):
the decoherence-time scaling with a factor-2 offset from the bare
(gamma |alpha0|^2)^{-1} estimate. The decay law is exponential only while
gamma t << 1, so the fitted time comes from a least-squares slope over a
shallow initial window of ln C. A fit that cannot certify a finite rate
returns an infinite time, not an error; sweep then writes its window end as
a lower bound. C reads a fock.DensityOperator from either backend, and each
command computes it for the states it writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock

#: fit window ends once ln C has dropped by this much; shallow enough that
#: the exponential approximation holds for the smallest amplitudes of interest
WINDOW_DEPTH = 0.02

_DENOMINATOR_FLOOR = 1e-15


@dataclass(frozen=True)
class FitResult:
    """Decoherence-time fit: the 1/e time, the rms residual of ln C, the usable samples.

    time is inf and residual NaN when the samples certify no finite rate. No
    command reads residual or n_points yet; they stay so that a run report
    can give each fit's quality.
    """

    time: float
    residual: float
    n_points: int


def coherence_metric(rho: fock.DensityOperator, alpha0, t: float, gamma: float) -> float:
    """Normalized coherence between the two damped branch amplitudes at time t.

    NaN when a branch population is at or below _DENOMINATOR_FLOOR; a t not
    in [0, inf) is a ValueError. Near a coherent state the smaller population,
    about e^{-4 |alpha0|^2}, is a sum of O(1) terms, so C has a relative error
    of about 2^-53 e^{4 |alpha0|^2}: 1e-9 at |alpha0| = 2 (README's physical
    trap reads 1.0000000000007239 at t = 0).
    """
    fock.check_time(t)
    # Python floats: a product past the range is -inf without a warning, and e^{-inf} = 0
    a_t = complex(alpha0) * math.exp(-0.5 * gamma * float(t))
    plus = fock.coherent_amplitudes(a_t, rho.cutoff)
    minus = fock.mirror_amplitudes(plus)
    mat = np.asarray(rho.elements)
    rho_minus = mat @ minus
    num = abs(np.vdot(plus, rho_minus))
    d_plus = float(np.vdot(plus, mat @ plus).real)
    d_minus = float(np.vdot(minus, rho_minus).real)
    if d_plus <= _DENOMINATOR_FLOOR or d_minus <= _DENOMINATOR_FLOOR:
        return math.nan
    return float(num / math.sqrt(d_plus * d_minus))


def decoherence_fit(times, coherences) -> FitResult:
    """Least-squares slope of ln C over the initial decay window.

    ``coherences`` holds C at each of the ascending ``times``. The window
    runs from the first sample until C drops below exp(-WINDOW_DEPTH), read
    at call time, and fits the samples in it with C > 1e-6. The slope is
    fitted in times scaled by the window's end and centered, so it holds at
    any time scale the floats reach. When no decay rate can be certified,
    time is inf and residual NaN: C never drops below the threshold, fewer
    than 5 samples are usable, or the slope gives no finite time. The decay
    time then exceeds the last of ``times``.
    """
    times = np.asarray(times, dtype=float)
    cs = np.asarray(coherences, dtype=float)
    below = np.nonzero(cs < math.exp(-WINDOW_DEPTH))[0]
    end = int(below[0]) + 1 if below.size else cs.size  # the first sample past it closes the window
    usable = cs[:end] > 1e-6
    t_win = times[:end][usable]
    if below.size and t_win.size >= 5:
        y = np.log(cs[:end][usable])
        t_end = float(t_win[-1])
        s = t_win / t_end
        s -= s.mean()
        scaled_slope = float(s @ y) / float(s @ s)
        slope = scaled_slope / t_end  # Python floats: a subnormal slope overflows to inf below
        time = -1.0 / slope if slope < 0 else math.inf
        if time < math.inf:
            residual = float(np.sqrt(np.mean((y - y.mean() - scaled_slope * s) ** 2)))
            return FitResult(time=time, residual=residual, n_points=int(t_win.size))
    return FitResult(time=math.inf, residual=math.nan, n_points=int(t_win.size))
