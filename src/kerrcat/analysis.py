"""Cat-state diagnostics and decoherence quantification.

The branch-coherence observable is the normalized cross element

    C = |<a_t| rho |-a_t>| / sqrt(<a_t|rho|a_t> <-a_t|rho|-a_t>),
    a_t = alpha0 e^{-gamma t / 2},

which is exactly 1 for every pure state and decays, for a damped balanced
cat, as exp[-2 |alpha0|^2 (1 - e^{-gamma t})]. Its initial 1/e time is
therefore 1/(2 gamma |alpha0|^2): the decoherence-time scaling with a
factor-2 offset from the bare (gamma |alpha0|^2)^{-1} estimate. The decay
law is exponential only while gamma t << 1, so the fitted time comes from a
least-squares slope over a shallow initial window of ln C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import DegenerateBranches, InsufficientDecay

#: fit window ends once ln C has dropped by this much (or C < 1e-4);
#: shallow enough that the exponential approximation holds for the
#: smallest amplitudes of interest
WINDOW_DEPTH = 0.02
WINDOW_FLOOR = 1e-4

_DENOMINATOR_FLOOR = 1e-15


@dataclass(frozen=True)
class CatReport:
    """Summary of one cat-formation and decoherence experiment."""

    alpha0: complex
    t_cat: float
    fidelity_at_tcat: float
    wigner_origin: float
    coherence: float
    t_dec_fitted: float
    t_dec_formula: float


@dataclass(frozen=True)
class FitResult:
    """Decoherence-time fit with its residual."""

    time: float
    slope: float
    residual: float
    n_points: int
    window_end: float


def coherence_metric(rho: fock.DensityOperator, alpha0, t: float, gamma: float) -> float:
    """Normalized coherence between the two damped branch amplitudes."""
    a_t = complex(alpha0) * math.exp(-0.5 * gamma * t)
    plus = fock.coherent_amplitudes(a_t, rho.cutoff)
    minus = fock.mirror_amplitudes(plus)
    mat = np.asarray(rho.elements)
    num = abs(np.vdot(plus, mat @ minus))
    d_plus = float(np.vdot(plus, mat @ plus).real)
    d_minus = float(np.vdot(minus, mat @ minus).real)
    if d_plus <= _DENOMINATOR_FLOOR or d_minus <= _DENOMINATOR_FLOOR:
        raise DegenerateBranches(
            f"branch populations {d_plus!r}, {d_minus!r} too small at t = {t}"
        )
    return float(num / math.sqrt(d_plus * d_minus))


def decoherence_fit(times, coherences, window_depth: float = WINDOW_DEPTH) -> FitResult:
    """Least-squares slope of ln C over the initial decay window.

    ``coherences`` holds C at each of the ascending ``times``. The window
    runs from the first sample until C drops below
    max(exp(-window_depth), 1e-4). Raises InsufficientDecay (carrying a
    lower bound on the decay time) when the samples never reach the window
    threshold, i.e. when no decay rate can be certified.
    """
    times = np.asarray(times, dtype=float)
    cs = np.asarray(coherences, dtype=float)
    threshold = max(math.exp(-window_depth), WINDOW_FLOOR)
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
    if slope >= 0:
        raise InsufficientDecay(
            "coherence does not decay over the fit window",
            lower_bound=float(times[-1]),
        )
    residual = float(np.sqrt(res[0] / t_win.size)) if res.size else 0.0
    return FitResult(
        time=-1.0 / slope,
        slope=slope,
        residual=residual,
        n_points=int(t_win.size),
        window_end=float(t_win[-1]),
    )


def fit_decoherence_time(times, coherences, window_depth: float = WINDOW_DEPTH) -> float:
    """1/e time of the coherence metric from the initial-window fit."""
    return decoherence_fit(times, coherences, window_depth).time


def wigner_slice(
    rho: fock.DensityOperator,
    axis: str,
    extent: float,
    resolution: int,
) -> list[tuple[float, float]]:
    """Wigner values along one phase-space axis through the origin.

    ``axis`` is "real" or "imaginary". For a cat with real alpha0 the
    imaginary-axis slice carries the interference fringes.
    """
    if axis not in ("real", "imaginary"):
        raise ValueError(f"axis must be 'real' or 'imaginary', got {axis!r}")
    positions = np.linspace(-extent, extent, resolution)
    direction = 1.0 if axis == "real" else 1.0j
    return [(float(x), fock.wigner(rho, direction * x)) for x in positions]
