"""Exact analytic Q function of the damped Kerr oscillator.

The damped Kerr master equation admits a closed-form Husimi function
(Milburn & Holmes, PRL 56, 2237 (1986)), the quadratic form
Q(alpha, t) = <alpha| rho(t) |alpha> of the Fock matrix

    rho_qp(t) = <q|a_t> <a_t|p> K_qp(t),   a_t = a0 e^{-gamma t/2},
    K_qp(t) = exp{ -i mu (p+q)(p-q) t + i delta (p-q) t
                   + gamma |a0|^2 [x_{p-q}(t) - x_0(t)] },
    x_k(t) = (1 - e^{-lam_k t}) / lam_k,   lam_k = gamma + 2 i mu k,

subject to Q(alpha, 0) = exp(-|alpha - a0|^2). Since Re x_k <= x_0, no
exponent of K has a positive real part: nothing overflows where the same
matrix as <q|a0> <a0|p> Z_pq(t) carries e^{|a0|^2 (1 - e^{-gamma t})}.
density returns it as a fock.DensityOperator, the type the numeric backend
returns too; q_surface turns either one into Q through fock.q_grid, one probe
product per retained eigenvector of rho: a single one while rho is pure. The
matrix is truncated by fock.series_order, the rule both backends share,
where the Poisson tail of |a0|^2 bounds the error below fock.TAIL_TOL,
independently of the grid; the degenerate lam -> 0 denominator is evaluated
by its Taylor series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fock
from .errors import InvariantViolation
from .fock import series_order

_Q_FLOOR = -1e-9
_Q_CEIL = 1.0 + 1e-9


@dataclass(frozen=True)
class KerrSystem:
    """Dimensionless kick amplitude plus the two rates of the master equation.

    ``detuning`` extends the resonant (omega_p = omega_M) analysis with the
    linear-in-n phase of the rotating-frame Hamiltonian. It owns alpha0's
    range: past fock.PROBE_ABS_MAX, inf and NaN included, it raises SeriesNotConverged.
    """

    alpha0: complex
    mu: float
    gamma: float
    detuning: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "alpha0", complex(self.alpha0))
        fock.check_probe_range(math.hypot(self.alpha0.real, self.alpha0.imag))
        numbers = (self.mu, self.gamma, self.detuning)
        if not all(math.isfinite(x) for x in numbers):
            raise ValueError(f"mu, gamma and detuning must be finite, got {numbers}")
        if self.mu < 0:
            raise ValueError(f"Kerr rate must be non-negative, got {self.mu}")
        if self.gamma < 0:
            raise ValueError(f"damping rate must be non-negative, got {self.gamma}")
        if self.mu == 0 and self.gamma == 0:
            raise ValueError("mu and gamma cannot both vanish")

    def angles(self, t):
        """(mu t, delta t) mod 2 pi: every phase of both backends is one times an integer."""
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite product gives NaN
            return np.fmod(self.mu * t, 2 * np.pi), np.fmod(self.detuning * t, 2 * np.pi)


@dataclass(frozen=True)
class PhaseGrid:
    """Square grid of complex points centered on ``center``.

    Row/column order follows the CSV export convention: imaginary part is
    the outer (row) index, real part the inner (column) index, both
    ascending.
    """

    center: complex
    half_extent: float
    resolution: int

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        if not (math.isfinite(self.center.real) and math.isfinite(self.center.imag)):
            raise ValueError(f"center must be finite, got {self.center}")
        if not 0 < self.half_extent < math.inf:
            raise ValueError(f"half_extent must be positive and finite, got {self.half_extent}")
        if self.resolution < 1 or self.resolution % 2 == 0:
            raise ValueError(f"resolution must be an odd positive integer, got {self.resolution}")

    @property
    def spacing(self) -> float:
        if self.resolution == 1:
            return 0.0
        return 2.0 * self.half_extent / (self.resolution - 1)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """(re, im) node coordinates, ascending; the farthest corner is range-checked first."""
        c, h = self.center, self.half_extent if self.resolution > 1 else 0.0
        fock.check_probe_range(math.hypot(abs(c.real) + h, abs(c.imag) + h))
        # a single node is the center itself, a -0.0 part included
        offsets = np.linspace(-h, h, self.resolution) if h else np.array([-0.0])
        return c.real + offsets, c.imag + offsets

    def points(self) -> np.ndarray:
        """Complex grid points, shape (resolution, resolution), [im, re] (range-checked by axes)."""
        re, im = self.axes()
        return re[np.newaxis, :] + 1j * im[:, np.newaxis]


@dataclass(frozen=True, eq=False)
class QSurface:
    """Samples of Q over a grid at one instant.

    A float64 ``values`` array is taken without a copy and made read-only.
    """

    grid: PhaseGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        n = self.grid.resolution
        if vals.shape != (n, n):
            raise ValueError(f"values shape {vals.shape} does not match grid {n}x{n}")
        if not np.isfinite(vals).all():
            raise ValueError("Q values must be finite")
        if not (_Q_FLOOR <= vals.min() and vals.max() <= _Q_CEIL):
            raise ValueError(
                f"Q values outside [{_Q_FLOOR}, {_Q_CEIL}]: "
                f"min {vals.min()!r}, max {vals.max()!r}"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def _lam_integral(lam: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """(1 - e^{-lam t}) / lam, with the lam -> 0 limit by Taylor series.

    ``lam`` and ``t`` broadcast against each other, so a column of times
    gives one row of values per time.
    """
    lam, t = np.broadcast_arrays(lam, t)
    x = lam * t
    out = np.empty_like(x)
    small = np.abs(x) < 1e-6
    # three Taylor terms reach full double precision for |x| < 1e-6
    out[small] = t[small] * (1.0 - x[small] / 2.0 + x[small] ** 2 / 6.0)
    # NumPy's complex divide forms 1 / lam, which overflows for a subnormal
    # lam (a subnormal gamma at resonance); t (1 - e^{-x}) / x is the same value
    sub = ~small & (np.abs(lam) < np.finfo(float).tiny)
    out[sub] = t[sub] * ((1.0 - np.exp(-x[sub])) / x[sub])
    ns = ~small & ~sub
    out[ns] = (1.0 - np.exp(-x[ns])) / lam[ns]
    return out


def _kernel(order: int, t: float, sys: KerrSystem) -> np.ndarray:
    """K_qp(t) for all 0 <= q, p <= order (module docstring): |K| <= 1, K_qq = 1.

    The phase e^{i delta (p-q) t} turns alpha0 into alpha0 e^{-i delta t},
    the rotation that H = hbar delta n gives the master equation. K(0) = 1
    exactly: sys.angles(0) are 0, as is lam t for every finite lam.
    """
    kerr_t, det_t = sys.angles(t)
    d = np.arange(-order, order + 1)
    x = _lam_integral(sys.gamma + 2j * sys.mu * d, t)
    log_v = abs(sys.alpha0) ** 2 * (sys.gamma * (x - x[order])) + 1j * det_t * d
    qq, pp = np.indices((order + 1, order + 1))
    band = pp - qq + order
    return np.exp(-0.5 * (pp + qq) * (2j * d)[band] * kerr_t + log_v[band])


def density(t: float, sys: KerrSystem) -> fock.DensityOperator:
    """Closed-form rho(t) on the first series_order(sys.alpha0) levels, validated as a state.

    rho_qp(t) = <q|a_t> <a_t|p> K_qp(t), a_t = alpha0 e^{-gamma t/2}, for t in
    [0, inf). A matrix that DensityOperator rejects raises InvariantViolation.
    """
    fock.check_time(t)
    n = series_order(sys.alpha0)
    c = fock.coherent_amplitudes(sys.alpha0 * math.exp(-0.5 * sys.gamma * t), n)
    # rates near the float limit overflow a phase, and DensityOperator rejects
    # the non-finite rho, or lam t, whose e^{-lam t} = 0 is the exact limit
    with np.errstate(over="ignore", invalid="ignore"):
        rho = np.outer(c, c.conj()) * _kernel(n - 1, t, sys)
    try:
        return fock.DensityOperator(rho)
    except ValueError as exc:
        raise InvariantViolation(f"closed-form rho at t = {t}: {exc}") from exc


def q_surface(grid: PhaseGrid, rho: fock.DensityOperator) -> QSurface:
    """Q = <alpha| rho |alpha> over every node of ``grid`` (fock.q_grid), for either backend.

    A Q that QSurface rejects raises InvariantViolation.
    """
    re, im = grid.axes()
    try:
        return QSurface(grid=grid, values=fock.q_grid(rho.elements, re, im))
    except ValueError as exc:
        raise InvariantViolation(f"Q of a valid state: {exc}") from exc


def grid_normalization(surface: QSurface) -> float:
    """(1/pi) Riemann sum of Q over the grid; 1 when the grid covers the state."""
    w = surface.grid.spacing ** 2
    return float(np.sum(surface.values)) * w / math.pi
