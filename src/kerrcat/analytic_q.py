"""Exact analytic Q function of the damped Kerr oscillator.

The damped Kerr master equation admits a closed-form Husimi function

    Q(alpha, t) = e^{-|alpha|^2 - |a0|^2}
                  sum_{p,q} (alpha a0*)^p / p!  (alpha* a0)^q / q!  Z_pq(t)

    Z_pq(t) = exp{ -(p+q)/2 [gamma + 2 i mu (p-q)] t
                   + gamma |a0|^2 (1 - e^{-lam t}) / lam },
    lam = gamma + 2 i mu (p-q)

subject to Q(alpha, 0) = exp(-|alpha - a0|^2) (Milburn & Holmes, PRL 56,
2237 (1986)). The series is the quadratic form <alpha| rho(t) |alpha> of the
Fock matrix rho_qp(t) = c_q conj(c_p) Z_pq(t), c_n = <n|a0>, so Q is
evaluated through fock.coherent_form, the same probe kernel that the
numeric backend uses. The matrix is truncated where the Poisson tail of
|a0|^2 bounds the error below TAIL_TOL, independently of the grid; the
degenerate lam -> 0 denominator is evaluated by its Taylor series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fock
from .errors import InvariantViolation

#: largest truncation error allowed in any Q value, and the largest
#: |rho - rho^dag| the Hermitian p <-> q symmetry of the series may leave
TAIL_TOL = 1e-10
IMAG_TOL = 1e-10

_Q_FLOOR = -1e-9
_Q_CEIL = 1.0 + 1e-9


@dataclass(frozen=True)
class KerrSystem:
    """Dimensionless kick amplitude plus the two rates of the master equation.

    ``detuning`` extends the resonant (omega_p = omega_M) analysis with the
    linear-in-n phase of the rotating-frame Hamiltonian; it is excluded from
    the validated acceptance path.
    """

    alpha0: complex
    mu: float
    gamma: float
    detuning: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "alpha0", complex(self.alpha0))
        numbers = (self.alpha0.real, self.alpha0.imag, self.mu, self.gamma, self.detuning)
        if not all(math.isfinite(x) for x in numbers):
            raise ValueError(f"alpha0, mu, gamma and detuning must be finite, got {numbers}")
        if self.mu < 0:
            raise ValueError(f"Kerr rate must be non-negative, got {self.mu}")
        if self.gamma < 0:
            raise ValueError(f"damping rate must be non-negative, got {self.gamma}")
        if self.mu == 0 and self.gamma == 0:
            raise ValueError("mu and gamma cannot both vanish")


@dataclass(frozen=True)
class PhaseGrid:
    """Square grid of complex points centered on ``center``.

    Row/column order follows the CSV export convention: imaginary part is
    the outer (row) index, real part the inner (column) index, both
    ascending.
    """

    center: complex = 0j
    half_extent: float = 5.0
    resolution: int = 101

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

    def re_axis(self) -> np.ndarray:
        if self.resolution == 1:
            return np.array([self.center.real])
        return self.center.real + np.linspace(-self.half_extent, self.half_extent, self.resolution)

    def im_axis(self) -> np.ndarray:
        if self.resolution == 1:
            return np.array([self.center.imag])
        return self.center.imag + np.linspace(-self.half_extent, self.half_extent, self.resolution)

    def points(self) -> np.ndarray:
        """Complex grid points, shape (resolution, resolution), [im, re].

        The farthest corner is range-checked first, so no axis overflows.
        """
        c, h = self.center, self.half_extent if self.resolution > 1 else 0.0
        fock.check_probe_range(math.hypot(abs(c.real) + h, abs(c.imag) + h))
        re = self.re_axis()
        im = self.im_axis()
        return re[np.newaxis, :] + 1j * im[:, np.newaxis]


@dataclass(frozen=True, eq=False)
class QSurface:
    """Samples of Q over a grid at one instant."""

    grid: PhaseGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).copy()
        n = self.grid.resolution
        if vals.shape != (n, n):
            raise ValueError(f"values shape {vals.shape} does not match grid {n}x{n}")
        if vals.min() < _Q_FLOOR or vals.max() > _Q_CEIL:
            raise ValueError(
                f"Q values outside [{_Q_FLOOR}, {_Q_CEIL}]: "
                f"min {vals.min()!r}, max {vals.max()!r}"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def series_order(sys: KerrSystem) -> int:
    """Fock truncation N: smallest N with 2 sqrt(P[Poisson(|a0|^2) >= N]) <= TAIL_TOL.

    For a positive rho, Cauchy-Schwarz bounds the change in any
    <beta|rho|alpha> from dropping the levels n >= N by 2 sqrt(Tr rho_{n>=N}).
    That trace is the Poisson tail of |a0>, and damping only lowers it. It is
    summed downward from 40 standard deviations past the mean, where the pmf
    underflows, so only positive terms are added.
    """
    mean = abs(sys.alpha0) ** 2
    if mean == 0:
        return 1
    log_mean, tail = math.log(mean), 0.0
    for k in range(math.ceil(mean + 40.0 * math.sqrt(mean) + 60.0), 0, -1):
        tail += math.exp(k * log_mean - mean - math.lgamma(k + 1.0))
        if 2.0 * math.sqrt(tail) > TAIL_TOL:
            return k + 1
    return 1


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
    ns = ~small
    out[ns] = (1.0 - np.exp(-x[ns])) / lam[ns]
    return out


def _z_matrix(order: int, t: float, sys: KerrSystem) -> np.ndarray:
    """Z_pq for all 0 <= p, q <= order, times the detuning phase per band.

    The phase e^{+i delta (p-q) t} turns alpha0 into alpha0 e^{-i delta t},
    the rotation that H = hbar delta n gives the master equation.
    """
    d = np.arange(-order, order + 1)
    lam = sys.gamma + 2j * sys.mu * d
    g2 = abs(sys.alpha0) ** 2
    log_v = sys.gamma * g2 * _lam_integral(lam, t) + 1j * sys.detuning * d * t
    pp, qq = np.indices((order + 1, order + 1))
    band = pp - qq + order
    return np.exp(-0.5 * (pp + qq) * lam[band] * t + log_v[band])


def _fock_matrix(t: float, sys: KerrSystem) -> np.ndarray:
    """Closed-form rho(t) on the first series_order(sys) levels.

    rho_qp(t) = c_q conj(c_p) Z_pq(t), with c the amplitudes of |alpha0>;
    Q(alpha, t) = <alpha| rho(t) |alpha> is then the double series above.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    fock.check_probe_range(abs(sys.alpha0))
    n = series_order(sys)
    c = fock.coherent_amplitudes(sys.alpha0, n)
    rho = np.outer(c, c.conj()) * _z_matrix(n - 1, t, sys).T
    residue = float(np.max(np.abs(rho - rho.conj().T)))
    if not residue <= IMAG_TOL:
        raise InvariantViolation(f"max |rho - rho^dag| = {residue} breaks p<->q Hermiticity")
    return rho


def q_surface(grid: PhaseGrid, t: float, sys: KerrSystem) -> QSurface:
    """Q over every node of ``grid`` at time ``t``, in chunks of fock.PROBE_CHUNK nodes."""
    pts = grid.points()
    vals = fock.coherent_form(_fock_matrix(t, sys), pts.ravel()).real
    return QSurface(grid=grid, values=vals.reshape(pts.shape))


def grid_normalization(surface: QSurface) -> float:
    """(1/pi) Riemann sum of Q over the grid; 1 when the grid covers the state."""
    w = surface.grid.spacing ** 2
    return float(np.sum(surface.values)) * w / math.pi


def coherent_matrix_element(beta, alpha, t: float, sys: KerrSystem) -> complex:
    """<beta| rho(t) |alpha> of the closed-form Fock matrix.

    Q(alpha, t) is the diagonal beta = alpha; the off-diagonal elements
    feed the branch-coherence diagnostics.
    """
    ket = np.array([complex(alpha)])
    bra = np.array([complex(beta)])
    return complex(fock.coherent_form(_fock_matrix(t, sys), ket, bra)[0])
