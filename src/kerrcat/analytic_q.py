"""Exact analytic Q function of the damped Kerr oscillator.

The damped Kerr master equation admits a closed-form Husimi function

    Q(alpha, t) = e^{-|alpha|^2 - |a0|^2}
                  sum_{p,q} (alpha a0*)^p / p!  (alpha* a0)^q / q!  Z_pq(t)

    Z_pq(t) = exp{ -(p+q)/2 [gamma + 2 i mu (p-q)] t
                   + gamma |a0|^2 (1 - e^{-lam t}) / lam },
    lam = gamma + 2 i mu (p-q)

subject to Q(alpha, 0) = exp(-|alpha - a0|^2). Every term is assembled in
log space (log magnitude plus phase) so nothing overflows for the |a0| and
grid extents this package targets; the degenerate lam -> 0 denominator is
evaluated by its Taylor series.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln
from scipy.stats import poisson

from .errors import GridTooSmall, InvariantViolation, SeriesNotConverged

#: maximum tolerated series tail, and the imaginary residue the Hermitian
#: p <-> q symmetry must cancel to
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
        if self.mu == 0:
            warnings.warn(
                "mu = 0: pure damping, no cat formation and t_cat undefined",
                stacklevel=3,
            )


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
        """Complex grid points, shape (resolution, resolution), [im, re]."""
        re = self.re_axis()
        im = self.im_axis()
        return re[np.newaxis, :] + 1j * im[:, np.newaxis]


@dataclass(frozen=True, eq=False)
class QSurface:
    """Samples of Q over a grid at one instant."""

    grid: PhaseGrid
    time: float
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


def series_order(max_abs_alpha: float, sys: KerrSystem) -> int:
    """Truncation order P = max(25, ceil(r + 10 sqrt(r))), r = max|alpha| |a0|."""
    r = max_abs_alpha * abs(sys.alpha0)
    return max(25, math.ceil(r + 10.0 * math.sqrt(r)))


def _lam_integral(lam: np.ndarray, t: float) -> np.ndarray:
    """(1 - e^{-lam t}) / lam, with the lam -> 0 limit by Taylor series."""
    x = lam * t
    out = np.empty_like(lam)
    small = np.abs(x) < 1e-6
    # three Taylor terms reach full double precision for |x| < 1e-6
    out[small] = t * (1.0 - x[small] / 2.0 + x[small] ** 2 / 6.0)
    ns = ~small
    out[ns] = (1.0 - np.exp(-x[ns])) / lam[ns]
    return out


def z_factor(p: int, q: int, t: float, sys: KerrSystem) -> complex:
    """One coefficient Z_pq(t) of the double series."""
    if p < 0 or q < 0:
        raise ValueError("series indices must be non-negative")
    if t < 0:
        raise ValueError("time must be non-negative")
    lam = np.array([sys.gamma + 2j * sys.mu * (p - q)])
    g2 = abs(sys.alpha0) ** 2
    z = np.exp(-0.5 * (p + q) * lam * t + sys.gamma * g2 * _lam_integral(lam, t))[0]
    if not abs(z) <= math.exp(sys.gamma * g2 * t) * (1.0 + 1e-12):
        raise InvariantViolation(
            f"|Z_{p}{q}| = {abs(z)} violates the exp(gamma |a0|^2 t) bound"
        )
    return complex(z)


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


def _coeff_rows(alphas: np.ndarray, sys: KerrSystem, order: int) -> np.ndarray:
    """Row g holds exp(-(|alpha_g|^2+|a0|^2)/2) (alpha_g a0*)^p / p! for all p."""
    w = alphas * np.conj(sys.alpha0)
    p = np.arange(order + 1)
    pref = -0.5 * (np.abs(alphas) ** 2 + abs(sys.alpha0) ** 2)
    rows = np.zeros((alphas.size, order + 1), dtype=complex)
    nz = w != 0
    with np.errstate(divide="ignore"):
        logw = np.log(w[nz])
    rows[nz, :] = np.exp(
        p[np.newaxis, :] * logw[:, np.newaxis]
        - gammaln(p + 1)[np.newaxis, :]
        + pref[nz, np.newaxis]
    )
    rows[~nz, 0] = np.exp(pref[~nz])
    return rows


def _tail_bound(max_abs_alpha: float, t: float, sys: KerrSystem, order: int) -> float:
    """Bound on everything dropped beyond the order-P truncation box.

    Terms are Poisson weighted in each index with rate r = |alpha| |a0|;
    |Z| is bounded by exp(gamma |a0|^2 (1-e^{-gamma t})/gamma).
    """
    r = max_abs_alpha * abs(sys.alpha0)
    if r == 0:
        return 0.0
    g2 = abs(sys.alpha0) ** 2
    log_z_bound = g2 * (-math.expm1(-sys.gamma * t)) if sys.gamma > 0 else 0.0
    tail = float(poisson.sf(order, r))
    if tail == 0.0:
        return 0.0
    log_bound = math.log(2.0) + log_z_bound + math.log(tail)
    return math.exp(log_bound) if log_bound < 700.0 else math.inf


def _evaluate(alphas: np.ndarray, t: float, sys: KerrSystem) -> np.ndarray:
    """Q at each point of a flat complex array."""
    if t < 0:
        raise ValueError("time must be non-negative")
    max_abs = float(np.max(np.abs(alphas))) if alphas.size else 0.0
    order = series_order(max_abs, sys)
    bound = _tail_bound(max_abs, t, sys, order)
    if bound > TAIL_TOL:
        worst = alphas[np.argmax(np.abs(alphas))]
        raise SeriesNotConverged(
            f"series tail {bound!r} exceeds {TAIL_TOL} at order {order} "
            f"(worst point alpha = {worst!r})"
        )
    rows = _coeff_rows(alphas, sys, order)
    zmat = _z_matrix(order, t, sys)
    tvals = np.einsum("gp,gp->g", rows @ zmat, rows.conj())
    residue = float(np.max(np.abs(tvals.imag))) if tvals.size else 0.0
    if not residue <= IMAG_TOL:
        raise InvariantViolation(f"imaginary residue {residue} breaks p<->q Hermiticity")
    return tvals.real


def q_value(alpha, t: float, sys: KerrSystem) -> float:
    """Q(alpha, t) at a single phase-space point."""
    vals = _evaluate(np.array([complex(alpha)]), t, sys)
    q = float(vals[0])
    if not _Q_FLOOR <= q <= _Q_CEIL:
        raise InvariantViolation(f"Q = {q} outside [0, 1] beyond slack")
    return q


def q_surface(grid: PhaseGrid, t: float, sys: KerrSystem) -> QSurface:
    """Q over every node of ``grid`` at time ``t``.

    Nodes are independent (no reduction order dependence), so the evaluation
    is safe to parallelize; here it is vectorized over the whole grid.
    """
    pts = grid.points()
    vals = _evaluate(pts.ravel(), t, sys)
    return QSurface(grid=grid, time=float(t), values=vals.reshape(pts.shape))


def grid_normalization(surface: QSurface) -> float:
    """(1/pi) Riemann sum of Q over the grid; 1 when the grid covers the state."""
    w = surface.grid.spacing ** 2
    return float(np.sum(surface.values)) * w / math.pi


def mean_n_from_q(surface: QSurface) -> float:
    """Mean occupation from the antinormally ordered moment of Q.

    (1/pi) int |alpha|^2 Q d^2alpha = <a a^dag> = <n> + 1; requires the
    grid to hold the full distribution (normalization within 1e-3).
    """
    norm = grid_normalization(surface)
    if abs(norm - 1.0) > 1e-3:
        raise GridTooSmall(
            f"(1/pi) integral of Q is {norm!r}; enlarge the grid before taking moments"
        )
    w = surface.grid.spacing ** 2
    moment = float(np.sum(np.abs(surface.grid.points()) ** 2 * surface.values)) * w / math.pi
    return moment - 1.0


def coherent_matrix_element(beta, alpha, t: float, sys: KerrSystem) -> complex:
    """Analytic continuation <beta| rho(t) |alpha> of the Q series.

    Q(alpha, t) is the diagonal beta = alpha; replacing the conjugated
    variable with an independent bra amplitude gives the full coherent-state
    kernel of rho(t). Used for branch-coherence diagnostics.
    """
    b = complex(beta)
    a = complex(alpha)
    max_abs = max(abs(a), abs(b))
    order = series_order(max_abs, sys)
    bound = _tail_bound(max_abs, t, sys, order)
    if bound > TAIL_TOL:
        raise SeriesNotConverged(
            f"series tail {bound!r} exceeds {TAIL_TOL} at order {order}"
        )
    row_ket = _coeff_rows(np.array([a]), sys, order)[0]  # (alpha a0*)^p / p! side
    row_bra = _coeff_rows(np.array([b]), sys, order)[0]  # (beta* a0)^q / q! side
    zmat = _z_matrix(order, t, sys)
    val = row_ket @ zmat @ row_bra.conj()
    # the two half-prefactors assembled by _coeff_rows use |alpha|^2 and
    # |beta|^2; together they give e^{-(|alpha|^2+|beta|^2)/2 - |a0|^2}
    return complex(val)
