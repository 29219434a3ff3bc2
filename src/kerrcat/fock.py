"""Truncated Fock-space kernel.

States are stored in the number basis |0>, ..., |N-1>. Coherent amplitudes
are built by the stable recurrence c_{n+1} = c_n * alpha / sqrt(n+1) starting
from c_0 = exp(-|alpha|^2 / 2), which avoids explicit factorials; it also
builds the probes of ``q_grid``, <alpha|rho|alpha> behind every Q surface,
which projects them on the eigenvectors of rho that rounding does not hide
(one for a pure state). Phase-space functions use the conventions

    Q(alpha) = <alpha| rho |alpha>        (no 1/pi factor)
    W(alpha) = (2/pi) sum_n (-1)^n <n| D(alpha)^dag rho D(alpha) |n>

so that Q of a coherent state |beta> is exactly exp(-|alpha - beta|^2).
W sums rho's diagonals against displacement matrix elements that a
normalized, rescaled Laguerre recurrence builds for a whole batch of points
at once, finite up to |alpha| = 2^149 (NumPy and the standard library only).
At the origin, and where |alpha|^2 underflows, the same recurrence gives the
parity sum (2/pi) sum_n (-1)^n rho_nn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SeriesNotConverged

#: largest truncation error allowed in any Q value (see series_order)
TAIL_TOL = 1e-10

#: largest |alpha| for which e^{-|alpha|^2/2} is a normal double (about 37.6)
PROBE_ABS_MAX = math.sqrt(-2.0 * math.log(np.finfo(float).tiny))

#: points per block of q_grid, whose (N x points) probe arrays stay this narrow
PROBE_CHUNK = 2048

#: the Wigner recurrence divides a value by this power of two once it grows past it
_RESCALE = 2.0**300

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-9


def series_order(alpha) -> int:
    """Levels N for |alpha>: the least N >= 2 with 2 sqrt(P[Poisson(|alpha|^2) >= N]) <= TAIL_TOL.

    For a positive rho, Cauchy-Schwarz bounds the change in any
    <beta|rho|alpha> from dropping the levels n >= N by 2 sqrt(Tr rho_{n>=N}).
    That trace is the Poisson tail of |alpha>, at most 2.5e-21, and damping
    only lowers it. It is summed downward from 40 standard deviations past the
    mean, where the pmf underflows, so only positive terms are added. Two
    levels at least leave the top one empty when alpha is 0. An |alpha|
    beyond check_probe_range raises SeriesNotConverged.
    """
    a = abs(complex(alpha))
    check_probe_range(a)
    mean = a**2
    if mean == 0:
        return 2
    log_mean, tail = math.log(mean), 0.0
    for k in range(math.ceil(mean + 40.0 * math.sqrt(mean) + 60.0), 1, -1):
        tail += math.exp(k * log_mean - mean - math.lgamma(k + 1.0))
        if 2.0 * math.sqrt(tail) > TAIL_TOL:
            return k + 1
    return 2


@dataclass(frozen=True, eq=False)
class FockVector:
    """Normalized pure state c_0 .. c_{N-1} in the number basis."""

    amplitudes: np.ndarray
    cutoff: int = field(init=False)

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).copy()
        if amp.ndim != 1 or amp.size < 1:
            raise ValueError("amplitudes must be a non-empty 1-d sequence")
        if not np.isfinite(amp).all():
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(amp) ** 2))
        if not abs(norm_sq - 1.0) <= 1e-12:
            raise ValueError(f"state not normalized: sum |c_n|^2 = {norm_sq!r}")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "cutoff", amp.size)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, positive N x N operator in the number basis.

    Positive means lambda_min >= _EIGENVALUE_FLOOR (-1e-9). A Cholesky
    factorization of A = rho + s I, s = -floor / 2, accepts every state with
    lambda_min clearly above -s; only when it fails does eigvalsh decide, as
    it always did, and name the smallest eigenvalue in the rejection.

    A completed factorization R^H R = A + dA proves lambda_min(rho) >
    -s - |dA|_2. Higham (Accuracy and Stability of Numerical Algorithms,
    2nd ed., Thm 10.3) gives |dA| <= g |R^H| |R| elementwise, g = g_{n+1},
    g_k = k u / (1 - k u); a complex product rounds with up to sqrt(2) g_2
    < g_3 (ibid. Sec. 3.6), so g = g_{n+3} here. Then |dA|_2 <= |dA|_F <=
    g |R|_F^2 = g tr(A + dA), and with the rounded shift |dA|_2 <=
    2 (n + 4) u tr A. The factorization runs only while that is at most
    s/2: at unit trace, every cutoff up to about 1.1 million (N = 590 gives
    1.3e-13). So it accepts only lambda_min > -1.5 s, and the other s/2
    covers eigvalsh's own O(n u |rho|_2) rounding: eigvalsh accepts it too.
    """

    elements: np.ndarray
    cutoff: int = field(init=False)

    def __post_init__(self):
        mat = np.asarray(self.elements, dtype=complex).copy()
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError("elements must be a square matrix")
        if not np.isfinite(mat).all():
            raise ValueError("matrix elements must be finite")
        herm = np.max(np.abs(mat - mat.conj().T))
        if not herm <= _HERMITICITY_TOL:
            raise ValueError(f"matrix not Hermitian: max |rho - rho^dag| = {herm!r}")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= _TRACE_TOL:
            raise ValueError(f"trace {tr!r} differs from 1 beyond {_TRACE_TOL}")
        if not _factors_above_floor(mat, tr.real):
            lo = float(np.linalg.eigvalsh(mat).min())
            if not lo >= _EIGENVALUE_FLOOR:
                raise ValueError(f"matrix not positive: smallest eigenvalue {lo!r}")
        mat.flags.writeable = False
        object.__setattr__(self, "elements", mat)
        object.__setattr__(self, "cutoff", mat.shape[0])


def _factors_above_floor(mat: np.ndarray, trace: float) -> bool:
    """True when Cholesky factors mat + s I, s = -_EIGENVALUE_FLOOR / 2 (see DensityOperator).

    False, so eigvalsh decides, when it does not, or when the rounding bound
    2 (n + 4) u (trace + n s) of a completed factorization exceeds s/2.
    """
    n = mat.shape[0]
    shift = -_EIGENVALUE_FLOOR / 2
    if not 2 * (n + 4) * (math.ulp(1.0) / 2) * (trace + n * shift) <= shift / 2:
        return False
    shifted = mat.copy()
    shifted.flat[:: n + 1] += shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def coherent_amplitudes(alpha, cutoff: int) -> np.ndarray:
    """Exact number-basis amplitudes <n|alpha> for n < cutoff, not renormalized.

    A |alpha| beyond check_probe_range, whose vacuum weight underflows, raises
    SeriesNotConverged.
    """
    a = complex(alpha)
    check_probe_range(abs(a))
    amp = np.empty(cutoff, dtype=complex)
    amp[0] = math.exp(-0.5 * abs(a) ** 2)
    for n in range(cutoff - 1):
        amp[n + 1] = amp[n] * a / math.sqrt(n + 1)
    return amp


def mirror_amplitudes(amp: np.ndarray) -> np.ndarray:
    """(-1)^n amp_n: the amplitudes of |-alpha> from those of |alpha>.

    Each step of the recurrence only flips the sign of alpha, so this equals
    coherent_amplitudes(-alpha, n) bit for bit without a second recurrence.
    """
    out = np.array(amp, dtype=complex)
    out[1::2] = -out[1::2]
    return out


def coherent_state(alpha) -> FockVector:
    """Coherent state |alpha> on series_order(alpha) levels, renormalized.

    The levels dropped hold at most the Poisson tail that series_order bounds.
    """
    amp = coherent_amplitudes(alpha, series_order(alpha))
    return FockVector(amp / math.sqrt(float(np.sum(np.abs(amp) ** 2))))


def cat_state(alpha0) -> FockVector:
    """Two-branch superposition (e^{-i pi/4}|a0> - e^{i pi/4}|-a0>) / sqrt(2).

    Built on series_order(alpha0) levels, those of |alpha0>, since the cat
    has its populations. The combination has unit norm for every alpha0
    because the branch cross terms cancel; after truncation the vector is
    renormalized exactly.
    """
    plus = coherent_amplitudes(alpha0, series_order(alpha0))
    minus = mirror_amplitudes(plus)
    phase = np.exp(-0.25j * np.pi)
    amp = (phase * plus - np.conj(phase) * minus) / math.sqrt(2.0)
    amp /= math.sqrt(float(np.sum(np.abs(amp) ** 2)))
    return FockVector(amp)


def density_from_pure(psi: FockVector) -> DensityOperator:
    """Rank-one projector |psi><psi|."""
    return DensityOperator(np.outer(psi.amplitudes, psi.amplitudes.conj()))


def check_probe_range(max_abs: float) -> None:
    """SeriesNotConverged unless e^{-|alpha|^2/2} is a normal double for |alpha| = max_abs.

    Compares |alpha| itself, so no magnitude is squared and none can overflow.
    """
    if not max_abs <= PROBE_ABS_MAX:
        raise SeriesNotConverged(
            f"|alpha| = {max_abs!r} underflows e^(-|alpha|^2/2) (limit {PROBE_ABS_MAX:.4g})"
        )


def check_time(t: float) -> None:
    """ValueError unless t is finite and non-negative: the one time rule of both backends."""
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be finite and non-negative, got {t!r}")


def _probes(points: np.ndarray, out: np.ndarray) -> np.ndarray:
    """<k|alpha_g> for k < n into the (n, points) array ``out``, by the amplitude recurrence."""
    out[0] = np.exp(-0.5 * (points.real**2 + points.imag**2))
    scaled = out.view(float)  # a real scale, not NumPy's complex divide
    for k in range(out.shape[0] - 1):
        np.multiply(out[k], points, out=out[k + 1])
        scaled[k + 1] *= 1.0 / math.sqrt(k + 1)
    return out


def q_grid(mat: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Q = Re <alpha|mat|alpha> at alpha = re[j] + i im[i], shape (im.size, re.size).

    That is <alpha|H|alpha> for H = (mat + mat^H)/2 = sum_j w_j v_j v_j^H, which eigh
    factors for any mat, signed w included: Q = sum_j w_j |v_j^H k|^2 at the probe
    k = <n|alpha>. The smallest |w_j| are dropped while their sum is at most N eps sum |w|
    (eps the machine epsilon), the rounding scale of the N x N product they replace; r
    rows remain, 1 for a pure state. PROBE_CHUNK points at a time are built from the
    axes into (N x points) probe and (r x points) product buffers allocated once, not per
    chunk, so the result, 8 bytes a point, is the only array that grows with the grid. A
    point beyond check_probe_range raises SeriesNotConverged.
    """
    out = np.empty((im.size, re.size))
    if out.size:  # the largest |alpha| on the grid, rounded as np.abs rounds each point
        check_probe_range(float(np.abs(np.max(np.abs(re)) + 1j * np.max(np.abs(im)))))
    flat, n = out.reshape(-1), mat.shape[0]
    w, v = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    small = np.argsort(np.abs(w))
    keep = small[np.cumsum(np.abs(w[small])) > n * np.finfo(float).eps * np.sum(np.abs(w))]
    w, vh = w[keep], v[:, keep].conj().T
    kets_buf, prod_buf = (np.empty(m * min(flat.size, PROBE_CHUNK), complex) for m in (n, w.size))
    for start in range(0, flat.size, PROBE_CHUNK):
        size = min(PROBE_CHUNK, flat.size - start)
        rows, cols = np.divmod(np.arange(start, start + size), re.size)
        kets = _probes(re[cols] + 1j * im[rows], kets_buf[: n * size].reshape(n, size))
        prod = np.matmul(vh, kets, out=prod_buf[: w.size * size].reshape(-1, size)).view(float)
        flat[start : start + size] = (w @ np.square(prod, out=prod)).reshape(-1, 2).sum(axis=1)
    return out


def wigner(rho: DensityOperator, points) -> np.ndarray:
    """Displaced-parity Wigner values W(alpha) at every point, in the shape of ``points``.

    W(alpha) = (2/pi) Tr[rho D(beta) Pi] at beta = 2 alpha, exact for states
    supported inside the cutoff, so |W| <= 2/pi. With theta = arg beta,
    x = |beta|^2 and the displacement elements
    g_j^k = (-1)^j sqrt(j!/(j+k)!) x^{k/2} e^{-x/2} L_j^(k)(x), |g| <= 1,

        Tr[rho D Pi] = sum_k (2 - [k = 0]) Re[e^{ik theta} sum_j rho_{j,j+k} g_j^k]

    for Hermitian rho: one diagonal of rho per k, as in the Wigner sum of
    Johansson, Nation & Nori, Comput. Phys. Commun. 184, 1234 (2013). g runs
    up in j, for every k and point at once, by the normalized Laguerre recurrence

        g_{j+1} = -[(2j+k+1-x) g_j + sqrt(j(j+k)) g_{j-1}] / sqrt((j+1)(j+k+1)).

    It starts at 1 and carries g_0^k = e^{-x/2} x^{k/2} / sqrt(k!) as a log
    scale, dividing by _RESCALE wherever it grows past it; a step multiplies g
    by about x, so a point needs |beta| <= sqrt(_RESCALE), else (NaN too) it
    raises SeriesNotConverged, as q_grid does. At x = 0, the origin or an
    underflowing |beta|^2, x^{k/2} is [k = 0] and g_j^0 = (-1)^j exactly, so
    W is the parity sum (2/pi) sum_n (-1)^n rho_nn, summed in order of n.
    """
    alpha = np.asarray(points, dtype=complex)
    reach = np.abs(alpha)  # hypot, so nothing is squared; NaN fails the comparison
    if not np.all(reach <= 0.5 * math.sqrt(_RESCALE)):  # before 2 alpha can overflow
        raise SeriesNotConverged(f"Wigner needs |alpha| <= 2^149, got {float(np.max(reach))!r}")
    beta = 2.0 * alpha
    x = (beta.real**2 + beta.imag**2).reshape(-1, 1)
    mat, n = rho.elements, rho.cutoff
    k = np.arange(n)
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(n)])
    with np.errstate(divide="ignore"):  # log 0 = -inf: x^{k/2} = 0 for k > 0
        log_scale = 0.5 * (k * np.log(np.where(k > 0, x, 1.0)) - x - log_fact)
    acc = np.zeros((beta.size, n), dtype=complex)
    g_prev, g = np.zeros((beta.size, n)), np.ones((beta.size, n))
    for j in range(n):
        m = n - j
        acc[:, :m] += mat[j, j:] * g
        if m == 1:
            break
        kk = k[: m - 1]
        g_next = (x - (2 * j + 1 + kk)) * g[:, : m - 1] - np.sqrt(j * (j + kk)) * g_prev[:, : m - 1]
        g_prev, g = g[:, : m - 1], g_next / np.sqrt((j + 1) * (j + 1 + kk))
        big = np.abs(g) > _RESCALE
        if big.any():
            for arr in (g, g_prev, acc[:, : m - 1]):
                arr[big] /= _RESCALE
            log_scale[:, : m - 1][big] += math.log(_RESCALE)
    terms = (np.exp(1j * np.angle(beta).reshape(-1, 1) * k) * acc).real * np.exp(log_scale)
    terms[:, 1:] *= 2.0
    return ((2.0 / np.pi) * terms.sum(axis=1)).reshape(beta.shape)


def fidelity(rho: DensityOperator, psi: FockVector) -> float:
    """<psi| rho |psi>, in [0, 1] up to numerical slack; a cutoff mismatch is a ValueError."""
    if rho.cutoff != psi.cutoff:
        raise ValueError(f"density operator cutoff {rho.cutoff} != state cutoff {psi.cutoff}")
    val = np.vdot(psi.amplitudes, rho.elements @ psi.amplitudes)
    return float(val.real)


def expectation_n(rho: DensityOperator) -> float:
    """Mean occupation sum_n n rho_nn."""
    return float(np.dot(np.arange(rho.cutoff), np.diag(rho.elements).real))


def purity(rho: DensityOperator) -> float:
    """Tr rho^2."""
    return float(np.sum(np.abs(rho.elements) ** 2))
