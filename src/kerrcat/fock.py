"""Truncated Fock-space kernel.

States are stored in the number basis |0>, ..., |N-1>. Coherent amplitudes
are built by the stable recurrence c_{n+1} = c_n * alpha / sqrt(n+1) starting
from c_0 = exp(-|alpha|^2 / 2), which avoids explicit factorials; it also
builds the probes of ``coherent_form``, the quadratic form <beta|M|alpha>
behind every Q surface. Phase-space functions use the conventions

    Q(alpha) = <alpha| rho |alpha>        (no 1/pi factor)
    W(alpha) = (2/pi) sum_n (-1)^n <n| D(alpha)^dag rho D(alpha) |n>

so that Q of a coherent state |beta> is exactly exp(-|alpha - beta|^2).
W uses the analytic displacement matrix, its Laguerre factors built by their
three-term recurrence in the degree (NumPy and the standard library only).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffTooSmall, DimensionMismatch, SeriesNotConverged

#: truncated coherent-state weight allowed to fall beyond the cutoff
TRUNCATION_TOL = 1e-12

#: largest |alpha|^2 / 2 for which e^{-|alpha|^2/2} is a normal double (|alpha| <= 37.6)
PROBE_EXPONENT_MAX = -math.log(np.finfo(float).tiny)

#: points per block of coherent_form, whose (N x points) probe arrays stay this narrow
PROBE_CHUNK = 2048

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-9


def default_cutoff(alpha: complex) -> int:
    """Cutoff rule N = ceil(|alpha|^2 + 8|alpha| + 10).

    Keeps the truncated coherent-state weight below 1e-12 for |alpha| <= 6
    (Poisson tail bound).
    """
    a = abs(complex(alpha))
    return math.ceil(a * a + 8.0 * a + 10.0)


@dataclass(frozen=True)
class PhasePoint:
    """A point alpha of the complex phase plane."""

    alpha: complex

    def __post_init__(self):
        a = complex(self.alpha)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError("phase point must have finite real and imaginary parts")
        object.__setattr__(self, "alpha", a)


def _as_complex(alpha) -> complex:
    if isinstance(alpha, PhasePoint):
        return alpha.alpha
    return complex(alpha)


@dataclass(frozen=True, eq=False)
class FockVector:
    """Normalized pure state c_0 .. c_{N-1} in the number basis."""

    amplitudes: np.ndarray
    cutoff: int = field(init=False)

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).copy()
        if amp.ndim != 1 or amp.size < 1:
            raise ValueError("amplitudes must be a non-empty 1-d sequence")
        norm_sq = float(np.sum(np.abs(amp) ** 2))
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: sum |c_n|^2 = {norm_sq!r}")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "cutoff", amp.size)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, positive N x N operator in the number basis."""

    elements: np.ndarray
    cutoff: int = field(init=False)

    #: widened by the integrator, which conserves trace only to its own tolerance
    trace_tol: float = _TRACE_TOL

    def __post_init__(self):
        mat = np.asarray(self.elements, dtype=complex).copy()
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError("elements must be a square matrix")
        herm = np.max(np.abs(mat - mat.conj().T))
        if herm > _HERMITICITY_TOL:
            raise ValueError(f"matrix not Hermitian: max |rho - rho^dag| = {herm!r}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > self.trace_tol:
            raise ValueError(f"trace {tr!r} differs from 1 beyond {self.trace_tol}")
        lo = float(np.linalg.eigvalsh(mat).min())
        if lo < _EIGENVALUE_FLOOR:
            raise ValueError(f"matrix not positive: smallest eigenvalue {lo!r}")
        mat.flags.writeable = False
        object.__setattr__(self, "elements", mat)
        object.__setattr__(self, "cutoff", mat.shape[0])


def coherent_amplitudes(alpha, cutoff: int) -> np.ndarray:
    """Exact number-basis amplitudes <n|alpha> for n < cutoff, not renormalized."""
    a = _as_complex(alpha)
    if 0.5 * abs(a) ** 2 > PROBE_EXPONENT_MAX:
        raise CutoffTooSmall(
            f"coherent amplitude |alpha| = {abs(a)} underflows the vacuum weight"
        )
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


def coherent_state(alpha, cutoff: int | None = None) -> FockVector:
    """Coherent state |alpha> truncated to ``cutoff`` levels and renormalized.

    Raises CutoffTooSmall when the weight lost to truncation exceeds 1e-12.
    """
    a = _as_complex(alpha)
    n = default_cutoff(a) if cutoff is None else int(cutoff)
    if n < 1:
        raise CutoffTooSmall("cutoff must be at least 1")
    amp = coherent_amplitudes(a, n)
    norm_sq = float(np.sum(np.abs(amp) ** 2))
    if norm_sq < 1.0 - TRUNCATION_TOL:
        raise CutoffTooSmall(
            f"cutoff {n} keeps only {norm_sq!r} of |alpha| = {abs(a)}; "
            f"need at least {default_cutoff(a)}"
        )
    return FockVector(amp / math.sqrt(norm_sq))


def cat_state(alpha0, cutoff: int | None = None) -> FockVector:
    """Two-branch superposition (e^{-i pi/4}|a0> - e^{i pi/4}|-a0>) / sqrt(2).

    The combination has unit norm for every alpha0 because the branch cross
    terms cancel; after truncation the vector is renormalized exactly.
    """
    a0 = _as_complex(alpha0)
    n = default_cutoff(a0) if cutoff is None else int(cutoff)
    if n < 1:
        raise CutoffTooSmall("cutoff must be at least 1")
    plus = coherent_amplitudes(a0, n)
    minus = mirror_amplitudes(plus)
    # branch truncation check, same criterion as coherent_state
    kept = float(np.sum(np.abs(plus) ** 2))
    if kept < 1.0 - TRUNCATION_TOL:
        raise CutoffTooSmall(
            f"cutoff {n} keeps only {kept!r} of the |alpha0| = {abs(a0)} branch; "
            f"need at least {default_cutoff(a0)}"
        )
    phase = np.exp(-0.25j * np.pi)
    amp = (phase * plus - np.conj(phase) * minus) / math.sqrt(2.0)
    amp /= math.sqrt(float(np.sum(np.abs(amp) ** 2)))
    return FockVector(amp)


def basis_state(n: int, cutoff: int) -> FockVector:
    """Number state |n> in a space of ``cutoff`` levels."""
    if not 0 <= n < cutoff:
        raise ValueError(f"level {n} outside cutoff {cutoff}")
    amp = np.zeros(cutoff, dtype=complex)
    amp[n] = 1.0
    return FockVector(amp)


def density_from_pure(psi: FockVector) -> DensityOperator:
    """Rank-one projector |psi><psi|."""
    return DensityOperator(np.outer(psi.amplitudes, psi.amplitudes.conj()))


def husimi_q(rho: DensityOperator, alpha) -> float:
    """Q(alpha) = <alpha| rho |alpha>, exact for the truncated operator held.

    One point of coherent_form, so a |alpha| beyond check_probe_range raises
    SeriesNotConverged as on every Q surface. The probe amplitudes <n|alpha>
    are exact (never renormalized), so the value is correct wherever rho
    itself represents the physical state.
    """
    return float(coherent_form(rho.elements, np.array([_as_complex(alpha)])).real[0])


def check_probe_range(max_abs_sq: float) -> None:
    """SeriesNotConverged unless e^{-|alpha|^2/2} is a normal double for max |alpha|^2."""
    if not 0.5 * max_abs_sq <= PROBE_EXPONENT_MAX:
        limit = math.sqrt(2.0 * PROBE_EXPONENT_MAX)
        raise SeriesNotConverged(
            f"|alpha| = {math.sqrt(max_abs_sq)!r} underflows e^(-|alpha|^2/2) (limit {limit:.4g})"
        )


def _probes(points: np.ndarray, n: int) -> np.ndarray:
    """<k|alpha_g> for k < n as an (n, points) array, by the amplitude recurrence."""
    out = np.empty((n, points.size), dtype=complex)
    out[0] = np.exp(-0.5 * (points.real**2 + points.imag**2))
    for k in range(n - 1):
        np.multiply(out[k], points, out=out[k + 1])
        out[k + 1] /= math.sqrt(k + 1)
    return out


def coherent_form(mat: np.ndarray, ket: np.ndarray, bra: np.ndarray | None = None) -> np.ndarray:
    """<bra_g| mat |ket_g> for every index g of two flat point arrays, PROBE_CHUNK at a time.

    ``bra`` defaults to ``ket``, which gives Q(alpha_g) = <alpha_g| rho |alpha_g>.
    Any point beyond check_probe_range raises SeriesNotConverged.
    """
    ket = np.asarray(ket, dtype=complex).ravel()
    bra = ket if bra is None else np.asarray(bra, dtype=complex).ravel()
    if bra.shape != ket.shape:
        raise DimensionMismatch(f"{bra.size} bra points for {ket.size} ket points")
    if ket.size:
        sides = (ket,) if bra is ket else (ket, bra)
        check_probe_range(max(float(np.max(np.abs(p))) for p in sides) ** 2)
    out = np.empty(ket.size, dtype=complex)
    for start in range(0, ket.size, PROBE_CHUNK):
        block = slice(start, start + PROBE_CHUNK)
        kets = _probes(ket[block], mat.shape[0])
        bras = kets if bra is ket else _probes(bra[block], mat.shape[0])
        out[block] = np.einsum("mg,mg->g", bras.conj(), mat @ kets)
    return out


@functools.lru_cache(maxsize=8)
def _displacement_layout(n: int):
    """Alpha-free, read-only parts of displacement_matrix at cutoff n.

    Per entry, with lo = min(m, n') and k = |m - n'|: k, the log prefactor
    0.5 log((lo+k)!/lo!) - log k!, the flat index lo n + k into the Laguerre
    table, the phase index (k on or below the diagonal, n + k above); then the
    recurrence weights j / (j+k+1) and 1 / (j+k+1) at row j, column k.
    """
    mm, nn = np.indices((n, n))
    lo, k = np.minimum(mm, nn), np.abs(mm - nn)
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(n)])
    log_prefactor = 0.5 * (log_fact[lo + k] - log_fact[lo]) - log_fact[k]
    phase_index = np.where(mm >= nn, k, n + k)
    parts = (k, log_prefactor, (lo * n + k).ravel(), phase_index,
             mm / (mm + nn + 1.0), 1.0 / (mm + nn + 1.0))
    for arr in parts:
        arr.flags.writeable = False
    return parts


def _laguerre_table(n: int, x: float) -> np.ndarray:
    """p_j = L_j^(k)(x) / C(j+k, j) at row j, column k, for every order k at once.

    The degree recurrence in difference form, accurate as x -> 0:
    d_{j+1} = (j d_j - x p_j) / (j+k+1), p_{j+1} = p_j + d_{j+1}, p_0 = 1.
    """
    *_, weight, inverse = _displacement_layout(n)
    x_inverse = x * inverse
    out = np.ones((n, n))
    d = np.zeros(n)
    for j in range(n - 1):
        d = weight[j] * d - x_inverse[j] * out[j]
        np.add(out[j], d, out=out[j + 1])
    return out


def displacement_matrix(alpha, cutoff: int) -> np.ndarray:
    """Matrix elements <m| D(alpha) |n> via associated Laguerre polynomials.

    sqrt(lo!/(lo+k)!) |alpha|^k e^{-|alpha|^2/2} L_lo^(k)(|alpha|^2) with
    lo = min(m, n), k = |m - n|, times (alpha/|alpha|)^k on and below the
    diagonal and (-alpha*/|alpha|)^k above it. L comes from _laguerre_table's
    recurrence; the prefactor, times its binomial, is assembled in log space
    so the entries stay finite well beyond n = 80.
    """
    a = _as_complex(alpha)
    n = int(cutoff)
    if a == 0:
        return np.eye(n, dtype=complex)
    k, log_prefactor, gather, phase_index, _, _ = _displacement_layout(n)
    x = abs(a) ** 2
    magnitude = np.exp(log_prefactor + k * math.log(abs(a)) - 0.5 * x)
    ks = np.arange(n)
    phase = np.concatenate(((a / abs(a)) ** ks, (-np.conj(a) / abs(a)) ** ks))[phase_index]
    return magnitude * phase * _laguerre_table(n, x).ravel()[gather].reshape(n, n)


def wigner(rho: DensityOperator, alpha) -> float:
    """Displaced-parity Wigner value W(alpha); |W| <= 2/pi.

    Uses D(alpha) Pi D(alpha)^dag = D(2 alpha) Pi, so the trace against rho
    needs only the N x N corner of the analytic displacement matrix and is
    exact for states supported inside the cutoff. Summing the parity over
    the truncated basis instead would drop the population D pushes past N.
    """
    a = _as_complex(alpha)
    n = rho.cutoff
    d2 = displacement_matrix(2.0 * a, n)
    parity = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    val = np.einsum("mn,nm,m->", rho.elements, d2, parity)
    return float((2.0 / np.pi) * val.real)


def fidelity(rho: DensityOperator, psi: FockVector) -> float:
    """<psi| rho |psi>, in [0, 1] up to numerical slack."""
    if rho.cutoff != psi.cutoff:
        raise DimensionMismatch(
            f"density operator cutoff {rho.cutoff} != state cutoff {psi.cutoff}"
        )
    val = np.vdot(psi.amplitudes, rho.elements @ psi.amplitudes)
    return float(val.real)


def expectation_n(rho: DensityOperator) -> float:
    """Mean occupation sum_n n rho_nn."""
    return float(np.dot(np.arange(rho.cutoff), np.diag(rho.elements).real))


def purity(rho: DensityOperator) -> float:
    """Tr rho^2."""
    return float(np.sum(np.abs(rho.elements) ** 2))
