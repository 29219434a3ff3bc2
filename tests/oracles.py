"""Independent brute-force implementations used as test oracles.

Everything here deliberately avoids the package's own evaluation paths:
factorials instead of recurrences, a matrix exponential and SciPy's Laguerre
polynomials instead of the Laguerre recurrence, closed-form damping solutions
instead of integrators, a dense generator and a fixed-step Runge-Kutta
integrator instead of the exact propagator, the closed-form Q as a log-space
double series instead of the Fock-matrix quadratic form, and <n> from the
second moment of Q instead of the number-basis diagonal. coherent_vector and
cat_vector are not oracles: they repeat fock.coherent_state's and
fock.cat_state's arithmetic at a level count the test chooses, and
grid_points lays a grid's axes out as the complex points of its Q array.
q_grid_gemm shares fock.q_grid's probes and differs only in the product: the
full N x N matrix on every probe instead of an eigen-factor of the matrix.
"""

import cmath
import math

import numpy as np
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln, xlogy

from kerrcat import fock
from kerrcat.trap_params import ELECTRON_MASS, ELEMENTARY_CHARGE


def b_field_for_cyclotron(frequency_hz):
    """Magnetic field giving cyclotron frequency omega_c/2pi = frequency_hz (pinned constants)."""
    return 2.0 * math.pi * frequency_hz * ELECTRON_MASS / ELEMENTARY_CHARGE


def coherent_amplitudes_factorial(alpha, cutoff):
    """<n|alpha> from the direct formula with exact integer factorials."""
    alpha = complex(alpha)
    out = np.empty(cutoff, dtype=complex)
    for n in range(cutoff):
        out[n] = (
            math.exp(-0.5 * abs(alpha) ** 2)
            * alpha**n
            / math.sqrt(math.factorial(n))
        )
    return out


def coherent_vector(alpha, n):
    """|alpha> on exactly n levels, renormalized, as fock.coherent_state builds it at its own N."""
    amp = fock.coherent_amplitudes(alpha, n)
    return fock.FockVector(amp / math.sqrt(float(np.sum(np.abs(amp) ** 2))))


def cat_vector(alpha0, n):
    """The cat on exactly n levels, renormalized, as fock.cat_state builds it at its own N."""
    plus = fock.coherent_amplitudes(alpha0, n)
    phase = np.exp(-0.25j * np.pi)
    amp = (phase * plus - np.conj(phase) * fock.mirror_amplitudes(plus)) / math.sqrt(2.0)
    amp /= math.sqrt(float(np.sum(np.abs(amp) ** 2)))
    return fock.FockVector(amp)


def displacement_expm(alpha, cutoff, pad=40):
    """Top-left cutoff x cutoff block of expm(alpha a^dag - alpha* a)."""
    m = cutoff + pad
    a_op = np.diag(np.sqrt(np.arange(1, m)), 1)
    d = expm(alpha * a_op.conj().T - np.conj(alpha) * a_op)
    return d[:cutoff, :cutoff]


def displacement_laguerre(alpha, cutoff):
    """<m| D(alpha) |n> from SciPy's associated Laguerre polynomials and log-gamma.

    sqrt(lo!/(lo+k)!) |alpha|^k e^{-|alpha|^2/2} L_lo^(k)(|alpha|^2) times
    (alpha/|alpha|)^k below the diagonal and (-alpha*/|alpha|)^k above it,
    with lo = min(m, n) and k = |m - n|, every entry evaluated directly.
    """
    a = complex(alpha)
    if a == 0:
        return np.eye(cutoff, dtype=complex)
    mm, nn = np.indices((cutoff, cutoff))
    lo = np.minimum(mm, nn)
    k = np.abs(mm - nn)
    x = abs(a) ** 2
    log_mag = 0.5 * (gammaln(lo + 1) - gammaln(lo + k + 1)) + k * math.log(abs(a)) - 0.5 * x
    base = np.where(mm >= nn, a / abs(a), -np.conj(a) / abs(a))
    return np.exp(log_mag) * base**k * eval_genlaguerre(lo, k, x)


def wigner_dense(rho_matrix, alpha):
    """Displaced-parity Wigner value (2/pi) Tr[rho D(2 alpha) Pi] from displacement_laguerre.

    Only the cutoff x cutoff block of D(2 alpha) meets rho, and every element
    of it is exact, so no padded space is needed. Checked range: the block
    matches a fully padded displacement_expm to 2e-14 up to |2 alpha| = 25
    at 190 levels, and W to 4e-16 on random states (up to 40 levels) and cat
    slices.
    """
    n = rho_matrix.shape[0]
    parity = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    d = displacement_laguerre(2.0 * complex(alpha), n)
    return float(2.0 / np.pi * np.trace(rho_matrix @ d * parity).real)


def poisson_pmf(k, mean):
    """Poisson probabilities e^{-mean} mean^k / k!, in log space (scipy.stats' own formula)."""
    return np.exp(xlogy(k, mean) - gammaln(k + 1) - mean)


def husimi_brute(rho_matrix, alpha):
    """<alpha| rho |alpha> with factorial-formula probe amplitudes."""
    probe = coherent_amplitudes_factorial(alpha, rho_matrix.shape[0])
    return float(np.vdot(probe, rho_matrix @ probe).real)


def grid_points(grid):
    """Complex points of ``grid``, shape (resolution, resolution), [im, re] as Q's values."""
    re, im = grid.axes()
    return re[np.newaxis, :] + 1j * im[:, np.newaxis]


def q_grid_gemm(mat, re, im):
    """Re <alpha|mat|alpha> over the grid of fock.q_grid, one N x N GEMM and einsum per chunk."""
    out = np.empty((im.size, re.size))
    flat, n = out.reshape(-1), mat.shape[0]
    for start in range(0, flat.size, fock.PROBE_CHUNK):
        stop = min(start + fock.PROBE_CHUNK, flat.size)
        rows, cols = np.divmod(np.arange(start, stop), re.size)
        kets = fock._probes(re[cols] + 1j * im[rows], np.empty((n, stop - start), dtype=complex))
        flat[start:stop] = np.einsum("mg,mg->g", kets.conj(), mat @ kets).real
    return out


def q_moment_mean_n(points, values, spacing):
    """Mean occupation from the antinormally ordered moment of a Q surface.

    (1/pi) int |alpha|^2 Q d^2alpha = <a a^dag> = <n> + 1, as a Riemann sum
    over grid ``points`` with the given ``spacing``; exact only when the grid
    holds the whole distribution.
    """
    moment = float(np.sum(np.abs(points) ** 2 * values)) * spacing**2 / math.pi
    return moment - 1.0


def kerr_amplitudes(alpha0, mu, t, cutoff):
    """Undamped Kerr phase evolution e^{i mu t n^2} applied to |alpha0>."""
    base = coherent_amplitudes_factorial(alpha0, cutoff)
    n = np.arange(cutoff)
    return base * np.exp(1j * mu * t * n**2)


def paper_cat_amplitudes(alpha0, cutoff):
    """Direct expansion of (e^{-i pi/4}|a0> - e^{i pi/4}|-a0>)/sqrt(2)."""
    plus = coherent_amplitudes_factorial(alpha0, cutoff)
    minus = coherent_amplitudes_factorial(-alpha0, cutoff)
    amp = (np.exp(-0.25j * np.pi) * plus - np.exp(0.25j * np.pi) * minus) / math.sqrt(2)
    return amp / np.linalg.norm(amp)


def damped_cat_density(alpha0, gamma, t, cutoff):
    """Exact amplitude-damping evolution of the balanced two-branch cat.

    Each dyad |a><b| flows to <b|a>^{1-e^{-gamma t}} |a_t><b_t| with
    a_t = a e^{-gamma t/2}; for the +/- branches the cross weight is
    exp[-2 |alpha0|^2 (1 - e^{-gamma t})].
    """
    alpha0 = complex(alpha0)
    a_t = alpha0 * math.exp(-0.5 * gamma * t)
    plus = coherent_amplitudes_factorial(a_t, cutoff)
    minus = coherent_amplitudes_factorial(-a_t, cutoff)
    kappa = math.exp(-2.0 * abs(alpha0) ** 2 * (-math.expm1(-gamma * t)))
    ab = 1j  # a b-bar for branch phases e^{-i pi/4}, -e^{+i pi/4}
    rho = 0.5 * (
        np.outer(plus, plus.conj())
        + np.outer(minus, minus.conj())
        + kappa * (ab * np.outer(plus, minus.conj()) + np.conj(ab) * np.outer(minus, plus.conj()))
    )
    return rho


def damped_cat_coherence(alpha0, gamma, t):
    """Closed-form branch coherence of the damped cat at moving probes."""
    a2 = abs(complex(alpha0)) ** 2
    x = math.exp(-gamma * t)
    g = math.exp(-2.0 * a2 * x)
    kappa = math.exp(-2.0 * a2 * (1.0 - x))
    num = math.sqrt(g * g + kappa * kappa * (1.0 - g * g) ** 2 / 4.0)
    return num / ((1.0 + g * g) / 2.0)


def random_density(rng, cutoff):
    """Random full-rank mixed state, Hermitian to the bit."""
    m = rng.normal(size=(cutoff, cutoff)) + 1j * rng.normal(size=(cutoff, cutoff))
    rho = m @ m.conj().T
    rho = 0.5 * (rho + rho.conj().T)  # BLAS products are not exactly symmetric
    return rho / np.trace(rho).real


def eigvalsh_accepts(mat):
    """The positivity gate as a full eigendecomposition: smallest eigenvalue >= -1e-9."""
    return float(np.linalg.eigvalsh(mat).min()) >= -1e-9


def master_generator(sys, n, detuning):
    """Dense generator of the detuned damped Kerr master equation on flattened n x n matrices.

    Built entry by entry from the elementwise equation

        d rho_mn / dt = [i mu (m^2 - n^2) - i delta (m - n) - (gamma/2)(m + n)] rho_mn
                        + gamma sqrt((m+1)(n+1)) rho_{m+1,n+1},

    so ``(gen @ rho.ravel()).reshape(n, n)`` is the time derivative of rho.
    """
    size = n * n
    gen = np.zeros((size, size), dtype=complex)
    for m in range(n):
        for k in range(n):
            row = m * n + k
            gen[row, row] = (
                1j * sys.mu * (m * m - k * k)
                - 1j * detuning * (m - k)
                - 0.5 * sys.gamma * (m + k)
            )
            if m + 1 < n and k + 1 < n:
                gen[row, (m + 1) * n + k + 1] = sys.gamma * math.sqrt((m + 1) * (k + 1))
    return gen


def rk4_integrate(mat, sys, t, dt, detuning):
    """Classical fourth-order Runge-Kutta for the detuned damped Kerr master equation.

    The four RK4 stages of master_generator are applied to the identity,
    which gives the one-step map; steps of ``dt`` are composed by matrix
    powers, and a last shorter step lands on ``t``.
    """
    n = mat.shape[0]
    size = n * n
    gen = master_generator(sys, n, detuning)
    eye = np.eye(size, dtype=complex)

    def step(h):
        k1 = gen
        k2 = gen @ (eye + 0.5 * h * k1)
        k3 = gen @ (eye + 0.5 * h * k2)
        k4 = gen @ (eye + h * k3)
        return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    steps = int(t // dt)
    prop = np.linalg.matrix_power(step(dt), steps)
    rest = t - steps * dt
    if rest > 1e-15 * max(1.0, t):
        prop = step(rest) @ prop
    return (prop @ np.asarray(mat, dtype=complex).reshape(size)).reshape(n, n)


def detuning_turn(detuning, t, cutoff):
    """e^{-i theta (m - n)}, theta = detuning t reduced mod 2 pi, entry by entry.

    The lab-frame factor of rho_mn at any t, as z_form_density's and q_series'
    unreduced e^{i delta (p-q) t} are at moderate t.
    """
    theta = math.fmod(detuning * t, 2.0 * math.pi)
    return np.array([[cmath.exp(-1j * theta * (m - n)) for n in range(cutoff)]
                     for m in range(cutoff)])


def z_form_density(sys, t, cutoff, detuning):
    """Detuned rho_qp(t) = c_q conj(c_p) Z_pq(t) on ``cutoff`` levels, c = <n|alpha0>.

    The closed form before its damping moved into the amplitudes of
    alpha0 e^{-gamma t/2}: each Z_pq(t) entry by entry as in q_series, finite
    only while |alpha0|^2 (1 - e^{-gamma t}) stays below about 709.
    """
    c = coherent_amplitudes_factorial(sys.alpha0, cutoff)
    g2 = abs(complex(sys.alpha0)) ** 2
    z = np.empty((cutoff, cutoff), dtype=complex)
    for p in range(cutoff):
        for q in range(cutoff):
            lam = sys.gamma + 2j * sys.mu * (p - q)
            integral = t if lam == 0 else (1.0 - cmath.exp(-lam * t)) / lam
            phase = cmath.exp(1j * detuning * (p - q) * t)
            z[p, q] = cmath.exp(-0.5 * (p + q) * lam * t + sys.gamma * g2 * integral) * phase
    return np.outer(c, c.conj()) * z.T


def q_series(alpha, t, sys, order, detuning):
    """Closed-form detuned Q(alpha, t) as the double series over 0 <= p, q <= order.

    Q = sum_{p,q} w_p Z_pq conj(w_q), w_p = e^{-(|alpha|^2+|a0|^2)/2} (alpha a0*)^p / p!,
    with each w_p assembled in log space (log magnitude plus phase, gammaln
    for the factorial) and each Z_pq(t) evaluated entry by entry from

        Z_pq = exp{-(p+q)/2 lam t + gamma |a0|^2 (1 - e^{-lam t}) / lam + i delta (p-q) t},
        lam = gamma + 2 i mu (p-q),   (1 - e^{-lam t}) / lam -> t at lam = 0.
    """
    alpha = complex(alpha)
    a0 = complex(sys.alpha0)
    pref = -0.5 * (abs(alpha) ** 2 + abs(a0) ** 2)
    w = alpha * a0.conjugate()
    p = np.arange(order + 1)
    if w == 0:
        row = np.zeros(order + 1, dtype=complex)
        row[0] = math.exp(pref)
    else:
        row = np.exp(p * cmath.log(w) - gammaln(p + 1) + pref)
    g2 = abs(a0) ** 2
    z = np.empty((order + 1, order + 1), dtype=complex)
    for i in range(order + 1):
        for j in range(order + 1):
            lam = sys.gamma + 2j * sys.mu * (i - j)
            integral = t if lam == 0 else (1.0 - cmath.exp(-lam * t)) / lam
            phase = 1j * detuning * (i - j) * t
            z[i, j] = cmath.exp(-0.5 * (i + j) * lam * t + sys.gamma * g2 * integral + phase)
    return float((row @ z @ row.conj()).real)
