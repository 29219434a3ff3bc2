"""CSV text whose every number is ``repr(float(x))``, made for whole arrays at once.

Python's repr prints the shortest decimal that reads back as the same double,
and of those the nearest (dtoa mode 0). ``cells`` finds those digits with
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020; the
algorithm of Java's Double.toString) in uint64 arithmetic with 32-bit limbs,
and lays them out as repr does: fixed notation for a decimal point position
-4 < p <= 16 ('0.0001', '123.0'), otherwise d.ddde±XX ('1e-05', '1e+16'), and
'inf', '-inf', 'nan', '-0.0'. Unlike Java it keeps no two-digit minimum, so
5e-324 prints as Python prints it. A cell is a row of bytes in which NUL
marks an unused slot; ``lines`` joins cells into CSV lines and drops the NULs.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_M32 = _U(2**32 - 1)
_M63 = _U(2**63 - 1)
_INF = _U(0x7FF << 52)
_K_MIN = -324

#: bytes per cell: sign, "0.000", 17 digit slots each followed by a point slot, "e-308"
WIDTH = 45


def _g(k: int) -> int:
    """floor(10^-k / 2^r) + 1, r = floor(-k log2 10) - 125: 10^-k to 126 bits."""
    r = ((-k * 913124641741) >> 38) - 125
    return ((10 ** max(-k, 0) << max(-r, 0)) >> max(r, 0)) // 10 ** max(k, 0) + 1


_G = [_g(k) for k in range(_K_MIN, 293)]
_G1 = np.array([g >> 63 for g in _G], dtype=_U)
_G0 = np.array([g & (2**63 - 1) for g in _G], dtype=_U)
_P10 = 10 ** np.arange(18, dtype=_U)


def _mul(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products a * b."""
    a0, a1, b0, b1 = a & _M32, a >> _U(32), b & _M32, b >> _U(32)
    lo, mid1, mid2 = a0 * b0, a1 * b0, a0 * b1
    mid = (lo >> _U(32)) + (mid1 & _M32) + (mid2 & _M32)
    hi = a1 * b1 + (mid1 >> _U(32)) + (mid2 >> _U(32)) + (mid >> _U(32))
    return hi, (mid << _U(32)) | (lo & _M32)


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """floor(g cp / 2^127), g = g1 2^63 + g0, with its lowest bit set when inexact."""
    x1 = _mul(g0, cp)[0]
    y1, y0 = _mul(g1, cp)
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits d and exponent k, x = d 10^k, of the finite non-zero doubles with these bits."""
    t = bits & _U(2**52 - 1)
    bq = (bits >> _U(52)) & _U(0x7FF)
    c = t | (bq != 0).astype(_U) << _U(52)
    q = np.maximum(bq.astype(np.int64), 1) - 1075
    # at a power of two the gap below is half the gap above
    irregular = (t == 0) & (bq > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(_U)
    g1, g0 = _G1[k - _K_MIN], _G0[k - _K_MIN]
    cb = c << _U(2)
    vb = _rop(g1, g0, cb << h)
    vbl = _rop(g1, g0, (cb - _U(2) + irregular) << h)
    vbr = _rop(g1, g0, (cb + _U(2)) << h)
    # the rounding interval [lo, hi] keeps its ends only when c is even
    odd = c & _U(1)
    lo, hi = vbl + odd, vbr - odd
    s = vb >> _U(2)
    # a multiple of 10, one digit fewer, when the interval holds exactly one
    sp10 = s // _U(10) * _U(10)
    up, wp = lo <= sp10 << _U(2), (sp10 + _U(10)) << _U(2) <= hi
    # else s or s + 1: the one inside, or the nearer, s on a tie when even
    u, w = lo <= s << _U(2), (s + _U(1)) << _U(2) <= hi
    rem = vb & _U(3)
    nearer = (rem < 2) | ((rem == 2) & ((s & _U(1)) == 0))
    d = s + ~np.where(u != w, u, nearer)
    return np.where((s >= 10) & (up != wp), sp10 + _U(10) * ~up, d), k


def cells(x) -> np.ndarray:
    """``repr(float(v))`` of every element as a cell, shape x.shape + (WIDTH,), uint8."""
    x = np.asarray(x, dtype=float)
    bits = x.reshape(-1).view(_U)
    n = bits.size
    d, k = _shortest(bits)
    nd = np.searchsorted(_P10, d, side="right")
    d17 = d * _P10[17 - nd]
    p = k + nd  # decimal point position: x = 0.d1d2... 10^p
    expo = (p <= -4) | (p > 16)
    below1 = ~expo & (p < 1)
    out = np.zeros((n, WIDTH), dtype=np.uint8)
    out[:, 0] = (bits >> _U(63)).astype(np.uint8) * ord("-")
    for col, char in enumerate(b"0.000", 1):
        out[:, col] = (below1 & (p <= 2 - col)) * char
    # the digits, last first, from two halves below 2^32; the trailing zeros
    # are dropped, but a fixed value of 1 or more shows every integer digit
    # and at least one decimal
    shown = np.where(expo | below1, 1, p + 1)
    zeros = np.ones(n, dtype=bool)
    hi = d17 // _U(10**9)
    for v, places in ((d17 - hi * _U(10**9), range(16, 7, -1)), (hi, range(7, -1, -1))):
        v = v.astype(np.uint32)
        for i in places:
            v10 = v // np.uint32(10)
            digit = v - v10 * np.uint32(10)
            zeros &= digit == 0
            out[:, 6 + 2 * i] = (digit + ord("0")) * (~zeros | (i < shown))
            v = v10
    # the point follows digit p (fixed) or the first digit, when a second is shown (exponent)
    point = ~below1 & ~(expo & (out[:, 8] == 0))
    out[np.arange(n), 5 + 2 * np.where(expo, 1, np.maximum(p, 1))] = point * ord(".")
    e = np.abs(p - 1)
    suffix = (ord("e"), np.where(p < 1, ord("-"), ord("+")), (e >= 100) * (ord("0") + e // 100),
              ord("0") + e // 10 % 10, ord("0") + e % 10)
    for col, char in enumerate(suffix, 40):
        out[:, col] = expo * char
    mag = bits & _M63
    for mask, text in ((mag == 0, b"0.0"), (mag == _INF, b"inf"), (mag > _INF, b"nan")):
        out[mask, 1:] = 0
        out[mask, 6:9] = np.frombuffer(text, np.uint8)
    out[mag > _INF, 0] = 0
    return out.reshape(x.shape + (WIDTH,))


def packed(columns: np.ndarray) -> np.ndarray:
    """A short 2-d stack of cells with the NULs of each moved to its end, cut to the longest."""
    text = np.array([c[c != 0].tobytes() for c in columns], dtype=bytes)
    return text.view(np.uint8).reshape(text.size, text.itemsize)


def lines(*columns: np.ndarray) -> bytes:
    """CSV lines of cells: ``columns`` broadcast over all but their last axis, NULs dropped."""
    shape = np.broadcast_shapes(*(c.shape[:-1] for c in columns))
    row = np.empty(shape + (sum(c.shape[-1] + 1 for c in columns),), dtype=np.uint8)
    at = 0
    for c in columns:
        row[..., at : at + c.shape[-1]] = c
        row[..., at + c.shape[-1]] = ord(",")
        at += c.shape[-1] + 1
    row[..., -1] = ord("\n")
    return row.tobytes().translate(None, b"\0")
