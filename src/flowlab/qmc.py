"""Quasi-Monte Carlo building blocks for the direction samples of
``criteria.direction_sample``: the unscrambled Sobol sequence and the
standard normal quantile, both bit for bit the values scipy 1.17 gives
(``qmc.Sobol(d, scramble=False).random_base2(m)`` and ``special.ndtri``).

Sobol points follow Bratley & Fox, "Algorithm 659: Implementing Sobol's
quasirandom sequence generator" (ACM TOMS 14, 1988), with the direction
numbers of Joe & Kuo, "Constructing Sobol sequences with better
two-dimensional projections" (SIAM J. Sci. Comput. 30, 2008), read from
``data/sobol_joe_kuo.npz`` (21,201 dimensions; see ``data/NOTICE.md``).
The quantile is Cephes' ``ndtri`` (S. L. Moshier): three rational
approximations evaluated in Cephes' Horner order.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

Array = np.ndarray

_TABLE = Path(__file__).with_name("data") / "sobol_joe_kuo.npz"

#: dimensions covered by the Joe-Kuo table
MAX_DIM = 21201

#: bits of every Sobol coordinate; a point is an integer in [0, 2^BITS) times 2^-BITS
BITS = 30


def sobol_points(dim: int, m: int) -> Array:
    """The first 2^m points of the unscrambled Sobol sequence in [0, 1)^dim,
    shape (2^m, dim), in Antonov-Saleev Gray-code order: point k is the XOR of
    the direction columns picked by the bits of k ^ (k >> 1), so point 0 is 0.
    Each call loads the whole table and keeps only the rows of its dimensions."""
    # Reading just the leading rows is faster, but freeing the whole 1.5 MB
    # table also lifts glibc's dynamic mmap threshold above the certificate
    # engine's temporaries; without that, every certify request page-faults
    # its arrays afresh (about 3,000 faults and 15-30 % of its time).
    with np.load(_TABLE) as table:
        poly = table["poly"][1:dim].astype(np.int64)
        vinit = np.ascontiguousarray(table["vinit"][1:dim])
    deg = np.frexp(poly)[1] - 1  # degree s of each primitive polynomial
    # direction numbers m_j (odd, below 2^(j+1)), all 1 in the first dimension;
    # elsewhere the first s from the table, then Bratley-Fox's recurrence
    # m_j = m_{j-s} ^ 2^s m_{j-s} ^ XOR_{k<s-1} 2^(k+1) a_(k+1) m_{j-k-1}
    v = np.ones((dim, m), dtype=np.uint32)
    w, rows = v[1:], np.arange(dim - 1)
    for j in range(m):
        new = w[rows, np.maximum(j - deg, 0)]
        for k in range(min(j, deg.max(initial=0))):
            a = (k < deg) & ((poly >> np.maximum(deg - 1 - k, 0)) & 1 == 1)
            new ^= np.where(a, w[:, j - k - 1] << np.uint32(k + 1), np.uint32(0))
        w[:, j] = np.where(deg <= j, new, vinit[:, j] if j < vinit.shape[1] else np.uint32(0))
    v <<= (BITS - 1 - np.arange(m)).astype(np.uint32)
    gray = np.arange(2 ** m, dtype=np.uint32)
    gray ^= gray >> np.uint32(1)
    pts = np.zeros((2 ** m, dim), dtype=np.uint32)
    for b in range(m):
        pts ^= np.where(((gray >> np.uint32(b)) & 1).astype(bool)[:, None], v[:, b], np.uint32(0))
    return pts * 2.0 ** -BITS


# Cephes ndtri: P0/Q0 for |p - 1/2| <= 1/2 - exp(-2); in the tails x = sqrt(-2 log p),
# P1/Q1 for 2 <= x < 8 and P2/Q2 for x >= 8.  Q* omit their leading 1 (p1evl).
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
_S2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    return _polevl(x, (1.0,) + coef)


def ndtri(p) -> Array:
    """The standard normal quantile, elementwise: -inf at 0, inf at 1 and nan
    outside [0, 1].  The central branch is numpy arithmetic; the tails take
    ``math.log`` per element, libm's log, which numpy's does not always match
    to the last bit."""
    p = np.asarray(p, dtype=float)
    out = np.where(p == 0.0, -np.inf, np.where(p == 1.0, np.inf, np.nan))
    inside = (p > 0.0) & (p < 1.0)
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    central = inside & (y > _EXP_M2)
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    tail = inside & ~central
    yt = y[tail]
    x = np.sqrt(np.fromiter(map(math.log, yt.tolist()), float, yt.size) * -2.0)
    x0 = x - np.fromiter(map(math.log, x.tolist()), float, x.size) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _P1) / _p1evl(z, _Q1), z * _polevl(z, _P2) / _p1evl(z, _Q2))
    out[tail] = np.where(upper[tail], x0 - x1, x1 - x0)
    return out
