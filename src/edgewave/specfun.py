"""Real special functions used by the spherical wave machinery.

Associated Legendre functions are evaluated in the convention WITHOUT the
Condon-Shortley phase, i.e. P_l^m(x) = (1-x^2)^{m/2} d^m P_l/dx^m for m >= 0,
extended to negative order by

    P_l^{-m}(x) = (-1)^m (l-m)!/(l+m)! P_l^m(x).

This is the convention in which the theta-derivative recursion

    dP_l^m(cos t)/dt = [(l+m)(l-m+1) P_l^{m-1} - P_l^{m+1}] / 2

holds with the stated signs (checked: P_1^1 = sin t gives cos t on both
sides).  All functions accept scalars or numpy arrays in the argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when two quadrature rule sizes disagree beyond the accuracy asked."""


def factorial(n):
    """n! as a float; exact integer arithmetic below 21, log-gamma above."""
    if n < 0:
        raise ValueError(f"factorial of negative {n}")
    if n <= 20:
        return float(math.factorial(n))
    return math.exp(math.lgamma(n + 1.0))


def double_factorial(n):
    """n!! for n >= -1 (with (-1)!! = 1)."""
    if n < -1:
        raise ValueError(f"double factorial of {n}")
    out = 1.0
    while n > 1:
        out *= n
        n -= 2
    return out


def legendre_table(lmax, x):
    """Every P_l^m(x) with 0 <= m <= l <= lmax, from one sweep (DLMF 14.10).

    Returns shape (lmax + 1, lmax + 1) + x.shape, indexed [l, m]; entries
    with m > l are zero.  Each order m starts on the diagonal
    P_m^m = (2m-1)!! (1-x^2)^{m/2} and runs upward in degree; the sweep
    takes one degree at a time, every order at once.
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1 + 1e-14):
        raise ValueError("argument outside [-1, 1]")
    x = np.clip(x, -1.0, 1.0)
    out = np.zeros((lmax + 1, lmax + 1) + x.shape)
    s2 = 1.0 - x * x
    for m in range(lmax + 1):
        # a power per order, as numpy picks sqrt or square for some of them
        out[m, m] = double_factorial(2 * m - 1) * s2 ** (m / 2.0)
        if m < lmax:
            out[m + 1, m] = x * (2 * m + 1) * out[m, m]
    mu = np.arange(lmax - 1.0).reshape((-1,) + (1,) * x.ndim)
    for deg in range(2, lmax + 1):
        m, low = mu[:deg - 1], slice(0, deg - 1)
        out[deg, low] = ((2 * deg - 1) * x * out[deg - 1, low]
                         - (deg - 1 + m) * out[deg - 2, low]) / (deg - m)
    return out


def assoc_legendre(l, m, x):
    """Associated Legendre function P_l^m(x) without Condon-Shortley phase.

    Requires |m| <= l; negative orders are mapped through the
    (-1)^m (l-m)!/(l+m)! relation.
    """
    if abs(m) > l:
        raise ValueError(f"order |m|={abs(m)} exceeds degree l={l}")
    p = legendre_table(l, x)[l, abs(m)]
    if m < 0:
        return (-1.0) ** -m * factorial(l + m) / factorial(l - m) * p
    return p


def _columns(P, *values):
    # values per mode as columns against the points of a legendre_table P
    return (np.reshape(v, np.shape(v) + (1,) * (P.ndim - 2)) for v in values)


def _dtheta(P, l, m):
    # order-shifting recursion on a legendre_table P of degree > l, 0 <= m;
    # at m = 0 the lower term is -P_l^1, so halving the difference is exact
    L, M = _columns(P, l, m)
    lower = np.where(M == 0, -P[l, 1], (L + M) * (L - M + 1) * P[l, m - 1])
    return 0.5 * (lower - P[l, m + 1])


def _over_sin(P, l, m):
    # degree-lowering recursion on a legendre_table P of degree > l
    L, M = _columns(P, l, m)
    return 0.5 * (P[l - 1, m + 1] + (L + M - 1) * (L + M) * P[l - 1, m - 1])


def legendre_dtheta(l, m, theta):
    """d P_l^m(cos theta) / d theta via the order-shifting recursion.

    Valid for 0 <= m <= l; at m = 0 the negative-order relation for P_l^{-1}
    collapses the bracket to -P_l^1.
    """
    if not 0 <= m <= l:
        raise ValueError(f"need 0 <= m <= l, got l={l}, m={m}")
    return _dtheta(legendre_table(l + 1, np.cos(theta)), l, m)


def legendre_over_sin(l, m, theta):
    """(m / sin theta) * P_l^m(cos theta), evaluated stably down to theta = 0.

    Uses the degree-lowering recursion

        (m/sin t) P_l^m(cos t) = [P_{l-1}^{m+1} + (l+m-1)(l+m) P_{l-1}^{m-1}] / 2

    whose right side is polynomial in cos t, hence finite at t = 0.  The sign
    in front of the bracket is fixed so the value equals the direct quotient
    in the phase-free convention (at l=2, m=1 the t->0 limit is +3).
    """
    if m < 1 or m > l:
        raise ValueError(f"need 1 <= m <= l, got l={l}, m={m}")
    return _over_sin(legendre_table(l + 1, np.cos(theta)), l, m)


# below |t| = 1 the power series serves every order; the first term left
# out, k = 9, is below 1e-17 of the sum for every l
_SERIES_CUTOFF = 1.0
_SERIES_TERMS = 9
# the Miller ratios of rows bB..bB+B-1 start from the same order whatever
# lmax is, so a row never depends on how many rows the table holds
_BLOCK = 16


@lru_cache(maxsize=None)
def _series_coefficients(lmax):
    # c[k, l] = (-1/2)^k / (k! (2l+3)(2l+5)...(2l+2k+1)), the coefficient
    # of t^(2k) in j_l(t) (2l+1)!! / t^l; and the odd numbers 2l+1.  Both
    # are cached per lmax, read-only.
    l = np.arange(lmax + 1)
    c = np.ones((_SERIES_TERMS, lmax + 1))
    for k in range(1, _SERIES_TERMS):
        c[k] = c[k - 1] * (-0.5 / (k * (2 * l + 2 * k + 1)))
    odd = 2.0 * l + 1.0
    c.flags.writeable = odd.flags.writeable = False
    return c, odd


def _jl_series(lmax, t):
    # j_l(t) = t^l/(2l+1)!! sum_k c[k, l] t^(2k) for |t| < 1, by Horner in
    # t^2; the odd powers of t carry the parity
    c, odd = _series_coefficients(lmax)
    c = c.reshape(c.shape + (1,) * t.ndim)
    u = t * t
    s = c[-1] * u
    for ck in c[-2:0:-1]:
        s += ck
        s *= u
    s += c[0]
    lead = np.empty_like(s)
    lead[0] = 1.0
    np.cumprod(t / odd.reshape(c.shape[1:])[1:], axis=0, out=lead[1:])
    s *= lead
    return s


def _miller_ratios(lmax, a, top):
    """rho[l] = j_l(a) / j_(l-1)(a) for top < l <= lmax, zero elsewhere.

    The backward recurrence rho_k = a / (2k + 1 - a rho_(k+1)) (DLMF 3.6(iii),
    10.51.1) converges to the ratio of the minimal solution j_l.  Rows
    bB..bB+B-1 start at rho = 0 above order bB + B - 1 + 10 + 8 a^(1/3),
    which gives the converged ratios bit for bit (checked for a in [1, 500]).
    From top = floor(a) up every j_l(a) is positive (the first zero of j_l
    lies above l + 1), so no ratio divides by zero.
    """
    rho = np.zeros((lmax + 1, a.size))
    margin = 10.0 + 8.0 * np.cbrt(a)
    for first in range(0, lmax + 1, _BLOCK):
        last = first + _BLOCK - 1
        if min(last, lmax) <= top.min():
            continue
        start = last + margin
        r = np.zeros_like(a)
        for k in range(int(start.max()), first - 1, -1):
            live = (k <= start) & (k > top)
            r = np.where(live, a / ((2 * k + 1) - a * r), 0.0)
            if k <= lmax:
                rho[k] = r
    return rho


def _jl_recurrence(lmax, a):
    """j_0 .. j_lmax at a flat array a >= 1.

    Rows l <= floor(a) recur upward from sin a / a (DLMF 10.51.1), which is
    stable while l < a; the rows above continue from j_floor(a) with the
    Miller ratios.  j_floor(a)(a) lies before the first zero of its row, so it
    carries the row's own scale and the products keep full relative accuracy.
    """
    j = np.empty((lmax + 1, a.size))
    j[0] = np.sin(a) / a
    if lmax == 0:
        return j
    j[1] = (j[0] - np.cos(a)) / a
    top = np.floor(a)
    rho = _miller_ratios(lmax, a, top)
    for l in range(2, lmax + 1):
        up = (2 * l - 1) * j[l - 1] / a - j[l - 2]
        j[l] = np.where(l <= top, up, j[l - 1] * rho[l])
    return j


def bessel_table(lmax, t):
    """j_0(t) .. j_lmax(t), shape (lmax + 1,) + t.shape, stable near t = 0.

    |t| < 1 takes the power series; larger |t| the upward recurrence below
    l = |t| and Miller's backward recurrence above it.  Row l does not depend
    on lmax: bessel_table(L, t)[l] is the same array for every L >= l.
    j_l(-t) = (-1)^l j_l(t).
    """
    if lmax < 0:
        raise ValueError("degree must be >= 0")
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < _SERIES_CUTOFF
    if small.all():
        return _jl_series(lmax, t)
    flat, small = t.reshape(-1), small.reshape(-1)
    big = ~small
    if not np.all(np.isfinite(flat[big])):
        raise ValueError("argument must be finite")
    out = np.empty((lmax + 1, flat.size))
    out[:, small] = _jl_series(lmax, flat[small])
    j = _jl_recurrence(lmax, np.abs(flat[big]))
    j[1::2] *= np.sign(flat[big])
    out[:, big] = j
    return out.reshape((lmax + 1,) + t.shape)


def sph_bessel(l, t):
    """Spherical Bessel function j_l(t), stable near t = 0."""
    return bessel_table(l, t)[l]


def sph_bessel_deriv(l, t):
    """j_l'(t) via (l j_{l-1} - (l+1) j_{l+1}) / (2l+1); j_0' = -j_1."""
    if l < 0:
        raise ValueError("degree must be >= 0")
    j = bessel_table(l + 1, t)
    if l == 0:
        return -j[1]
    return _jprime(j, l)


@dataclass(frozen=True)
class RadialFunctions:
    """Radial factors of the wave expansion at argument t = k*r."""

    l: int
    t: float
    j: float
    jprime: float
    p: float
    q: float


def _pq(j, l):
    # p_l, q_l from a bessel_table j with lmax >= l + 1; l may be an array
    w = np.reshape(l, np.shape(l) + (1,) * (np.ndim(j) - 1))
    return (j[l - 1] + j[l + 1]) / (2 * w + 1), \
        ((w + 1) * j[l - 1] - w * j[l + 1]) / (2 * w + 1)


def _jprime(j, l):
    # j_l' for l >= 1 from a bessel_table j with lmax >= l + 1
    return (l * j[l - 1] - (l + 1) * j[l + 1]) / (2 * l + 1)


def radial_pq(l, t):
    """p_l(t) = (j_{l-1}+j_{l+1})/(2l+1), q_l(t) = ((l+1) j_{l-1} - l j_{l+1})/(2l+1).

    At t = 0 the limits are exact: p_1 = 1/3, q_1 = 2/3 and zero for l >= 2.
    Array arguments return arrays in the p/q/j fields.
    """
    if l < 1:
        raise ValueError("degree must be >= 1")
    j = bessel_table(l + 1, t)
    p, q = _pq(j, l)
    return RadialFunctions(l=l, t=t, j=j[l], jprime=_jprime(j, l), p=p, q=q)


@lru_cache(maxsize=None)
def gauss_legendre(nodes):
    """Gauss-Legendre nodes and weights on [-1, 1], tabulated once per size;
    the cached arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def orthogonality_closed_form(n, m):
    """Closed form (n+m)!/(m (n-m)!) of the diagonal weighted inner product."""
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    return factorial(n + m) / (m * factorial(n - m))


def orthogonality_integral(n, m, l):
    """Integral of P_n^m(cos t) P_n^l(cos t) / sin t over t in (0, pi).

    Vanishes for l != m and equals (n+m)!/(m (n-m)!) on the diagonal.  The
    integration runs over (0, pi), the range on which that closed form is the
    classical identity.  Two Gauss-Legendre rules in t, which must agree to
    1e-9 relative, integrate the smooth integrand.
    """
    if not (1 <= m <= n and 1 <= l <= n):
        raise ValueError("need 1 <= m, l <= n")
    vals = []
    for nodes in (2 * n + 16, 2 * n + 32):
        u, w = gauss_legendre(nodes)
        t = 0.5 * math.pi * (u + 1.0)
        P = legendre_table(n, np.cos(t))
        vals.append(0.5 * math.pi * float(np.sum(w * P[n, m] * P[n, l] / np.sin(t))))
    scale = max(abs(vals[1]), orthogonality_closed_form(n, max(m, l)))
    if abs(vals[1] - vals[0]) > 1e-9 * scale:
        raise QuadratureError(
            f"orthogonality integral (n={n}, m={m}, l={l}): rules disagree by "
            f"{abs(vals[1] - vals[0]):.2e}")
    return vals[1]
