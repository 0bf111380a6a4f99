"""Complex vector spherical wavefunctions and the radial wave expansion.

A field is represented by its mode coefficients a_l^m, b_l^m, 1 <= l <= L_max,
m in {0, +-1, ..., +-l}, and evaluated as

    E(x) = sum_{l,m} a_l^m M_l^m(x) + b_l^m N_l^m(x),

where M_l^m = j_l(kr) X_l^m and

    N_l^m = i (j_l(kr)/(kr) + j_l'(kr)) Z_l^m - sqrt(l(l+1))/(kr) j_l(kr) Y_l^m rhat.

Evaluation goes through the equivalent componentwise expansion in the
spherical frame with the radial factors p_l, q_l, which is finite at r = 0
and theta = 0 (the m/sin(theta) factors are routed through the stable
degree-lowering recursion).

Every field evaluation goes through one pointwise path: the points are
flattened and taken in fixed-size blocks, the factors of the M populated
modes, with e^{i m phi} folded in, form a (points x 2M) mode table per
component, and one matrix product with the (2M x fields) matrix of the
coefficients gives the field.  The ball quadrature alone uses a separated
form of the same components on its tensor grid (_ball_parts),
E_c(r, theta, phi) = sum_k R_k(r) A_{k,c}(theta, phi), k running over
(radial kind p/j/q, populated degree l): the real radial factors R on the
radial nodes, and the angular table A (coefficients x polar factors, summed
over m by one contraction against e^{i m phi}) on the angular nodes.  From
these same parts the quadrature squares |E| in Gram form, the radial
products R_k R_k' against the angular Grams Re sum_c A_{k,c} conj A_{k',c}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import (_columns, _dtheta, _over_sin, _pq, bessel_table,
                      factorial, legendre_table, sph_bessel, sph_bessel_deriv)


@dataclass(frozen=True)
class SphericalPoint:
    r: float
    theta: float
    phi: float

    def to_cartesian(self):
        st, ct = math.sin(self.theta), math.cos(self.theta)
        return np.array([self.r * st * math.cos(self.phi),
                         self.r * st * math.sin(self.phi),
                         self.r * ct])

    @classmethod
    def from_cartesian(cls, x):
        x = np.asarray(x, dtype=float)
        r = float(np.linalg.norm(x))
        if r == 0.0:
            return cls(0.0, 0.0, 0.0)
        theta = math.acos(max(-1.0, min(1.0, x[2] / r)))
        phi = math.atan2(x[1], x[0]) % (2 * math.pi)
        return cls(r, theta, phi)


def unit_frame(theta, phi):
    """Orthonormal spherical frame (rhat, thetahat, phihat), right handed."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                     np.asarray(phi, dtype=float))
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    rhat = np.stack([st * cp, st * sp, ct], axis=-1)
    thetahat = np.stack([ct * cp, ct * sp, -st], axis=-1)
    phihat = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return rhat, thetahat, phihat


def norm_constant(l, m):
    """c_l^m = sqrt((2l+1)/(4 pi) (l-|m|)!/(l+|m|)!); even in m."""
    m = abs(m)
    if m > l:
        raise ValueError("|m| > l")
    return math.sqrt((2 * l + 1) / (4 * math.pi) * factorial(l - m) / factorial(l + m))


def _check_wavenumber(k):
    """k itself, refused unless finite and positive (so NaN is refused)."""
    if not 0 < k < math.inf:
        raise ValueError(f"wavenumber must be finite and positive, got {k!r}")
    return k


MAX_LMAX = 85   # c_l^l needs (2l)!, which overflows a float above l = 85


@lru_cache(maxsize=None)
def _factorials():
    """j! for j = 0..170, every factorial a float holds; read-only."""
    f = np.array([factorial(j) for j in range(171)])
    f.flags.writeable = False
    return f


def _norm_constants(l, m):
    """norm_constant(l, m) for arrays with 0 <= m <= l and l + m <= 170, by
    the same operations, so to the bit."""
    f = _factorials()
    return np.sqrt((2 * l + 1) / (4 * math.pi) * f[l - m] / f[l + m])


@lru_cache(maxsize=None)
def _norm_table(lmax):
    """norm_constant(l, m) indexed [l, m], 0 <= m <= l <= lmax; read-only."""
    l, m = np.ogrid[:lmax + 1, :lmax + 1]
    c = np.where(m <= l, _norm_constants(l, np.minimum(m, l)), 0.0)
    c.flags.writeable = False
    return c


def _polar(P, l, m):
    """(Y_l^m, dY_l^m/dtheta, (m/sin theta) Y_l^m) without e^{i m phi}, from
    a legendre_table P of cos theta of degree > l.  l and m may be arrays of
    modes: each factor is then indexed like them, followed by P's points."""
    l, m = np.asarray(l), np.asarray(m)
    mu = abs(m)
    if np.any(mu > l):
        raise ValueError("|m| > l")
    # P's degree exceeds every l, so the table need not reach it
    c, M = _columns(P, _norm_table(P.shape[0] - 2)[l, mu], m)
    return (c * P[l, mu], c * _dtheta(P, l, mu),
            np.where(M == 0, 0.0, np.copysign(c, M) * _over_sin(P, l, mu)))


def _harmonics(P, l, m, phi):
    """(Y_l^m, dY_l^m/dtheta, (m/sin theta) Y_l^m) from a legendre_table P
    of cos theta of degree > l."""
    e = np.exp(1j * m * np.asarray(phi, dtype=float))
    return tuple(f * e for f in _polar(P, l, m))


def sph_harmonic(l, m, theta, phi):
    """Y_l^m = c_l^m P_l^{|m|}(cos theta) e^{i m phi}."""
    return _harmonics(legendre_table(l + 1, np.cos(theta)), l, m, phi)[0]


def sph_harmonic_dtheta(l, m, theta, phi):
    """d Y_l^m / d theta."""
    return _harmonics(legendre_table(l + 1, np.cos(theta)), l, m, phi)[1]


def sph_harmonic_over_sin(l, m, theta, phi):
    """(m / sin theta) Y_l^m, finite at theta -> 0."""
    return _harmonics(legendre_table(l + 1, np.cos(theta)), l, m, phi)[2]


def vector_modes(l, m, point, k):
    """The mode pair (M_l^m, N_l^m) at one interior point, Cartesian frame."""
    if l < 1 or abs(m) > l:
        raise ValueError("need l >= 1 and |m| <= l")
    if point.r <= 0:
        raise ValueError("vector modes are singular at r = 0; use eval_field")
    rhat, thetahat, phihat = unit_frame(point.theta, point.phi)
    L = math.sqrt(l * (l + 1))
    kr = k * point.r
    y, yt, ys = _harmonics(legendre_table(l + 1, math.cos(point.theta)), l, m,
                           point.phi)
    x_lm = (1j / L) * (1j * ys * thetahat - yt * phihat)
    z_lm = (1j / L) * (yt * thetahat + 1j * ys * phihat)
    j = sph_bessel(l, kr)
    jp = sph_bessel_deriv(l, kr)
    mode_m = j * x_lm
    mode_n = 1j * (j / kr + jp) * z_lm - (L / kr) * j * y * rhat
    return mode_m, mode_n


class ModeCoefficients:
    """Dense coefficient table a_l^m, b_l^m for 1 <= l <= L_max, m in [l]_0.

    Instances are immutable after construction; build from a dict mapping
    (l, m) -> complex for each family.  Array values give the table a
    trailing axis of fields: field f has the coefficients value[f], and
    evaluation returns that axis as one more trailing axis of the points.
    """

    def __init__(self, lmax, k, a=None, b=None):
        if not 1 <= lmax <= MAX_LMAX:
            raise ValueError(f"L_max must be in 1..{MAX_LMAX}, got {lmax}")
        self.lmax = int(lmax)
        self.k = float(_check_wavenumber(k))
        fields = next((np.shape(v) for src in (a, b) if src for v in src.values()),
                      ())
        shape = (self.lmax + 1, 2 * self.lmax + 1) + fields
        self._a = np.zeros(shape, dtype=complex)
        self._b = np.zeros(shape, dtype=complex)
        for table, src in ((self._a, a), (self._b, b)):
            if src:
                for (l, m), val in src.items():
                    if not (1 <= l <= self.lmax and abs(m) <= l):
                        raise ValueError(f"mode (l={l}, m={m}) out of range")
                    table[l, m] = val
        self._a.flags.writeable = False
        self._b.flags.writeable = False

    def _with_tables(self, a, b):
        new = ModeCoefficients.__new__(ModeCoefficients)
        new.lmax, new.k = self.lmax, self.k
        new._a, new._b = a, b
        new._a.flags.writeable = False
        new._b.flags.writeable = False
        return new

    def a(self, l, m):
        return self._a[l, m]

    def b(self, l, m):
        return self._b[l, m]

    def _populated(self):
        """Arrays (l, m) of the entries nonzero in some field, by l, then m."""
        fields = tuple(range(2, self._a.ndim))
        nonzero = np.any(self._a, axis=fields) | np.any(self._b, axis=fields)
        l, m = np.nonzero(np.roll(nonzero, self.lmax, axis=1))
        return l, m - self.lmax

    def modes(self):
        """Iterate (l, m, a_lm, b_lm) over entries nonzero in some field."""
        for l, m in zip(*(v.tolist() for v in self._populated())):
            yield l, m, self._a[l, m], self._b[l, m]

    def curl(self):
        """Coefficients of curl E = ik sum (b M - a N): (a, b) -> (ik b, -ik a)."""
        ik = 1j * self.k
        return self._with_tables(ik * self._b, -ik * self._a)

    def with_curl(self):
        """This table and its curl side by side on one more trailing field
        axis: field [..., 0] is E and [..., 1] is curl E."""
        curl = self.curl()
        return self._with_tables(np.stack([self._a, curl._a], axis=-1),
                                 np.stack([self._b, curl._b], axis=-1))

    def __add__(self, other):
        if self.lmax != other.lmax or self.k != other.k:
            raise ValueError("mismatched tables")
        return self._with_tables(self._a + other._a, self._b + other._b)


_BLOCK = 2048   # points per mode table, so its size does not grow with them


def _mode_table(lmax, k, l, m, r, theta, phi):
    """The modes (l, m), l <= lmax, of wavenumber k at the points (r, theta,
    phi), 1-d arrays, as one table of shape (3, points, 2M): for each
    spherical component, a column per M_l^m (coefficient a_l^m) and then one
    per N_l^m (b_l^m), with e^{i m phi} folded in."""
    jt = bessel_table(lmax + 1, k * r)
    (p, q), j = _pq(jt, l), jt[l]
    L = np.sqrt(l * (l + 1.0))[:, None]
    e = np.exp(1j * m[:, None] * phi) / -L
    y, yt, ys = _polar(legendre_table(lmax + 1, np.cos(theta)), l, m)
    table = np.zeros((3, 2) + e.shape, dtype=complex)
    np.multiply(L * L * p * y, e, out=table[0, 1])              # E_r
    np.multiply(j * ys, e, out=table[1, 0])                     # E_theta
    np.multiply(q * yt, e, out=table[1, 1])
    e *= 1j
    np.multiply(j * yt, e, out=table[2, 0])                     # E_phi
    np.multiply(q * ys, e, out=table[2, 1])
    return table.reshape(3, 2 * l.size, r.size).transpose(0, 2, 1)


def _spherical_components(coeffs, r, theta, phi):
    """(E_r, E_theta, E_phi) of the expansion at broadcastable arrays.

    The points are flattened, and each block of _BLOCK of them is one mode
    table (_mode_table) times the (2M x fields) matrix of the coefficients
    a_l^m, then b_l^m, of the M populated modes, so memory stays bounded
    however many points there are.  The points may not vary along the field
    axes.
    """
    r, theta, phi = (np.asarray(v, dtype=float) for v in (r, theta, phi))
    if not np.isfinite(phi).all():   # the tables refuse a non-finite r, theta
        raise ValueError("argument must be finite")
    fields = coeffs._a.shape[2:]
    points = np.broadcast_shapes(r.shape, theta.shape, phi.shape)
    shape = np.broadcast_shapes(points, fields)
    if math.prod(shape) != math.prod(points) * math.prod(fields):
        raise ValueError("the points cannot vary along the field axes")
    flat = [np.broadcast_to(v, points).ravel() for v in (r, theta, phi)]
    l, m = coeffs._populated()
    coef = np.concatenate([coeffs._a[l, m], coeffs._b[l, m]]).reshape(
        2 * l.size, math.prod(fields))
    out = np.empty((3, flat[0].size, coef.shape[1]), dtype=complex)
    for s in range(0, flat[0].size, _BLOCK):
        out[:, s:s + _BLOCK] = _mode_table(coeffs.lmax, coeffs.k, l, m, *(
            v[s:s + _BLOCK] for v in flat)) @ coef
    return tuple(out.reshape((3,) + shape))


def _ball_parts(coeffs, r, theta, phi):
    """A single-field table on the tensor grid (r, theta, phi), theta and phi
    1-d, separated as E_c = sum_k R_k(r) A_{k,c}(theta, phi) for the ball
    quadrature: two pairs (R, A), R of shape (K,) + r.shape and A of shape
    (K, components, theta, phi).  The first pairs the p_l of the populated
    degrees with E_r; the second pairs j_l, then q_l, of each degree with
    (E_theta, E_phi).  Each part of A is coefficient x polar factors, summed
    over the orders m by one contraction against e^{i m phi}.  The quadrature
    squares |E| from these parts in Gram form (oracle._ball_magnitudes), so
    no component is summed on the grid."""
    l, m = coeffs._populated()
    degrees, orders = np.unique(l), np.unique(m)
    jt = bessel_table(coeffs.lmax + 1, coeffs.k * r)
    p, q = _pq(jt, degrees)
    y, yt, ys = _polar(legendre_table(coeffs.lmax + 1, np.cos(theta)), l, m)
    L = np.sqrt(l * (l + 1.0))[:, None]
    a, b = (t[l, m][:, None] / -L for t in (coeffs._a, coeffs._b))
    parts = np.zeros((orders.size, degrees.size, 5, theta.size), dtype=complex)
    parts[np.searchsorted(orders, m), np.searchsorted(degrees, l)] = np.stack(
        [L * L * b * y,                                     # E_r: p
         a * ys, 1j * a * yt,                               # E_theta, E_phi: j
         b * yt, 1j * b * ys], axis=1)                      # E_theta, E_phi: q
    A = np.tensordot(parts, np.exp(1j * orders[:, None] * phi), axes=(0, 0))
    return ((p, A[:, :1]),
            (np.stack([jt[degrees], q], axis=1).reshape((-1,) + r.shape),
             A[:, 1:].reshape(-1, 2, theta.size, phi.size)))


def eval_field(coeffs, point):
    """Field vector E at a point (SphericalPoint or Cartesian array-like).

    Works for arrays too: pass a tuple (r, theta, phi) of broadcastable
    arrays and get an (..., 3) complex array back, or (..., fields, 3) for a
    table with a field axis.  r = 0 is handled by the exact series limits
    (only l = 1 contributes there).
    """
    if isinstance(point, SphericalPoint):
        r, theta, phi = point.r, point.theta, point.phi
    elif isinstance(point, tuple) and len(point) == 3:
        r, theta, phi = point
    else:
        sp = SphericalPoint.from_cartesian(point)
        r, theta, phi = sp.r, sp.theta, sp.phi
    return _cartesian(_spherical_components(coeffs, r, theta, phi),
                      unit_frame(theta, phi))


def _cartesian(comps, frame):
    """The vector with spherical components comps in frame (rhat, thetahat,
    phihat), as an (..., 3) array."""
    (er, et, ep), (rhat, thetahat, phihat) = comps, frame
    return er[..., None] * rhat + et[..., None] * thetahat + ep[..., None] * phihat
