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

Every mode is a radial x polar factor times e^{i m phi}.  Where phi adds
axes of its own to the (r, theta, fields) shape, the expansion is separated
as E_c(r, theta, phi) = sum_k R_k(r) A_{k,c}(theta, phi), k running over
(radial kind p/j/q, populated degree l): the real radial factors R are
tabulated on the shape of r alone, and the angular table A (coefficients x
polar factors, summed over m by one matrix product against the (m, phi)
table of e^{i m phi}) on theta, phi and the fields alone.  Elsewhere (a
scalar phi on a corner face, or one phi per sample) the points go in
fixed-size blocks: the factors of the M populated modes, with e^{i m phi}
folded in, form a (points x 2M) mode table per component, and one matrix
product with the (2M x fields) matrix of the coefficients gives the field.
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
        if k <= 0:
            raise ValueError("wavenumber must be positive")
        self.lmax = int(lmax)
        self.k = float(k)
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

    # -- serialization: header "k <value> lmax <value>", then one line per
    #    mode "l m re(a) im(a) re(b) im(b)"; exact round-trip via repr floats.
    def to_text(self):
        if self._a.ndim > 2:
            raise ValueError("only a single-field table can be serialized; "
                             f"this one has field axes {self._a.shape[2:]}")
        lines = [f"k {float(self.k)!r} lmax {self.lmax}"]
        for l in range(1, self.lmax + 1):
            for m in range(-l, l + 1):
                av, bv = self._a[l, m], self._b[l, m]
                lines.append(f"{l} {m} {float(av.real)!r} {float(av.imag)!r} {float(bv.real)!r} {float(bv.imag)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        head = lines[0].split()
        if head[0] != "k" or head[2] != "lmax":
            raise ValueError("bad header")
        k, lmax = float(head[1]), int(head[3])
        a, b = {}, {}
        for ln in lines[1:]:
            f = ln.split()
            l, m = int(f[0]), int(f[1])
            a[(l, m)] = complex(float(f[2]), float(f[3]))
            b[(l, m)] = complex(float(f[4]), float(f[5]))
        return cls(lmax, k, a=a, b=b)

    def save(self, path):
        text = self.to_text()
        with open(path, "w") as fh:
            fh.write(text)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_text(fh.read())

    def __eq__(self, other):
        return (isinstance(other, ModeCoefficients) and self.lmax == other.lmax
                and self.k == other.k and np.array_equal(self._a, other._a)
                and np.array_equal(self._b, other._b))


def _radial_factors(coeffs, r):
    """p_l, j_l and q_l of kr at the populated degrees l, ascending, from one
    bessel_table on the shape of r: shape (3, degrees) + r.shape."""
    l = np.unique(coeffs._populated()[0])
    jt = bessel_table(coeffs.lmax + 1, coeffs.k * np.asarray(r, dtype=float))
    p, q = _pq(jt, l)
    return np.stack([p, jt[l], q])


def _angular_parts(coeffs, theta, phi):
    """The angular table A of the expansion E_c = sum_{s,i} R[s, i] A[s, i, c],
    R the _radial_factors.

    Shape (3, degrees, 3) + the broadcast shape of theta, phi and the field
    axes: A[s, i, c] is the part of component c (E_r, E_theta, E_phi) that
    multiplies radial factor s (p, j, q) of the i-th populated degree; E_r
    takes only p, the others only j and q.  Each part is coefficient x polar
    factors, from one legendre_table, summed over the orders m against
    e^{i m phi} (_sum_orders); phi may vary only along axes on which theta
    and the field axes are 1.
    """
    fields = coeffs._a.shape[2:]
    theta = np.asarray(theta, dtype=float)
    nd = max(theta.ndim, np.ndim(phi), len(fields))
    theta = theta.reshape((1,) * (nd - theta.ndim) + theta.shape)
    l, m = coeffs._populated()
    degrees, orders = np.unique(l), np.unique(m)
    y, yt, ys = _polar(legendre_table(coeffs.lmax + 1, np.cos(theta)), l, m)
    a, b = (t[l, m].reshape(l.shape + (1,) * (nd - len(fields)) + fields)
            for t in (coeffs._a, coeffs._b))
    L = np.sqrt(l * (l + 1.0)).reshape(l.shape + (1,) * nd)
    shape = np.broadcast_shapes(theta.shape, a.shape[1:])
    parts = np.zeros((orders.size, 3, degrees.size, 3) + shape, dtype=complex)
    o, i = np.searchsorted(orders, m), np.searchsorted(degrees, l)
    parts[o, 0, i, 0] = -L * b * y                          # E_r
    parts[o, 1, i, 1] = -a / L * ys                         # E_theta
    parts[o, 2, i, 1] = -b / L * yt
    parts[o, 1, i, 2] = -1j * a / L * yt                    # E_phi
    parts[o, 2, i, 2] = -1j * b / L * ys
    return _sum_orders(parts, orders, phi)


def _sum_orders(part, orders, phi):
    """sum_i part[i] e^{i orders[i] phi}, where phi varies only along axes on
    which part[i] is 1: one matrix product of the (orders x points) parts
    against the (orders x phi) table of e^{i m phi}."""
    phi = np.asarray(phi, dtype=float)
    nd = max(part.ndim - 1, phi.ndim)
    shapes = [(1,) * (nd - len(s)) + s for s in (part.shape[1:], phi.shape)]
    e = np.exp(1j * orders[:, None] * phi.ravel())
    out = part.reshape(orders.size, math.prod(shapes[0])).T @ e
    # the two shapes' axes interleaved: one of each pair has length 1
    pairs = [a for i in range(nd) for a in (i, nd + i)]
    return out.reshape(shapes[0] + shapes[1]).transpose(pairs).reshape(
        np.broadcast_shapes(*shapes))


_BLOCK = 2048   # points per mode table, so its size does not grow with them


def _mode_table(coeffs, l, m, r, theta, phi):
    """The modes (l, m) at the points (r, theta, phi), 1-d arrays, as one
    table of shape (3, points, 2M): for each spherical component, a column
    per a_l^m and then one per b_l^m, with e^{i m phi} folded in."""
    jt = bessel_table(coeffs.lmax + 1, coeffs.k * r)
    (p, q), j = _pq(jt, l), jt[l]
    L = np.sqrt(l * (l + 1.0))[:, None]
    e = np.exp(1j * m[:, None] * phi) / -L
    y, yt, ys = _polar(legendre_table(coeffs.lmax + 1, np.cos(theta)), l, m)
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

    Where phi adds axes of its own to the (r, theta, fields) shape, the
    radial factors (_radial_factors) are contracted with the angular table
    (_angular_parts) over (kind, degree).  Otherwise the points are
    flattened, and each block of _BLOCK of them is one mode table
    (_mode_table) times the (2M x fields) matrix of the coefficients a_l^m,
    then b_l^m, of the M populated modes.  The points may not vary along the
    field axes.
    """
    r, theta, phi = (np.asarray(v, dtype=float) for v in (r, theta, phi))
    fields = coeffs._a.shape[2:]
    base = np.broadcast_shapes(r.shape, theta.shape, fields)
    shape = np.broadcast_shapes(base, phi.shape)
    if phi.size > 1 and math.prod(shape) == math.prod(base) * phi.size:
        return tuple(np.einsum("si...,sic...->c...", _radial_factors(coeffs, r),
                               _angular_parts(coeffs, theta, phi)))
    points = np.broadcast_shapes(r.shape, theta.shape, phi.shape)
    if math.prod(shape) != math.prod(points) * math.prod(fields):
        raise ValueError("the points cannot vary along the field axes")
    flat = [np.broadcast_to(v, points).ravel() for v in (r, theta, phi)]
    l, m = coeffs._populated()
    coef = np.concatenate([coeffs._a[l, m], coeffs._b[l, m]]).reshape(
        2 * l.size, math.prod(fields))
    out = np.empty((3, flat[0].size, coef.shape[1]), dtype=complex)
    for s in range(0, flat[0].size, _BLOCK):
        out[:, s:s + _BLOCK] = _mode_table(
            coeffs, l, m, *(v[s:s + _BLOCK] for v in flat)) @ coef
    return tuple(out.reshape((3,) + shape))


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
