"""Brute-force verification: ball integrals of |E|, vanishing-order estimation
from the integral decay rate, and collocation-based nullspace computation.

The collocation path builds constraint rows by numerically sampling boundary
residuals of unit-coefficient basis fields at collocation points and
Richardson-extrapolating the leading radial coefficients, rather than by the
closed-form row formulas of the structured assembler.  Leading-order
extraction uses a polynomial fit over a geometric radius grid (ratio 2), so
the oracle stays independent of the series coefficients used elsewhere.
A query has one such grid, r_j = h 2^-j for j = 0..4 with h = min(2e-3,
0.05/k), so kh <= 0.05 at every k: the face rows, the first-order head row
and the radial weights of the edge rows are all sampled on it and fitted by
one cubic, whose matrices are computed once (_GRID, _FIT, _FIT_PINV).
A query tabulates its basis fields once, as one mode table over the
points of both faces (swe._mode_table): each unit field's E is one column of
it and its curl E is +-ik times another, so every field is a column gather,
with no coefficient table.  The rows of both faces go through corner's trace
algebra (corner._face_residuals) and share one radial fit; the first-order
head row is the same gather on face 1 alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from . import corner as _corner
from .corner import Face, ImpedanceSpec, face_normal
from .swe import (ModeCoefficients, _ball_parts, _mode_table,
                  _spherical_components, norm_constant)
from .specfun import gauss_legendre, legendre_table, radial_pq
from .vanish import (MAX_ORDER, CaseKind, column_labels, edge_rows,
                     effective_config, nullspace_dim)


class QuadratureConvergenceError(RuntimeError):
    pass


class FitQualityError(RuntimeError):
    pass


class ExtrapolationError(RuntimeError):
    pass


@dataclass(frozen=True)
class QuadratureSpec:
    radial_nodes: int = 24
    angular_nodes: int = 24
    mc_samples: Optional[int] = None
    seed: int = 42

    def __post_init__(self):
        if self.radial_nodes < 8 or self.angular_nodes < 8:
            raise ValueError("node counts must be >= 8")
        if self.mc_samples is not None and self.mc_samples < 8:
            raise ValueError("mc_samples must be >= 8")


def _field_magnitude(field, r, theta, phi):
    """|E| on a broadcastable grid; field is ModeCoefficients or a callable
    mapping (r, theta, phi) arrays to an (..., 3) complex array.  A table is
    reduced in its own orthonormal spherical frame, without Cartesian
    vectors, as sqrt(sum |c|^2) over its complex components c."""
    if not isinstance(field, ModeCoefficients):
        return np.linalg.norm(field(r, theta, phi), axis=-1)
    total = 0.0
    for c in _spherical_components(field, r, theta, phi):
        total += np.square(c.real)
        total += np.square(c.imag)
    return np.sqrt(total)


def _ball_magnitudes(field, r, theta, phi):
    """|E| on the grid (r[b], theta, phi) of each ball b, r of shape (balls,
    radial nodes) and theta, phi 1-d, as one (radial, angular) array per ball.

    A table squares |E| in Gram form from the separated parts of
    swe._ball_parts: within a pair, E_c = sum_k R_k A_{k,c} gives
    |E|^2 = sum_{k <= k'} (2 - [k = k']) R_k R_k' Re sum_c A_{k,c} conj A_{k',c},
    so |E|^2 on every ball is one real (balls x nodes, products) @
    (products, angles) matrix product.  Rounding can take a vanishing
    |E|^2 below 0, so it is clamped there before the square root."""
    if not isinstance(field, ModeCoefficients):
        shape = (r.shape[1], theta.size, phi.size)
        return (np.broadcast_to(_field_magnitude(
            field, rb[:, None, None], theta[:, None], phi[None, :]),
            shape).reshape(rb.size, -1) for rb in r)
    E = np.matmul(*_gram_terms(field, r, theta, phi))
    return np.sqrt(np.maximum(E, 0, out=E), out=E).reshape(r.shape + (-1,))


def _gram_terms(coeffs, r, theta, phi):
    """The radial products R_k R_k' as a (balls x nodes, products) matrix,
    with the k < k' terms doubled, and the angular Grams as a (products,
    angles) matrix, for each pair k <= k' within a pair of swe._ball_parts.
    Both are filled in place, so no temporary wider than A is freed within
    a query: freeing wider ones, such as a (k, k', angles) einsum, leaves
    the heap's top free beyond glibc's trim threshold, and the next query
    faults it back in (100 to 300 minor page faults on about one decay
    query in four)."""
    parts = _ball_parts(coeffs, r, theta, phi)
    n = sum(len(R) * (len(R) + 1) // 2 for R, _ in parts)
    rows, grams = np.empty((n, r.size)), np.empty((n, theta.size * phi.size))
    s = 0
    for R, A in parts:
        V = np.concatenate([A.real, A.imag], axis=1).reshape(
            len(A), 2 * A.shape[1], grams.shape[1])
        for k in range(len(R)):
            e = s + len(R) - k
            rows[s:e] = (R[k] * R[k:]).reshape(e - s, r.size)
            rows[s + 1:e] *= 2
            np.einsum("cp,kcp->kp", V[k], V[k:], out=grams[s:e])
            s = e
    return rows.T, grams


def _ball_quadrature(field, radii, quad):
    """Quadrature of |E| over the ball B_rho for each rho in radii.

    Gauss-Legendre in r over [0, rho] and in x = cos(theta); periodic
    trapezoid in phi.  Jacobian r^2 sin(theta) with the sin absorbed by the
    x substitution.  |E| comes on every ball at once (_ball_magnitudes, for
    a table one Gram-form matrix product), and each ball's weights are then
    two matrix-vector products.
    """
    nth, nphi = quad.angular_nodes, 2 * quad.angular_nodes
    xr, wr = gauss_legendre(quad.radial_nodes)
    half = 0.5 * np.asarray(radii, dtype=float)[:, None]
    r = half * (xr + 1.0)
    wr = half * wr * r * r            # with the Jacobian's r^2
    xt, wt = gauss_legendre(nth)
    theta = np.arccos(np.clip(xt, -1, 1))
    phi = 2 * math.pi * np.arange(nphi) / nphi
    wang = np.repeat(wt * (2 * math.pi / nphi), nphi)
    return np.array([wb @ (mag @ wang) for wb, mag in
                     zip(wr, _ball_magnitudes(field, r, theta, phi))])


def _check_ball(field, radii):
    """Refuse radii that are not finite and positive, and a table with a
    field axis, before any tabulation."""
    if not all(0 < rho < math.inf for rho in radii):   # NaN fails both
        raise ValueError(f"radii must be finite and positive, got {radii}")
    if isinstance(field, ModeCoefficients) and field._a.ndim > 2:
        raise ValueError("ball integrals take a single-field table; this one "
                         f"has field axes {field._a.shape[2:]}")


def ball_integral(field, rho, quad=None, check_convergence=True):
    """Integral of |E| over the ball of radius rho around the corner point.

    field is a ModeCoefficients table or a callable (r, theta, phi) -> E.
    With check_convergence the quadrature is repeated on a refined grid and a
    relative disagreement above 1e-5 raises QuadratureConvergenceError.
    """
    _check_ball(field, (rho,))
    quad = quad or QuadratureSpec()
    val = float(_ball_quadrature(field, (rho,), quad)[0])
    if check_convergence:
        finer = replace(quad, radial_nodes=quad.radial_nodes + 8,
                        angular_nodes=quad.angular_nodes + 8)
        ref = float(_ball_quadrature(field, (rho,), finer)[0])
        scale = max(abs(val), abs(ref))
        if scale > 0 and abs(val - ref) > 1e-5 * scale:
            raise QuadratureConvergenceError(
                f"ball integral at rho={rho}: {val!r} vs refined {ref!r}")
        val = ref
    return val


def ball_integral_mc(field, rho, quad):
    """Monte-Carlo cross-check of the ball integral (uniform ball sampling)."""
    if quad.mc_samples is None:
        raise ValueError("QuadratureSpec.mc_samples is not set")
    _check_ball(field, (rho,))
    rng = np.random.default_rng(quad.seed)
    n = quad.mc_samples
    u = rng.random(n)
    r = rho * u ** (1.0 / 3.0)
    theta = np.arccos(1.0 - 2.0 * rng.random(n))
    phi = 2 * math.pi * rng.random(n)
    mag = _field_magnitude(field, r, theta, phi)
    volume = 4.0 / 3.0 * math.pi * rho ** 3
    return volume * float(np.mean(mag))


DEFAULT_RADII = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)


@dataclass
class VaniEstimate:
    radii: tuple
    integrals: tuple
    slope: float
    estimated_order: int
    r_squared: float


def vani_estimate(coeffs, radii=DEFAULT_RADII, quad=None):
    """Least-squares slope of log I(rho) vs log rho; order = slope - 3.

    The integral of |E| over B_rho scales like rho^(N+3) when the field
    vanishes to order N, so the fitted slope estimates N + 3.  The field is
    tabulated once for all the radii (_ball_quadrature): one radial matrix
    on the radial nodes of every ball, one angular table on the shared
    (theta, phi) nodes, and |E|^2 on every ball is one real product of
    their Gram form.
    """
    radii = tuple(sorted(radii, reverse=True))
    _check_ball(coeffs, radii)
    if len(radii) < 4 or radii[0] / radii[-1] < 99:
        raise ValueError("need >= 4 radii spanning at least two decades")
    vals = tuple(map(float, _ball_quadrature(coeffs, radii,
                                             quad or QuadratureSpec())))
    for rho, val in zip(radii, vals):
        if not (math.isfinite(val) and val > 0):
            raise FitQualityError(
                f"ball integral at rho={rho} is {val!r}: the field is zero or "
                "underflows there, so its decay cannot be fitted")
    x = np.log(np.asarray(radii))
    y = np.log(np.asarray(vals))
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if not r2 >= 0.999:
        raise FitQualityError(f"log-log fit R^2 = {r2:.6f} < 0.999")
    return VaniEstimate(radii=radii, integrals=vals, slope=float(slope),
                        estimated_order=int(round(slope - 3.0)), r_squared=r2)


# ---------------------------------------------------------------------------
# collocation nullspace
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _unit_columns(n):
    """The order-n modes (l, m) of the unit basis, as _mode_table takes
    them, and for each of the assembler's columns the table columns of its
    E and its curl E, shape (2(2n+1), 2), with the sign of ik in the curl:
    E = M_n^m has curl -ik N_n^m, E = N_n^m has curl +ik M_n^m (as in
    ModeCoefficients.curl).  Read-only."""
    size = 2 * n + 1
    l, m = np.full(size, n), np.arange(-n, n + 1)
    cols, sign = [], []
    for fam, mu in column_labels(n):
        a, b = n + mu, n + mu + size      # M_n^mu, N_n^mu in the table
        cols.append((a, b) if fam == "a" else (b, a))
        sign.append(-1.0 if fam == "a" else 1.0)
    out = l, m, np.array(cols), np.array(sign)
    for v in out:
        v.flags.writeable = False
    return out


def _unit_face_fields(n, config, faces, r, theta):
    """corner._face_fields of every unit-coefficient order-n basis field,
    fields in the assembler's column order, as the identity table's
    with_curl() gives them.  One mode table of the points of all faces;
    each field's E is one column of it and its curl E another times +-ik."""
    l, m, cols, sign = _unit_columns(n)
    points = np.broadcast_arrays(*_corner._face_points(config, faces, r,
                                                       theta, 1))
    table = _mode_table(n, config.k, l, m, *(v.ravel() for v in points))
    fields = np.take(table, cols, axis=2)
    fields[..., 1] *= 1j * config.k * sign
    shape = np.broadcast_shapes(points[0].shape, cols.shape)
    return _corner._face_fields(fields.reshape((3,) + shape), config, faces,
                                theta)


# The collocation radii are h * _GRID; a cubic in r / h is fitted to the
# samples on them by the pseudo-inverse of its Vandermonde matrix.  Read-only.
_GRID = 0.5 ** np.arange(5)
_FIT = np.vander(_GRID, 4, increasing=True)
_FIT_PINV = np.linalg.pinv(_FIT)
_GRID.flags.writeable = _FIT.flags.writeable = _FIT_PINV.flags.writeable = False


def _radial_coefficients(values, h, n, orders=(0,)):
    """Coefficients of r^{n-1+j}, j in orders, from values sampled on the
    radii r = h * _GRID, the one geometric grid (ratio 2) of every
    collocation row, whose h = min(2e-3, 0.05/k) keeps kh <= 0.05.

    values has shape (5, ..., nfields); a cubic in r / h is fitted to
    values / r^{n-1} by least squares on the five radii.  Scaled samples
    that are not finite (r^{n-1} underflows at high n), and a fit residual
    of some field above 1e-5 of that field's scale, raise
    ExtrapolationError.
    """
    radii = h * _GRID
    with np.errstate(all="ignore"):
        power = radii.reshape(-1, *([1] * (values.ndim - 1))) ** (n - 1)
        # numpy divides complex by d + 0i as a product with 1/d: the same
        # bits without the complex division; real values keep the exact quotient
        g = values * (1 / power) if np.iscomplexobj(values) else values / power
    flat = g.reshape(len(radii), -1)
    scale = np.max(np.abs(flat).reshape(-1, values.shape[-1]), axis=0)
    if not np.all(np.isfinite(scale)):     # a NaN or inf sample propagates
        raise ExtrapolationError(
            f"samples scaled by r^-{n - 1} are not finite at order {n}")
    coef = _FIT_PINV @ flat
    d = _FIT @ coef - flat
    res = np.sum(np.square(d.real) + np.square(d.imag), axis=0)
    worst = np.max(res.reshape(-1, scale.size), axis=0) ** 0.5
    f = int(np.argmax(worst - 1e-5 * scale))
    if worst[f] > 1e-5 * scale[f]:
        raise ExtrapolationError(
            f"radial fit residual {worst[f]:.2e} vs scale {scale[f]:.2e}")
    return [(coef[j] / h ** j).reshape(values.shape[1:]) for j in orders]


def _sample_rows_true(n, config, thetas, h, orders):
    """Rows from the geometric boundary residual of every basis field.

    Returns an array (nrows, 2(2n+1)): for each face, extracted order j and
    theta sample and Cartesian component, the r^{n-1+j} coefficient (j in
    orders), fitted on the radii h * _GRID.  Both faces' residuals come from
    one mode table of their points (_unit_face_fields) and one radial fit,
    in which each face is a field block of its own, so the fit guards each
    face's rows against that face's scale.
    """
    r = (h * _GRID)[:, None, None]
    theta = np.asarray(thetas)[None, :, None]
    res = _corner._face_residuals(
        _unit_face_fields(n, config, _corner.FACES, r, theta), config, r, theta)
    # (face, nr, ntheta, field, 3) -> (nr, ntheta, 3, face x field)
    faces, nr, ntheta, nfields, _ = res.shape
    values = res.transpose(1, 2, 4, 0, 3).reshape(nr, ntheta, 3, -1)
    lead = np.stack(_radial_coefficients(values, h, n, orders))
    # (order, ntheta, 3, face, field) -> rows by face, then order
    return lead.reshape(len(orders), ntheta, 3, faces, nfields).transpose(
        3, 0, 1, 2, 4).reshape(-1, nfields)


def _sampled_head_row(n, config, thetas, h):
    """First-order head relation sampled from the face-1 series.

    Samples the combination -nu1 ^ (curl E) + eta1 (nu1 ^ E) ^ nu1 (the
    orientation under which the first-order head block closes), from one
    mode table of the face-1 points (_unit_face_fields) on the radii
    h * _GRID, extracts the r^{n-1} coefficient of its e2 component and
    projects the theta dependence on the P_n^0 direction.
    """
    thetas = np.asarray(thetas)
    r, theta = (h * _GRID)[:, None, None], thetas[None, :, None]
    e2 = _corner.e_vectors(thetas, 0.0)[1]           # (ntheta, 3)
    fields, = _unit_face_fields(n, config, (Face.ONE,), r, theta)
    # the negated series residual with eta = -eta1; negation is exact, so
    # this is -nu1 ^ (curl E) + eta1 (nu1 ^ E) ^ nu1 to the bit
    res = -_corner._residual(fields, config, Face.ONE,
                             ImpedanceSpec.series(-config.bc1.eta0), r, theta)
    lead = _radial_coefficients(np.swapaxes(res, -1, -2), h, n)[0]
    sampled = np.sum(lead * e2[:, :, None], axis=1)  # (ntheta, nbasis)
    # least-squares split over the degree-n Legendre components; keep mu = 0
    basis_mat = legendre_table(n, np.cos(thetas))[n].T
    proj, *_ = np.linalg.lstsq(basis_mat, sampled, rcond=None)
    return proj[0]


def _numeric_edge_rows(n, config, h):
    """The six edge relations with every weight rebuilt numerically.

    The radial weights are the leading coefficients of p_n, q_n sampled on
    the radii h * _GRID, and the trig factors come from the face-2 normal,
    instead of the closed-form constants used by the assembler;
    vanish.edge_rows places them.
    """
    rad = radial_pq(n, config.k * h * _GRID)
    plead, qlead = _radial_coefficients(np.stack([rad.p, rad.q], axis=-1), h, n)[0]
    nu2 = face_normal(config, Face.TWO)
    s, co = -nu2[0], nu2[1]
    c0, c1 = norm_constant(n, 0), norm_constant(n, 1)
    L = n * (n + 1)
    sL = math.sqrt(L)
    Kp = (L / 2.0) * c1 * qlead / sL
    Ap = L * c0 * plead / sL
    return edge_rows(s, co, Kp, Ap, config.bc1.eta0, config.bc2.eta0, config.k,
                     len(column_labels(n)))


def collocation_nullspace(n, config, seed=42):
    """Nullspace dimension of the order-n boundary conditions by collocation.

    The residual of each unit-coefficient order-n basis field is sampled at
    random polar angles on both faces over the geometric radius grid
    r_j = h 2^-j, j = 0..4, with h = min(2e-3, 0.05/k) so that kh <= 0.05
    (four samples per unknown, split over the radii and both faces), and
    the leading radial coefficients are Richardson-extrapolated into
    constraint rows.  For PEC/PMC faces both the r^{n-1} and the r^n
    coefficients are kept (the second-lowest order carries the coupling
    relations; a pure order-n basis field has no higher-degree
    contamination there).  For the
    impedance-impedance pairing the sampled face rows are completed by the
    six edge relations with numerically rebuilt entries, fitted on the same
    grid; mixed pairings are collocated on the reflected configuration.
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {n}")
    rng = np.random.default_rng(seed)
    case, config = effective_config(config)
    h = min(2e-3, 0.05 / config.k)
    ntheta = max(4, math.ceil(4 * (2 * n + 1) / len(_GRID)))
    thetas = rng.uniform(0.15, math.pi - 0.15, ntheta)
    if case == CaseKind.PEC_PMC:
        rows = _sample_rows_true(n, config, thetas, h, orders=(0, 1))
        return nullspace_dim(rows)
    # impedance on both faces of config, the reflected one for mixed pairings
    edge = _numeric_edge_rows(n, config, h)
    if n == 1:
        head = _sampled_head_row(n, config, thetas, h)
        rows = np.vstack([edge, head[None, :]])
    else:
        face_rows = _sample_rows_true(n, config, thetas, h, orders=(0,))
        rows = np.vstack([edge, face_rows])
    return nullspace_dim(rows)
