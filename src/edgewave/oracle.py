"""Brute-force verification: ball integrals of |E|, vanishing-order estimation
from the integral decay rate, and collocation-based nullspace computation.

The collocation path builds constraint rows by numerically sampling boundary
residuals of unit-coefficient basis fields at collocation points and
Richardson-extrapolating the leading radial coefficients, rather than by the
closed-form row formulas of the structured assembler.  Leading-order
extraction uses a polynomial fit over a geometric radius grid (ratio 2), so
the oracle stays independent of the series coefficients used elsewhere.
A query tabulates its basis fields once: the rows of both faces come from
one evaluation of E and curl E (corner.face_residuals) and share one radial
fit; the first-order head row is one face-1 impedance_residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from . import corner as _corner
from .corner import Face, ImpedanceSpec, face_normal, impedance_residual
from .swe import (ModeCoefficients, _angular_parts, _radial_factors,
                  _spherical_components, norm_constant)
from .specfun import gauss_legendre, legendre_table, radial_pq
from .vanish import (CaseKind, column_labels, edge_rows, effective_config,
                     nullspace_dim)


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


def _magnitude(comps):
    """sqrt(sum |c|^2) over complex components, reduced one at a time into
    one real array."""
    total = 0.0
    for c in comps:
        total += np.square(c.real)
        total += np.square(c.imag)
        del c   # freed before the next component is made
    return np.sqrt(total)


def _field_magnitude(field, r, theta, phi):
    """|E| on a broadcastable grid; field is ModeCoefficients or a callable
    mapping (r, theta, phi) arrays to an (..., 3) complex array.  A table is
    reduced in its own orthonormal spherical frame, without Cartesian
    vectors."""
    if not isinstance(field, ModeCoefficients):
        return np.linalg.norm(field(r, theta, phi), axis=-1)
    return _magnitude(_spherical_components(field, r, theta, phi))


def _real_blocks(field, r, theta, phi):
    """E_c = sum_k R_k A_{k,c} on the grid (r, theta, phi) as real blocks:
    the radial factors R, (balls x radial nodes, k), against the angular
    table A as a (k, Re/Im x component x angle) matrix.  E_r takes only the
    p rows, E_theta and E_phi only the j and q rows: two blocks.  The complex
    A is freed on return, which keeps a query's peak memory down."""
    R = _radial_factors(field, r)
    A = _angular_parts(field, theta[:, None], phi[None, :])
    blocks = []
    for Rb, Ab in ((R[:1], A[:1, :, :1]), (R[1:], A[1:, :, 1:])):
        k = Rb.shape[0] * Rb.shape[1]
        blocks.append((Rb.reshape(k, r.size).T, np.concatenate(
            [Ab.real, Ab.imag], axis=2).reshape(k, 2 * math.prod(Ab.shape[2:]))))
    return blocks


def _ball_magnitudes(field, r, theta, phi):
    """|E| on the grid (r[b], theta, phi) of each ball b in turn, r of shape
    (balls, radial nodes) and theta, phi 1-d, as (radial, angular) arrays.
    A table is tabulated once for all balls (_real_blocks); each ball is
    then two real matrix products into one buffer, and |E| the square root
    of the summed squares of its six real columns."""
    if not isinstance(field, ModeCoefficients):
        for rb in r:
            mag = _field_magnitude(field, rb[:, None, None], theta[:, None],
                                   phi[None, :])
            yield np.broadcast_to(mag, (rb.size, theta.size, phi.size)).reshape(
                rb.size, -1)
        return
    blocks = _real_blocks(field, r, theta, phi)
    nodes = r.shape[1]
    E = np.empty((nodes, 6 * theta.size * phi.size))    # one for all balls
    outs = np.split(E, [blocks[0][1].shape[1]], axis=1)
    for b in range(len(r)):
        for out, (Rb, Ab) in zip(outs, blocks):
            np.matmul(Rb[b * nodes:(b + 1) * nodes], Ab, out=out)
        parts = E.reshape(nodes, 6, -1)
        yield np.sqrt(np.einsum("rcp,rcp->rp", parts, parts))


def _ball_quadrature(field, radii, quad):
    """Quadrature of |E| over the ball B_rho for each rho in radii.

    Gauss-Legendre in r over [0, rho] and in x = cos(theta); periodic
    trapezoid in phi.  Jacobian r^2 sin(theta) with the sin absorbed by the
    x substitution.  Each ball's weights are two matrix-vector products.
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
    (theta, phi) nodes.
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

def _unit_basis(n, k):
    """The unit-coefficient order-n basis fields as one table whose field
    axis runs over the assembler's columns."""
    unit = np.eye(2 * (2 * n + 1))
    cols = list(enumerate(column_labels(n)))
    return ModeCoefficients(
        n, k, a={(n, m): unit[f] for f, (fam, m) in cols if fam == "a"},
        b={(n, m): unit[f] for f, (fam, m) in cols if fam == "b"})


@lru_cache(maxsize=None)
def _cubic_fit(scaled_radii):
    """Vandermonde matrix of a cubic on the scaled radii and its
    pseudo-inverse, which maps samples to the least-squares coefficients."""
    V = np.vander(scaled_radii, 4, increasing=True)
    pinv = np.linalg.pinv(V)
    V.flags.writeable = pinv.flags.writeable = False
    return V, pinv


def _radial_coefficients(values, radii, n, orders=(0,)):
    """Coefficients of r^{n-1+j}, j in orders, from sampled values.

    values has shape (nr, ..., nfields); a cubic in r is fitted to
    values / r^{n-1} over the (scaled) radius grid.  The overdetermined fit
    residual of each field, against that field's scale, guards against
    extrapolation instability.
    """
    radii = np.asarray(radii)
    h = radii[0]
    power = radii.reshape(-1, *([1] * (values.ndim - 1))) ** (n - 1)
    # numpy divides complex by d + 0i as a product with 1/d: the same bits
    # without the complex division; real values keep the exact quotient
    g = values * (1 / power) if np.iscomplexobj(values) else values / power
    V, pinv = _cubic_fit(tuple((radii / h).tolist()))
    flat = g.reshape(len(radii), -1)
    coef = pinv @ flat
    scale = np.max(np.abs(flat).reshape(-1, values.shape[-1]), axis=0)
    if len(radii) > 4:
        d = V @ coef - flat
        res = np.sum(np.square(d.real) + np.square(d.imag), axis=0)
        worst = np.max(res.reshape(-1, scale.size), axis=0) ** 0.5
        f = int(np.argmax(worst - 1e-5 * scale))
        if worst[f] > 1e-5 * scale[f]:
            raise ExtrapolationError(
                f"radial fit residual {worst[f]:.2e} vs scale {scale[f]:.2e}")
    out = []
    for j in orders:
        out.append((coef[j] / h ** j).reshape(values.shape[1:]))
    return out


def _sample_rows_true(n, config, thetas, radii, orders):
    """Rows from the geometric boundary residual of every basis field.

    Returns an array (nrows, 2(2n+1)): for each face, extracted order j and
    theta sample and Cartesian component, the r^{n-1+j} coefficient (j in
    orders).  Both faces' residuals come from one field evaluation and one
    radial fit, in which each face is a field block of its own, so the fit
    guards each face's rows against that face's scale.
    """
    basis = _unit_basis(n, config.k)
    res = _corner.face_residuals(basis, config, np.asarray(radii)[:, None, None],
                                 np.asarray(thetas)[None, :, None])
    # (face, nr, ntheta, field, 3) -> (nr, ntheta, 3, face x field)
    faces, nr, ntheta, nfields, _ = res.shape
    values = res.transpose(1, 2, 4, 0, 3).reshape(nr, ntheta, 3, -1)
    lead = np.stack(_radial_coefficients(values, radii, n, orders))
    # (order, ntheta, 3, face, field) -> rows by face, then order
    return lead.reshape(len(orders), ntheta, 3, faces, nfields).transpose(
        3, 0, 1, 2, 4).reshape(-1, nfields)


def _sampled_head_row(n, config, thetas, radii):
    """First-order head relation sampled from the face-1 series.

    Samples the combination -nu1 ^ (curl E) + eta1 (nu1 ^ E) ^ nu1 (the
    orientation under which the first-order head block closes), from one
    evaluation of E and curl E, extracts the r^{n-1} coefficient of its e2
    component and projects the theta dependence on the P_n^0 direction.
    """
    basis = _unit_basis(n, config.k)
    thetas = np.asarray(thetas)
    r, theta = np.asarray(radii)[:, None, None], thetas[None, :, None]
    e2 = _corner.e_vectors(thetas, 0.0)[1]           # (ntheta, 3)
    # the negated series residual with eta = -eta1; negation is exact, so
    # this is -nu1 ^ (curl E) + eta1 (nu1 ^ E) ^ nu1 to the bit
    res = -impedance_residual(basis, config, Face.ONE,
                              ImpedanceSpec.series(-config.bc1.eta0), r, theta)
    lead = _radial_coefficients(np.swapaxes(res, -1, -2), radii, n, (0,))[0]
    sampled = np.sum(lead * e2[:, :, None], axis=1)  # (ntheta, nbasis)
    # least-squares split over the degree-n Legendre components; keep mu = 0
    basis_mat = legendre_table(n, np.cos(thetas))[n].T
    proj, *_ = np.linalg.lstsq(basis_mat, sampled, rcond=None)
    return proj[0]


def _numeric_edge_rows(n, config):
    """The six edge relations with every weight rebuilt numerically.

    The radial weights are extracted from sampled p_n, q_n leading behavior
    and the trig factors from the face-2 normal, instead of the closed-form
    constants used by the assembler; vanish.edge_rows places them.
    """
    rr = np.array([1e-3, 5e-4, 2.5e-4, 1.25e-4])
    rad = radial_pq(n, config.k * rr)
    plead, qlead = _radial_coefficients(np.stack([rad.p, rad.q], axis=-1), rr, n)[0]
    nu2 = face_normal(config, Face.TWO)
    s, co = -nu2[0], nu2[1]
    c0, c1 = norm_constant(n, 0), norm_constant(n, 1)
    L = n * (n + 1)
    sL = math.sqrt(L)
    Kp = (L / 2.0) * c1 * qlead / sL
    Ap = L * c0 * plead / sL
    return edge_rows(s, co, Kp, Ap, config.bc1.eta0, config.bc2.eta0, config.k,
                     len(column_labels(n)))[0]


def collocation_nullspace(n, config, samples=None, seed=42, tol=1e-9):
    """Nullspace dimension of the order-n boundary conditions by collocation.

    The residual of each unit-coefficient order-n basis field is sampled at
    random polar angles on both faces over a geometric radius grid and the
    leading radial coefficients are Richardson-extrapolated into constraint
    rows.  For PEC/PMC faces both the r^{n-1} and the r^n coefficients are
    kept (the second-lowest order carries the coupling relations; a pure
    order-n basis field has no higher-degree contamination there).  For the
    impedance-impedance pairing the sampled face rows are completed by the
    six edge relations with numerically rebuilt entries; mixed pairings are
    collocated on the reflected configuration.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    min_samples = 4 * (2 * (2 * n + 1))
    if samples is None:
        samples = min_samples
    if samples < min_samples:
        raise ValueError(f"need samples >= {min_samples}")
    rng = np.random.default_rng(seed)
    case, config = effective_config(config)
    k = config.k
    h = min(2e-3, 0.2 / k)
    radii = h * 0.5 ** np.arange(5)
    ntheta = max(4, int(math.ceil(samples / (2 * len(radii)))))
    thetas = rng.uniform(0.15, math.pi - 0.15, ntheta)
    if case == CaseKind.PEC_PMC:
        rows = _sample_rows_true(n, config, thetas, radii, orders=(0, 1))
        return nullspace_dim(rows, tol=tol)
    # impedance on both faces of config, the reflected one for mixed pairings
    edge = _numeric_edge_rows(n, config)
    if n == 1:
        head = _sampled_head_row(n, config, thetas, radii)
        rows = np.vstack([edge, head[None, :]])
    else:
        face_rows = _sample_rows_true(n, config, thetas, radii, orders=(0,))
        rows = np.vstack([edge, face_rows])
    return nullspace_dim(rows, tol=tol)
