"""Edge-corner geometry and boundary trace operators.

The corner is placed canonically: the edge runs along the x3 axis, face 1
lies in the half-plane phi = 0 and face 2 in phi = phi0 = alpha*pi, with the
wedge interior 0 < phi < phi0.  Exterior unit normals:

    nu_1 = (0, -1, 0),      nu_2 = (-sin phi0, cos phi0, 0).

All operators in this module are geometric: trace_tangential_E returns the
actual cross product nu ^ E of the evaluated field, impedance_residual the
actual boundary combination nu ^ (curl E) + eta (nu ^ E) ^ nu.  Everything
is reported in the Cartesian frame.

face_residuals gives the residuals of both faces from one evaluation of E
and curl E: the two faces share their radii and polar angles, so their
points differ only in phi and go through one mode table.
impedance_residual is its one-face view, for every kind of face.

The evaluation is kept apart from the trace algebra.  _face_points lays out
the points of the faces, _face_fields splits E and curl E evaluated there
into one entry per face, and _cross, _project and _residual combine an
entry.  Every trace evaluates its table through coeffs.with_curl()
(_table_fields); the collocation oracle gathers its unit basis fields off
one mode table instead, and ends in the same _residual.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import IntEnum
import numpy as np

from .angles import Angle, sincos_pi
from .swe import (_cartesian, _check_wavenumber, _spherical_components,
                  unit_frame)


class ImpedanceKind(IntEnum):
    ZERO = 0       # eta = 0 (perfectly magnetic conducting face)
    INFINITE = 1   # eta = infinity (perfectly electric conducting face)
    SERIES = 2     # eta0 + sum_j eta_j(theta) r^j with eta0 != 0


@dataclass(frozen=True)
class ImpedanceSpec:
    kind: ImpedanceKind
    eta0: complex = 0.0
    higher: tuple = ()  # theta-dependent coefficient functions eta_j(theta)

    def __post_init__(self):
        if self.kind == ImpedanceKind.SERIES and not (
                self.eta0 != 0 and cmath.isfinite(self.eta0)):
            raise ValueError("series impedance requires a finite nonzero "
                             f"constant term, got {self.eta0!r}")

    @classmethod
    def zero(cls):
        return cls(ImpedanceKind.ZERO)

    @classmethod
    def infinite(cls):
        return cls(ImpedanceKind.INFINITE)

    @classmethod
    def series(cls, eta0, higher=()):
        return cls(ImpedanceKind.SERIES, complex(eta0), tuple(higher))

    def eta(self, r, theta):
        """Pointwise impedance value for the series kind."""
        if self.kind != ImpedanceKind.SERIES:
            raise ValueError("pointwise eta only defined for series impedance")
        val = self.eta0 + 0j
        rj = 1.0
        for fn in self.higher:
            rj = rj * r
            val = val + fn(theta) * rj
        return val


class Face(IntEnum):
    ONE = 1   # half-plane phi = 0
    TWO = 2   # half-plane phi = phi0


FACES = (Face.ONE, Face.TWO)


@dataclass(frozen=True)
class EdgeCornerConfig:
    alpha: Angle
    bc1: ImpedanceSpec
    bc2: ImpedanceSpec
    k: float

    def __post_init__(self):
        _check_wavenumber(self.k)

    @property
    def phi0(self):
        return self.alpha.value * math.pi


def face_normal(config, face):
    """Exterior unit normal of the requested face."""
    if face == Face.ONE:
        return np.array([0.0, -1.0, 0.0])
    if face == Face.TWO:
        s, c = sincos_pi(config.alpha.value)
        return np.array([-s, c, 0.0])
    raise ValueError(f"unknown face {face}")


def face_phi(config, face):
    return 0.0 if face == Face.ONE else config.phi0


def e_vectors(theta, phi):
    """The tangential pair e1 = thetahat, e2 = -rhat used by the face traces."""
    rhat, thetahat, _ = unit_frame(theta, phi)
    return thetahat, -rhat


def _cross(comps, frame, face):
    """nu_j ^ F on face j from F's spherical components.

    Built as sgn (-F_r e1 - F_theta e2) with e1 = thetahat, e2 = -rhat, so a
    field with no tangential part gives an exact zero; sgn = +1 on face 1
    and -1 on face 2 because nu_1 = -phihat while nu_2 = +phihat.
    """
    fr, ft, _ = comps
    rhat, thetahat, _ = frame
    sgn = 1.0 if face == Face.ONE else -1.0
    return sgn * (-(fr[..., None] * thetahat) - (ft[..., None] * -rhat))


def _project(comps, frame, config, face):
    """(nu ^ F) ^ nu = F - (nu . F) nu, Cartesian, with the exact face normal."""
    F = _cartesian(comps, frame)
    nu = face_normal(config, face)
    return F - np.tensordot(F, nu, axes=([-1], [0]))[..., None] * nu


def _face_points(config, faces, r, theta, rank):
    """The points (face, r, theta) of faces, with phi = face_phi on each, as
    arrays r, theta, phi that broadcast to them plus one trailing axis, on
    which E and curl E go side by side.

    r carries the face axis, so every point is a sample of its own and all
    of them go through one pointwise mode table.  The points line up with
    rank field axes from the right, so they reach at least that rank before
    the face axis goes in front.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    points = (len(faces),) + np.broadcast_shapes(r.shape, theta.shape,
                                                 (1,) * rank)
    phi = np.reshape([face_phi(config, face) for face in faces],
                     points[:1] + (1,) * len(points))
    return np.broadcast_to(r, points)[..., None], theta[..., None], phi


def _face_fields(comps, config, faces, theta):
    """Per face, the spherical components of E and of curl E, and the frame
    there, from comps: the components on _face_points, with E at [..., 0]
    and curl E at [..., 1]."""
    theta = np.asarray(theta, dtype=float)
    return [([c[i, ..., 0] for c in comps], [c[i, ..., 1] for c in comps],
             unit_frame(theta, face_phi(config, face)))
            for i, face in enumerate(faces)]


def _table_fields(coeffs, config, faces, r, theta):
    """_face_fields of the table coeffs, from one evaluation of
    coeffs.with_curl() on the points of all faces."""
    comps = _spherical_components(coeffs.with_curl(), *_face_points(
        config, faces, r, theta, coeffs._a.ndim - 2))
    return _face_fields(comps, config, faces, theta)


def trace_tangential_E(coeffs, config, face, r, theta):
    """nu_j ^ E on face j, Cartesian, via the closed-form face series."""
    E, _, frame = _table_fields(coeffs, config, (face,), r, theta)[0]
    return _cross(E, frame, face)


def trace_tangential_curl(coeffs, config, face, r, theta):
    """nu_j ^ (curl E) on face j, Cartesian, via the face series."""
    _, curl, frame = _table_fields(coeffs, config, (face,), r, theta)[0]
    return _cross(curl, frame, face)


def tangential_projection(coeffs, config, face, r, theta):
    """(nu ^ E) ^ nu = E - (nu . E) nu on the face, Cartesian."""
    E, _, frame = _table_fields(coeffs, config, (face,), r, theta)[0]
    return _project(E, frame, config, face)


def _residual(fields, config, face, spec, r, theta):
    """The boundary combination of spec on face from its _face_fields entry."""
    E, curl, frame = fields
    if spec.kind == ImpedanceKind.INFINITE:
        return _project(E, frame, config, face)
    curl_trace = _cross(curl, frame, face)
    if spec.kind == ImpedanceKind.ZERO:
        return curl_trace
    eta = spec.eta(np.asarray(r, dtype=float), np.asarray(theta, dtype=float))
    return curl_trace + np.asarray(eta)[..., None] * _project(E, frame, config,
                                                              face)


def _face_residuals(fields, config, r, theta):
    """The residuals of both faces from their _face_fields entries, each
    under its own condition (config.bc1, config.bc2), stacked on a leading
    face axis."""
    return np.stack([
        _residual(entry, config, face, spec, r, theta)
        for entry, face, spec in zip(fields, FACES, (config.bc1, config.bc2))])


def face_residuals(coeffs, config, r, theta):
    """impedance_residual of both faces, each under its own condition
    (config.bc1, config.bc2), stacked on a leading face axis.

    Both come from one evaluation of coeffs.with_curl(), which shares the
    Bessel and Legendre tabulation of the two faces' points.  The
    collocation oracle's unit basis joins this path at _face_residuals,
    from its own evaluation.
    """
    return _face_residuals(_table_fields(coeffs, config, FACES, r, theta),
                           config, r, theta)


def impedance_residual(coeffs, config, face, spec, r, theta):
    """Boundary residual of the generalized impedance condition on a face.

    series:   nu ^ (curl E) + eta(r, theta) (nu ^ E) ^ nu
    zero:     nu ^ (curl E)
    infinite: (nu ^ E) ^ nu

    This is the one-face view of face_residuals: E and curl E come from
    one evaluation of the table coeffs.with_curl().
    """
    fields, = _table_fields(coeffs, config, (face,), r, theta)
    return _residual(fields, config, face, spec, r, theta)

