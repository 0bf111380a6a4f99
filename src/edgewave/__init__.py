"""Vanishing order of time-harmonic Maxwell fields at impedance edge-corners.

The package computes, order by order, the linear constraint systems that the
boundary conditions impose on the spherical wave-expansion coefficients of a
field near the corner, evaluates their closed-form determinants, classifies
the dihedral angle arithmetically, and cross-checks everything against a
collocation-based brute-force oracle.
"""

from .angles import Angle, PolyhedronAngles, detect_rational, grid_exclusion_order, \
    parse_angle, polyhedron_degree
from .corner import EdgeCornerConfig, Face, ImpedanceKind, ImpedanceSpec, \
    face_normal, impedance_residual, trace_tangential_E, trace_tangential_curl
from .oracle import QuadratureSpec, VaniEstimate, ball_integral, \
    collocation_nullspace, vani_estimate
from .specfun import RadialFunctions, assoc_legendre, legendre_dtheta, \
    legendre_over_sin, orthogonality_integral, radial_pq, sph_bessel, \
    sph_bessel_deriv
from .swe import ModeCoefficients, SphericalPoint, eval_field, norm_constant, \
    sph_harmonic, unit_frame, vector_modes
from .vanish import BoundInvariantError, CaseKind, ConstraintSystem, \
    RankAmbiguityError, VanishReport, assemble_order_system, block_det, \
    closed_det_A, closed_det_B, config_for_case, nullspace_dim, theorem_bound, \
    vanishing_order

__version__ = "0.1.0"
