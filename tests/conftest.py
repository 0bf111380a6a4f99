import math

import numpy as np
import pytest

from edgewave import CaseKind, ModeCoefficients, config_for_case, parse_angle
from edgewave import specfun as sf
from edgewave.swe import norm_constant
from edgewave.vanish import column_labels


def make_config(alpha, case="imp-imp", eta1=1.0, eta2=1.0, k=1.0):
    a = parse_angle(alpha) if isinstance(alpha, str) else alpha
    return config_for_case(CaseKind(case), a, eta1, eta2, k)


def random_coeffs(rng, lmax=3, k=1.3, fields=()):
    """Every mode up to lmax drawn at random; `fields` gives the table a
    trailing field axis of that shape."""
    def draw():
        return rng.standard_normal(fields) + 1j * rng.standard_normal(fields)
    a = {(l, m): draw() for l in range(1, lmax + 1) for m in range(-l, l + 1)}
    b = {(l, m): draw() for l in range(1, lmax + 1) for m in range(-l, l + 1)}
    return ModeCoefficients(lmax, k, a=a, b=b)


def identity_table(n, k):
    """The order-n unit basis as one table whose field axis runs over the
    assembler's columns (vanish.column_labels)."""
    unit = np.eye(2 * (2 * n + 1))
    cols = list(enumerate(column_labels(n)))
    return ModeCoefficients(
        n, k, a={(n, m): unit[f] for f, (fam, m) in cols if fam == "a"},
        b={(n, m): unit[f] for f, (fam, m) in cols if fam == "b"})


def assert_dtheta_matches_five_point(seed, draws=50, tol=1e-8):
    """legendre_dtheta against an O(h^4) central difference at `draws`
    random (l <= 10, m, theta), compared on the unit-normalized scale: the
    raw P_l^m reach ~1e8 at l = m = 10, where no finite difference resolves
    1e-8 absolutely.  At h = 3e-4 truncation and rounding stay near 1e-10."""
    h = 3e-4
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        theta = rng.uniform(0.01, math.pi - 0.01)
        l = int(rng.integers(1, 11))
        m = int(rng.integers(0, l + 1))
        p = [sf.assoc_legendre(l, m, math.cos(theta + j * h))
             for j in (-2, -1, 1, 2)]
        fd = (p[0] - 8 * p[1] + 8 * p[2] - p[3]) / (12 * h)
        err = norm_constant(l, m) * abs(sf.legendre_dtheta(l, m, theta) - fd)
        assert err < tol, (seed, l, m, theta, err)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
