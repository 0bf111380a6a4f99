import numpy as np
import pytest

from edgewave import CaseKind, ModeCoefficients, config_for_case, parse_angle
from edgewave.vanish import column_labels


def make_config(alpha, case="imp-imp", eta1=1.0, eta2=1.0, k=1.0):
    a = parse_angle(alpha) if isinstance(alpha, str) else alpha
    return config_for_case(CaseKind.parse(case), a, eta1, eta2, k)


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
