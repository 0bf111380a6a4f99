import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgewave import specfun as sf
from edgewave.vanish import MAX_ORDER


def _legendre_table_per_order(lmax, x):
    """legendre_table as one numpy expression per (degree, order) pair."""
    x = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
    out = np.zeros((lmax + 1, lmax + 1) + x.shape)
    for m in range(lmax + 1):
        out[m, m] = sf.double_factorial(2 * m - 1) * (1.0 - x * x) ** (m / 2.0)
        if m < lmax:
            out[m + 1, m] = x * (2 * m + 1) * out[m, m]
        for deg in range(m + 2, lmax + 1):
            out[deg, m] = ((2 * deg - 1) * x * out[deg - 1, m]
                           - (deg + m - 1) * out[deg - 2, m]) / (deg - m)
    return out


class TestAssocLegendre:
    def test_values_at_one(self):
        assert sf.assoc_legendre(3, 0, 1.0) == 1.0
        assert sf.assoc_legendre(2, 1, 1.0) == 0.0

    def test_closed_form_degree_two(self):
        # P_2^1(x) = 3 x sqrt(1 - x^2)
        x = 0.5
        assert sf.assoc_legendre(2, 1, x) == pytest.approx(
            3 * x * math.sin(math.pi / 3), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.assoc_legendre(2, 3, 0.5)
        with pytest.raises(ValueError):
            sf.assoc_legendre(2, 1, 1.5)

    def test_negative_order_relation(self):
        for n in range(1, 11):
            for m in range(1, n + 1):
                for x in (-0.8, 0.0, 0.3, 0.99):
                    lhs = sf.assoc_legendre(n, -m, x)
                    rhs = ((-1) ** m * sf.factorial(n - m) / sf.factorial(n + m)
                           * sf.assoc_legendre(n, m, x))
                    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    @given(st.integers(1, 8), st.floats(-0.999, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_matches_recurrence_free_formulas(self, l, x):
        # m = 0 reduces to the Legendre polynomial
        ref = np.polynomial.legendre.Legendre.basis(l)(x)
        assert sf.assoc_legendre(l, 0, x) == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_vectorized(self):
        x = np.linspace(-1, 1, 7)
        vals = sf.assoc_legendre(3, 2, x)
        assert vals.shape == x.shape
        assert vals[0] == sf.assoc_legendre(3, 2, -1.0)


class TestThetaRecursions:
    def test_dtheta_degree_one(self):
        # d(sin t)/dt at pi/2 and d(cos t)/dt at pi/2
        assert sf.legendre_dtheta(1, 1, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
        assert sf.legendre_dtheta(1, 0, math.pi / 2) == pytest.approx(-1.0)

    def test_dtheta_vs_finite_difference(self, rng):
        h = 1e-6
        for _ in range(20):
            theta = rng.uniform(0.05, math.pi - 0.05)
            fd = (sf.assoc_legendre(2, 2, math.cos(theta + h))
                  - sf.assoc_legendre(2, 2, math.cos(theta - h))) / (2 * h)
            assert sf.legendre_dtheta(2, 2, theta) == pytest.approx(fd, abs=1e-8)

    def test_over_sin_simple(self):
        assert sf.legendre_over_sin(1, 1, math.pi / 2) == pytest.approx(1.0)

    def test_over_sin_limit_at_zero(self):
        # lim of P_2^1(cos t)/sin t = lim 3 cos t = 3
        assert sf.legendre_over_sin(2, 1, 0.0) == pytest.approx(3.0)

    def test_over_sin_vs_direct_quotient(self):
        theta = math.pi / 4
        direct = 2 * sf.assoc_legendre(3, 2, math.cos(theta)) / math.sin(theta)
        assert sf.legendre_over_sin(3, 2, theta) == pytest.approx(direct, abs=1e-10)

    def test_index_errors(self):
        with pytest.raises(ValueError):
            sf.legendre_over_sin(2, 0, 0.3)
        with pytest.raises(ValueError):
            sf.legendre_dtheta(2, 3, 0.3)


class TestSphericalBessel:
    def test_small_argument(self):
        assert sf.sph_bessel(0, 1e-12) == pytest.approx(1.0)
        assert sf.sph_bessel(2, 0.0) == 0.0

    def test_closed_form_degree_one(self):
        t = 0.5
        assert sf.sph_bessel(1, t) == pytest.approx(
            math.sin(t) / t ** 2 - math.cos(t) / t, rel=1e-12)

    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("l", range(1, 11))
    def test_ratio_recurrence(self, l, t):
        lhs = sf.sph_bessel(l, t) / t
        rhs = (sf.sph_bessel(l - 1, t) + sf.sph_bessel(l + 1, t)) / (2 * l + 1)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-18)

    def test_derivative_recurrence(self):
        for l in range(1, 13):
            for t in (0.3, 2.0, 9.0):
                ref = (l * sf.sph_bessel(l - 1, t)
                       - (l + 1) * sf.sph_bessel(l + 1, t)) / (2 * l + 1)
                assert sf.sph_bessel_deriv(l, t) == pytest.approx(ref, rel=1e-12)

    def test_series_matches_scipy_at_crossover(self):
        from scipy.special import spherical_jn
        for l in range(0, 6):
            for t in (5e-4, 9.99e-4, 1.01e-3, 2e-3):
                assert sf.sph_bessel(l, t) == pytest.approx(
                    spherical_jn(l, t), rel=1e-12, abs=1e-16)


class TestTables:
    @pytest.mark.parametrize("t", [0.0, 1e-4, 9.99e-4, 1e-3, 1.01e-3, 0.3, 4.0, 25.0])
    def test_bessel_table_matches_scipy_order_by_order(self, t):
        from scipy.special import spherical_jn
        table = sf.bessel_table(12, t)
        assert table.shape == (13,)
        for l in range(13):
            assert table[l] == pytest.approx(spherical_jn(l, t), rel=1e-12, abs=1e-300)

    def test_bessel_table_on_mixed_array(self):
        from scipy.special import spherical_jn
        t = np.array([[0.0, 5e-4], [1e-3, 2.5]])
        table = sf.bessel_table(6, t)
        assert table.shape == (7, 2, 2)
        for l in range(7):
            np.testing.assert_allclose(table[l], spherical_jn(l, t), rtol=1e-12,
                                       atol=1e-300)
            assert np.array_equal(table[l], sf.sph_bessel(l, t))

    def test_bessel_table_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            sf.bessel_table(-1, 0.5)

    def test_legendre_table_matches_assoc_legendre(self):
        x = np.linspace(-1, 1, 9)
        table = sf.legendre_table(10, x)
        assert table.shape == (11, 11, 9)
        for l in range(11):
            for m in range(11):
                if m > l:
                    assert not table[l, m].any()
                else:
                    assert np.array_equal(table[l, m], sf.assoc_legendre(l, m, x))

    @given(st.integers(0, 12), st.floats(-1.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_legendre_table_order_zero_is_legendre_polynomial(self, l, x):
        ref = np.polynomial.legendre.Legendre.basis(l)(x)
        assert sf.legendre_table(12, x)[l, 0] == pytest.approx(ref, rel=1e-10,
                                                              abs=1e-12)

    @pytest.mark.parametrize("x", [
        np.random.default_rng(5).uniform(-1, 1, 40),
        np.cos(np.random.default_rng(6).uniform(0, math.pi, (3, 1, 4))),
        np.array([-1.0, 1.0]), -1.0, 1.0, 0.3])
    def test_legendre_table_matches_the_per_order_loop(self, x):
        # one degree at a time over every order gives the bits of one
        # (degree, order) pair at a time
        for lmax in range(40):
            assert np.array_equal(sf.legendre_table(lmax, x),
                                  _legendre_table_per_order(lmax, x))

    def test_legendre_table_domain_error(self):
        with pytest.raises(ValueError):
            sf.legendre_table(3, [0.2, 1.5])

    def test_gauss_legendre_cached_and_read_only(self):
        x, w = sf.gauss_legendre(24)
        ref_x, ref_w = np.polynomial.legendre.leggauss(24)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        assert sf.gauss_legendre(24)[0] is x
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0


# every order the package can ask for: l <= n + 1 with n <= MAX_ORDER
LMAX = MAX_ORDER + 1
_ROWS = np.arange(LMAX + 1)[:, None]
# t, and the rows (l, t) each branch of bessel_table computes
BRANCHES = {
    "tiny": (np.concatenate([[0.0], np.geomspace(1e-9, 9.99e-4, 25)]),
             lambda t: np.ones((LMAX + 1, t.size), dtype=bool)),
    "series": (np.concatenate([np.linspace(1e-3, 0.99, 25),
                               [np.nextafter(1.0, 0.0)]]),
               lambda t: np.ones((LMAX + 1, t.size), dtype=bool)),
    "miller": (np.concatenate([[1.0, 1.5, 2.0, 7.3, 15.5, 16.0, 33.2],
                               np.linspace(40.0, 86.0, 12)]),
               lambda t: _ROWS >= t),
    "upward": (np.concatenate([[1.0, 2.5, 9.0, 25.0, 70.7],
                               np.linspace(86.0, 100.0, 8)]),
               lambda t: _ROWS < t),
}


def _scipy_rows(t):
    from scipy.special import spherical_jn
    return spherical_jn(np.arange(LMAX + 2)[:, None], t)


class TestBesselBranches:
    """bessel_table against scipy, order by order, on every branch."""

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_scipy(self, branch, sign):
        t, rows = BRANCHES[branch]
        t = sign * t
        table = sf.bessel_table(LMAX, t)
        ref = _scipy_rows(t)
        # j_l and j_(l+1) share no zero, so their hypot is the row's local
        # scale: |j_l| where it decays, its envelope where it oscillates
        scale = np.hypot(ref[:-1], ref[1:])
        err = np.abs(table - ref[:-1])
        mask = rows(np.abs(t))
        assert mask.any()
        assert np.all(err[mask] <= 1e-12 * scale[mask] + 1e-300), \
            np.max(err[mask] / np.maximum(scale[mask], 1e-300))

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_rows_do_not_depend_on_lmax(self, branch):
        t = BRANCHES[branch][0]
        full = sf.bessel_table(LMAX + 14, t)
        for lmax in (0, 1, 2, 5, 15, 16, 17, 31, 32, 47, LMAX):
            assert np.array_equal(sf.bessel_table(lmax, t), full[:lmax + 1])

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_parity_is_exact(self, branch):
        t = BRANCHES[branch][0]
        sign = (-1.0) ** np.arange(LMAX + 1)[:, None]
        assert np.array_equal(sf.bessel_table(LMAX, -t),
                              sign * sf.bessel_table(LMAX, t))

    def test_points_do_not_depend_on_each_other(self):
        t = np.array([[0.0, 5e-4, 0.7], [1.0, -3.2, 60.0]])
        table = sf.bessel_table(40, t)
        assert table.shape == (41, 2, 3)
        for index in np.ndindex(t.shape):
            assert np.array_equal(table[(slice(None),) + index],
                                  sf.bessel_table(40, t[index]))

    def test_rejects_non_finite_argument(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError):
                sf.bessel_table(3, [0.5, bad])


class TestRadialPQ:
    def test_limits_degree_one(self):
        rad = sf.radial_pq(1, 0.0)
        assert rad.p == pytest.approx(1 / 3)
        assert rad.q == pytest.approx(2 / 3)

    def test_leading_coefficients_degree_two(self):
        # p_2(t)/t -> 1/15, q_2(t)/t -> 3/15
        t = 1e-6
        rad = sf.radial_pq(2, t)
        assert rad.p / t == pytest.approx(1 / 15, rel=1e-9)
        assert rad.q / t == pytest.approx(3 / 15, rel=1e-9)

    def test_composition_from_bessel(self):
        t = 1.2
        rad = sf.radial_pq(3, t)
        jm, jp = sf.sph_bessel(2, t), sf.sph_bessel(4, t)
        assert rad.p == pytest.approx((jm + jp) / 7, abs=1e-13)
        assert rad.q == pytest.approx((4 * jm - 3 * jp) / 7, abs=1e-13)

    def test_jprime_matches_sph_bessel_deriv_bitwise(self):
        t = np.array([0.0, 2e-4, 9e-4, 1e-3, 0.3, 1.0, 4.7, 10.0])
        for l in range(1, 13):
            assert np.array_equal(sf.radial_pq(l, t).jprime,
                                  sf.sph_bessel_deriv(l, t))


class TestOrthogonality:
    def test_off_diagonal_zero(self):
        assert abs(sf.orthogonality_integral(2, 1, 2)) < 1e-8

    def test_diagonal_values(self):
        assert sf.orthogonality_integral(2, 1, 1) == pytest.approx(6.0, abs=1e-6)
        assert sf.orthogonality_integral(4, 2, 2) == pytest.approx(180.0, rel=1e-5)

    def test_closed_form_table(self):
        for n in range(1, 7):
            for m in range(1, n + 1):
                ref = sf.factorial(n + m) / (m * sf.factorial(n - m))
                val = sf.orthogonality_integral(n, m, m)
                assert val == pytest.approx(ref, rel=1e-5)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_full_table_to_n_12(self, n):
        for m in range(1, n + 1):
            for l in range(1, n + 1):
                scale = sf.orthogonality_closed_form(n, max(m, l))
                ref = sf.orthogonality_closed_form(n, m) if l == m else 0.0
                assert abs(sf.orthogonality_integral(n, m, l) - ref) < 1e-12 * scale
