import math

import numpy as np
import pytest

from conftest import random_coeffs
from edgewave import oracle, swe
from edgewave.specfun import _pq, bessel_table, legendre_table, radial_pq
from edgewave.swe import ModeCoefficients, SphericalPoint


def fd_curl(coeffs, x, h=1e-4):
    J = np.zeros((3, 3), dtype=complex)
    for j in range(3):
        d = np.zeros(3)
        d[j] = h
        J[:, j] = (swe.eval_field(coeffs, x + d) - swe.eval_field(coeffs, x - d)) / (2 * h)
    return np.array([J[2, 1] - J[1, 2], J[0, 2] - J[2, 0], J[1, 0] - J[0, 1]])


class TestFrame:
    def test_pole(self):
        rhat, that, phat = swe.unit_frame(0.0, 0.0)
        assert np.allclose(rhat, [0, 0, 1])
        assert np.allclose(that, [1, 0, 0])
        assert np.allclose(phat, [0, 1, 0])

    def test_equator(self):
        rhat, that, phat = swe.unit_frame(math.pi / 2, 0.0)
        assert np.allclose(rhat, [1, 0, 0])
        assert np.allclose(that, [0, 0, -1])
        assert np.allclose(phat, [0, 1, 0])

    def test_gram_identity(self, rng):
        for _ in range(10):
            V = np.stack(swe.unit_frame(rng.uniform(0, math.pi),
                                        rng.uniform(0, 2 * math.pi)))
            assert np.max(np.abs(V @ V.T - np.eye(3))) < 1e-14


class TestSphHarmonic:
    def test_norm_constant_even_in_order(self):
        for l in range(1, 7):
            for m in range(0, l + 1):
                assert swe.norm_constant(l, m) == swe.norm_constant(l, -m) > 0

    def test_norm_table_is_norm_constant_to_the_bit(self):
        # the vectorised table the assembler and field evaluation share
        table = swe._norm_table(85)
        for l in range(86):
            assert table[l].tolist() == [swe.norm_constant(l, m) if m <= l else 0.0
                                         for m in range(86)]
        assert not table.flags.writeable

    def test_pole_value(self):
        assert swe.sph_harmonic(1, 0, 0.0, 1.23) == pytest.approx(
            math.sqrt(3 / (4 * math.pi)))
        assert swe.sph_harmonic(2, 1, 0.0, 0.4) == 0.0

    def test_negative_order_phase(self):
        val = swe.sph_harmonic(1, -1, math.pi / 2, math.pi / 2)
        assert val == pytest.approx(-1j * math.sqrt(3 / (8 * math.pi)))

    def test_index_error(self):
        with pytest.raises(ValueError):
            swe.sph_harmonic(1, 2, 0.3, 0.1)


class TestVectorModes:
    def test_m_mode_has_no_radial_part(self, rng):
        for _ in range(5):
            pt = SphericalPoint(rng.uniform(0.1, 1), rng.uniform(0.1, 3),
                                rng.uniform(0, 6))
            M, _ = swe.vector_modes(2, 1, pt, 1.3)
            rhat = swe.unit_frame(pt.theta, pt.phi)[0]
            assert abs(np.dot(rhat, M)) < 1e-15

    def test_n_mode_hand_assembly(self):
        # N at l=1, m=0 against direct assembly from p, q and the harmonic
        k, pt = 1.0, SphericalPoint(1.0, math.pi / 2, 0.0)
        _, N = swe.vector_modes(1, 0, pt, k)
        rad = radial_pq(1, k * pt.r)
        rhat, that, _ = swe.unit_frame(pt.theta, pt.phi)
        y = swe.sph_harmonic(1, 0, pt.theta, pt.phi)
        yt = swe.sph_harmonic_dtheta(1, 0, pt.theta, pt.phi)
        L = math.sqrt(2.0)
        expect = -(1 / L) * (2 * rad.p * y * rhat + rad.q * yt * that)
        assert np.max(np.abs(N - expect)) < 1e-12

    def test_curl_pair_identities(self, rng):
        k = 1.3
        for l in range(1, 5):
            m = int(rng.integers(-l, l + 1))
            x = rng.uniform(0.2, 0.5, 3)
            pt = SphericalPoint.from_cartesian(x)
            M, N = swe.vector_modes(l, m, pt, k)
            curl_m = fd_curl(ModeCoefficients(l, k, a={(l, m): 1.0}), x)
            curl_n = fd_curl(ModeCoefficients(l, k, b={(l, m): 1.0}), x)
            assert np.linalg.norm(curl_m + 1j * k * N) / np.linalg.norm(N) < 1e-5
            assert np.linalg.norm(curl_n - 1j * k * M) / np.linalg.norm(M) < 1e-5

    def test_singular_origin(self):
        with pytest.raises(ValueError):
            swe.vector_modes(1, 0, SphericalPoint(0.0, 0.1, 0.1), 1.0)


class TestEvalField:
    def test_zero_coefficients(self):
        c = ModeCoefficients(3, 1.0)
        assert np.all(swe.eval_field(c, np.array([0.1, 0.2, 0.3])) == 0)

    def test_single_mode_matches_vector_modes(self, rng):
        k = 1.0
        c = ModeCoefficients(1, k, b={(1, 0): 1.0})
        for _ in range(5):
            x = rng.uniform(0.05, 0.5, 3)
            pt = SphericalPoint.from_cartesian(x)
            _, N = swe.vector_modes(1, 0, pt, k)
            assert np.max(np.abs(swe.eval_field(c, x) - N)) < 1e-12

    def test_low_order_scaling(self):
        # only l = 3 modes: max |E| over a small sphere scales like rho^2
        c = ModeCoefficients(3, 1.0, a={(3, 1): 1.0}, b={(3, -2): 0.5})
        theta = np.linspace(0.1, math.pi - 0.1, 40)
        phi = np.linspace(0, 2 * math.pi, 40)
        maxima = []
        for rho in (1e-2, 1e-3, 1e-4):
            E = swe.eval_field(c, (rho, theta[:, None], phi[None, :]))
            maxima.append(np.max(np.linalg.norm(E, axis=-1)))
        slopes = np.diff(np.log(maxima)) / np.diff(np.log([1e-2, 1e-3, 1e-4]))
        assert np.allclose(slopes, 2.0, atol=0.05)

    def test_largest_table_matches_a_small_one(self):
        # lmax 85 = vanish.MAX_ORDER: its normalisation table needs every
        # factorial a float holds, and the field is that of the same modes
        # in a degree-3 table
        a, b = {(1, 0): 0.7 - 0.2j, (3, -2): 0.4}, {(2, 1): 0.3j}
        big, small = (ModeCoefficients(lmax, 1.3, a=a, b=b) for lmax in (85, 3))
        r, theta, phi = (np.array([0.0, 0.01, 0.4]), np.array([0.0, 0.7, 2.9]),
                         np.array([0.0, 1.0, 4.0]))
        for point in ((r, theta, phi), (r[:, None, None], theta[:, None], phi)):
            np.testing.assert_array_equal(swe.eval_field(big, point),
                                          swe.eval_field(small, point))
        assert (oracle.vani_estimate(big).integrals
                == oracle.vani_estimate(small).integrals)

    def test_degree_above_85_refused(self):
        with pytest.raises(ValueError, match="L_max must be in 1..85, got 86"):
            ModeCoefficients(86, 1.0)

    def test_origin_limit(self):
        c = ModeCoefficients(2, 1.0, b={(1, 0): 1.0}, a={(2, 1): 1.0})
        at0 = swe.eval_field(c, np.zeros(3))
        near0 = swe.eval_field(c, np.array([0.0, 0.0, 1e-9]))
        assert np.max(np.abs(at0 - near0)) < 1e-8
        assert np.all(np.isfinite(at0))

    def test_linearity(self, rng):
        c1, c2 = random_coeffs(rng), random_coeffs(rng)
        x = np.array([0.2, -0.1, 0.15])
        lhs = swe.eval_field(c1 + c2, x)
        rhs = swe.eval_field(c1, x) + swe.eval_field(c2, x)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-13

    def test_field_axis_matches_single_tables(self, rng):
        # fields broadcast against the last point axis
        vals = [rng.standard_normal(3) + 1j * rng.standard_normal(3)
                for _ in range(4)]
        modes = [(1, 0), (2, -1), (2, 2), (3, 1)]
        table = ModeCoefficients(3, 1.3, a=dict(zip(modes[:2], vals[:2])),
                                 b=dict(zip(modes[2:], vals[2:])))
        r, theta = np.array([0.0, 0.01, 0.4]), np.array([0.0, 0.7, 2.9])
        E = swe.eval_field(table, (r[:, None, None], theta[None, :, None], 0.3))
        assert E.shape == (3, 3, 3, 3)
        for f in range(3):
            single = ModeCoefficients(
                3, 1.3, a={lm: v[f] for lm, v in zip(modes[:2], vals[:2])},
                b={lm: v[f] for lm, v in zip(modes[2:], vals[2:])})
            ref = swe.eval_field(single, (r[:, None], theta[None, :], 0.3))
            np.testing.assert_allclose(E[:, :, f], ref, rtol=0,
                                       atol=1e-15 * np.max(np.abs(ref)))


def _per_mode_components(coeffs, r, theta, phi):
    """(E_r, E_theta, E_phi) one (l, m) at a time on the full point shape:
    the reference for the per-azimuthal-order evaluation."""
    r, theta, phi = (np.asarray(v, dtype=float) for v in (r, theta, phi))
    shape = np.broadcast_shapes(r.shape, theta.shape, phi.shape,
                                np.shape(coeffs.a(1, 0)))
    comps = [np.zeros(shape, dtype=complex) for _ in range(3)]
    jt = bessel_table(coeffs.lmax + 1, coeffs.k * r)
    P = legendre_table(coeffs.lmax + 1, np.cos(theta))
    for l, m, av, bv in coeffs.modes():
        L = math.sqrt(l * (l + 1))
        p, q = _pq(jt, l)
        y, yt, ys = swe._harmonics(P, l, m, phi)
        comps[0] += -(1.0 / L) * bv * l * (l + 1) * p * y
        comps[1] += -(1.0 / L) * (av * jt[l] * ys + bv * q * yt)
        comps[2] += -(1j / L) * (av * jt[l] * yt + bv * q * ys)
    return comps


class TestPerOrderEvaluation:
    """The expansion summed per azimuthal order against the per-mode loop."""

    R = np.array([0.0, 1e-4, 0.05, 0.4])
    THETA = np.array([0.0, 0.3, 1.6, math.pi])
    PHI = np.linspace(0, 2 * math.pi, 7, endpoint=False)

    def _assert_matches(self, coeffs, point):
        got = swe._spherical_components(coeffs, *point)
        ref = _per_mode_components(coeffs, *point)
        E = swe.eval_field(coeffs, point)
        frame = swe.unit_frame(point[1], point[2])
        E_ref = sum(c[..., None] * u for c, u in zip(ref, frame))
        scale = max(np.max(np.abs(E_ref)), 1e-300)
        for g, c in zip(got, ref):
            assert g.shape == c.shape
            assert np.max(np.abs(g - c)) <= 1e-13 * scale
        assert E.shape == E_ref.shape
        assert np.max(np.abs(E - E_ref)) <= 1e-13 * scale
        mag = oracle._field_magnitude(coeffs, *point)
        np.testing.assert_allclose(mag, np.linalg.norm(E, axis=-1), rtol=0,
                                   atol=1e-13 * scale)

    def test_tensor_grid(self, rng):
        self._assert_matches(random_coeffs(rng, 5), (
            self.R[:, None, None], self.THETA[None, :, None],
            self.PHI[None, None, :]))

    def test_tensor_grid_with_field_axis(self, rng):
        self._assert_matches(random_coeffs(rng, 3, fields=(4,)), (
            self.R[:, None, None, None], self.THETA[None, :, None, None],
            self.PHI[None, None, :, None]))

    def test_scalar_phi_with_field_axis(self, rng):
        # the shape the collocation oracle samples: (nr,1,1) x (1,ntheta,1) x F
        self._assert_matches(random_coeffs(rng, 4, fields=(6,)), (
            self.R[:, None, None], self.THETA[None, :, None], 0.9))

    def test_pointwise_arrays(self, rng, monkeypatch):
        # one (r, theta, phi) per sample, as in ball_integral_mc; the mode
        # table holds at most _BLOCK points, and the last block is short
        sizes, table = [], swe._mode_table

        def counted(coeffs, l, m, r, theta, phi):
            sizes.append(r.size)
            return table(coeffs, l, m, r, theta, phi)
        monkeypatch.setattr(swe, "_mode_table", counted)
        monkeypatch.setattr(swe, "_BLOCK", 6)
        n = 50
        self._assert_matches(random_coeffs(rng, 4), (
            rng.uniform(0, 0.5, n), rng.uniform(0, math.pi, n),
            rng.uniform(0, 2 * math.pi, n)))
        assert sizes == ([6] * 8 + [2]) * 3   # components, eval_field, |E|

    def test_points_may_not_vary_along_the_field_axes(self):
        coeffs = ModeCoefficients(1, 1.0, a={(1, 0): np.ones(3)})
        with pytest.raises(ValueError, match="field axes"):
            swe._spherical_components(coeffs, np.array([0.1, 0.2, 0.3]), 0.5, 0.0)

    def test_single_point(self, rng):
        coeffs, pt = random_coeffs(rng, 4), SphericalPoint(0.3, 1.1, 4.0)
        self._assert_matches(coeffs, (pt.r, pt.theta, pt.phi))
        np.testing.assert_array_equal(
            swe.eval_field(coeffs, pt),
            swe.eval_field(coeffs, (pt.r, pt.theta, pt.phi)))

    def test_origin(self, rng):
        # only l = 1 contributes at r = 0
        self._assert_matches(random_coeffs(rng, 3), (
            0.0, self.THETA[:, None], self.PHI[None, :]))

    def test_all_zero_table(self):
        coeffs = ModeCoefficients(3, 1.0)
        point = (self.R[:, None, None], self.THETA[None, :, None],
                 self.PHI[None, None, :])
        for comp in swe._spherical_components(coeffs, *point):
            assert comp.shape == (4, 4, 7) and not np.any(comp)
        self._assert_matches(coeffs, point)

    def test_few_orders(self, rng):
        # a table whose modes share one m across several l, and skip others
        coeffs = ModeCoefficients(4, 0.8, a={(2, 1): 1 - 1j, (4, 1): 0.5},
                                  b={(3, 1): 2j, (4, -4): 1.0})
        self._assert_matches(coeffs, (
            self.R[:, None, None], self.THETA[None, :, None],
            self.PHI[None, None, :]))

    def test_no_populated_mode_with_field_axis(self):
        # zero coefficients on a field axis: no order to contract over
        coeffs = ModeCoefficients(2, 1.0, a={(1, 0): np.zeros(3)})
        point = (self.R[:, None, None, None], self.THETA[None, :, None, None],
                 self.PHI[None, None, :, None])
        for comp in swe._spherical_components(coeffs, *point):
            assert comp.shape == (4, 4, 7, 3) and not np.any(comp)
        self._assert_matches(coeffs, point)

    def test_sparse_orders(self, rng):
        # only m in {0, 1}, over several degrees
        def draw():
            return complex(*rng.standard_normal(2))
        coeffs = ModeCoefficients(
            4, 1.1, a={(l, m): draw() for l in (1, 3, 4) for m in (0, 1)},
            b={(l, m): draw() for l in (2, 4) for m in (0, 1)})
        self._assert_matches(coeffs, (
            self.R[:, None, None], self.THETA[None, :, None],
            self.PHI[None, None, :]))

    def test_phi_shares_an_axis_with_theta(self, rng):
        # phi varies along theta's axis too, so the sum over orders is not an
        # outer product of the per-order parts and the phase table
        theta = rng.uniform(0, math.pi, 5)[:, None]
        phi = rng.uniform(0, 2 * math.pi, (5, 6))
        coeffs = random_coeffs(rng, 4)
        self._assert_matches(coeffs, (self.R[:, None, None], theta, phi))
        self._assert_matches(coeffs, (0.3, theta, phi))

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_collocation_shape_uses_no_per_mode_loop(self, monkeypatch, n):
        # the order-n unit basis with its curl on the shape the collocation
        # oracle samples, (nr,1,1,1) x (1,ntheta,1,1) x scalar phi, evaluated
        # while the per-mode harmonics refuse to run
        coeffs = oracle._unit_basis(n, 1.2).with_curl()
        point = (self.R[:, None, None, None], self.THETA[None, :, None, None], 0.9)
        ref = _per_mode_components(coeffs, *point)

        def per_mode(*args):
            raise AssertionError("a per-mode harmonic was evaluated")
        monkeypatch.setattr(swe, "_harmonics", per_mode)
        got = swe._spherical_components(coeffs, *point)
        scale = np.max(np.sqrt(sum(np.abs(c) ** 2 for c in ref)))
        for g, c in zip(got, ref):
            assert g.shape == c.shape == (4, 4, 2 * (2 * n + 1), 2)
            assert np.max(np.abs(g - c)) <= 1e-13 * scale

    def test_phi_outside_one_period(self, rng):
        phi = np.array([-7.0, -math.pi, -0.2, 2 * math.pi, 7.5, 13.0])
        self._assert_matches(random_coeffs(rng, 4), (
            self.R[:, None, None], self.THETA[None, :, None],
            phi[None, None, :]))


class TestCurlCoefficients:
    def test_curl_matches_fd(self, rng):
        coeffs = random_coeffs(rng, lmax=2, k=1.3)
        curl = coeffs.curl()
        for _ in range(6):
            x = rng.uniform(-0.5, 0.5, 3)
            C = fd_curl(coeffs, x)
            assert (np.linalg.norm(swe.eval_field(curl, x) - C)
                    / np.linalg.norm(C)) < 1e-5

    def test_double_curl_is_k_squared(self, rng):
        coeffs = random_coeffs(rng, lmax=2, k=1.3)
        twice = coeffs.curl().curl()
        for l, m, av, bv in coeffs.modes():
            assert twice.a(l, m) == pytest.approx(1.3 ** 2 * av, rel=1e-15)
            assert twice.b(l, m) == pytest.approx(1.3 ** 2 * bv, rel=1e-15)


def _loop_modes(coeffs):
    """modes() one entry at a time: the reference for the masked iteration."""
    for l in range(1, coeffs.lmax + 1):
        for m in range(-l, l + 1):
            av, bv = coeffs.a(l, m), coeffs.b(l, m)
            if np.any(av) or np.any(bv):
                yield l, m, av, bv


class TestModes:
    @staticmethod
    def _assert_same(coeffs):
        got, ref = list(coeffs.modes()), list(_loop_modes(coeffs))
        assert [(l, m) for l, m, _, _ in got] == [(l, m) for l, m, _, _ in ref]
        for (_, _, av, bv), (_, _, ra, rb) in zip(got, ref):
            assert np.array_equal(av, ra) and np.array_equal(bv, rb)

    def test_single_field(self, rng):
        coeffs = ModeCoefficients(3, 1.2, a={(1, -1): 1 - 2j, (3, 2): 0.5},
                                  b={(2, 0): 1j, (3, -3): 2.0})
        assert [(l, m) for l, m, _, _ in coeffs.modes()] == [
            (1, -1), (2, 0), (3, -3), (3, 2)]
        self._assert_same(coeffs)
        self._assert_same(random_coeffs(rng, lmax=4))

    def test_fields_with_an_all_zero_field(self):
        # field 1 is zero everywhere; (2, 1) is nonzero in field 2 only
        coeffs = ModeCoefficients(
            3, 1.2, a={(1, 0): np.array([1, 0, 2]), (2, 1): np.array([0, 0, 1j])},
            b={(3, -2): np.zeros(3), (2, -2): np.array([3, 0, 0])})
        assert [(l, m) for l, m, _, _ in coeffs.modes()] == [
            (1, 0), (2, -2), (2, 1)]
        self._assert_same(coeffs)


class TestSerialization:
    def test_round_trip(self, rng):
        c = random_coeffs(rng, lmax=4)
        assert ModeCoefficients.from_text(c.to_text()) == c

    def test_file_round_trip(self, rng, tmp_path):
        c = random_coeffs(rng, lmax=2)
        path = tmp_path / "modes.txt"
        c.save(path)
        assert ModeCoefficients.load(path) == c

    def test_header_format(self):
        c = ModeCoefficients(1, 2.0, a={(1, 1): 1 + 2j})
        lines = c.to_text().splitlines()
        assert lines[0] == "k 2.0 lmax 1"
        assert lines[1].split()[:2] == ["1", "-1"]

    def test_field_axis_refused(self, tmp_path):
        c = ModeCoefficients(1, 1.0, a={(1, 0): np.array([1.0, 2.0])})
        with pytest.raises(ValueError, match="single-field"):
            c.to_text()
        with pytest.raises(ValueError, match="single-field"):
            c.save(tmp_path / "modes.txt")
        assert not (tmp_path / "modes.txt").exists()

    def test_immutability(self):
        c = ModeCoefficients(1, 1.0, a={(1, 0): 1.0})
        with pytest.raises(ValueError):
            c._a[1, 0] = 5.0
