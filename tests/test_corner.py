import math
import re

import numpy as np
import pytest

from conftest import make_config, random_coeffs
from edgewave import corner, swe
from edgewave.corner import Face, ImpedanceKind, ImpedanceSpec


class TestGeometry:
    def test_face_one_normal(self):
        cfg = make_config("1/3")
        assert np.allclose(corner.face_normal(cfg, Face.ONE), [0, -1, 0])

    def test_face_two_right_angle(self):
        cfg = make_config("1/2")
        assert np.allclose(corner.face_normal(cfg, Face.TWO), [-1, 0, 0])

    def test_face_two_sixty_degrees(self):
        cfg = make_config("1/3")
        nu = corner.face_normal(cfg, Face.TWO)
        assert np.allclose(nu, [-math.sin(math.pi / 3), 0.5, 0], atol=1e-12)

    def test_e_vectors_unit_orthogonal(self, rng):
        for _ in range(100):
            th, ph = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            e1, e2 = corner.e_vectors(th, ph)
            assert abs(np.linalg.norm(e1) - 1) < 1e-14
            assert abs(np.linalg.norm(e2) - 1) < 1e-14
            assert abs(np.dot(e1, e2)) < 1e-14

    def test_e_vectors_orthogonal_to_normal_on_face(self, rng):
        cfg = make_config("0.41")
        for face in (Face.ONE, Face.TWO):
            nu = corner.face_normal(cfg, face)
            phi = corner.face_phi(cfg, face)
            for _ in range(20):
                e1, e2 = corner.e_vectors(rng.uniform(0, math.pi), phi)
                assert abs(np.dot(e1, nu)) < 1e-14
                assert abs(np.dot(e2, nu)) < 1e-14


class TestImpedanceSpec:
    def test_series_requires_nonzero_constant(self):
        with pytest.raises(ValueError):
            ImpedanceSpec.series(0.0)

    @pytest.mark.parametrize("eta0", [math.inf, complex(1, math.inf),
                                      complex(math.nan, 0), 1e400])
    def test_series_requires_finite_constant(self, eta0):
        with pytest.raises(ValueError, match=re.escape(f"got {complex(eta0)!r}")):
            ImpedanceSpec.series(eta0)

    @pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf])
    def test_wavenumber_finite_and_positive(self, k):
        spec = ImpedanceSpec.series(1.0)
        with pytest.raises(ValueError, match=f"finite and positive, got {k!r}"):
            corner.EdgeCornerConfig(make_config("1/3").alpha, spec, spec, k)
        with pytest.raises(ValueError, match=f"finite and positive, got {k!r}"):
            swe.ModeCoefficients(1, k)

    def test_pointwise_eta(self):
        spec = ImpedanceSpec.series(2.0, higher=(lambda t: math.cos(t),))
        assert spec.eta(0.1, 0.0) == pytest.approx(2.1)

    def test_angle_domain(self):
        from edgewave.angles import AngleError, parse_angle
        with pytest.raises(AngleError):
            parse_angle("1/1")


class TestTraces:
    def test_zero_coefficients(self):
        cfg = make_config("0.37")
        c = swe.ModeCoefficients(2, cfg.k)
        assert np.all(corner.trace_tangential_E(c, cfg, Face.ONE, 0.3, 1.0) == 0)
        assert np.all(corner.trace_tangential_curl(c, cfg, Face.TWO, 0.3, 1.0) == 0)

    def test_trace_vs_cross_product(self, rng):
        cfg = make_config("0.37", k=1.3)
        coeffs = random_coeffs(rng, k=cfg.k)
        for face in (Face.ONE, Face.TWO):
            nu = corner.face_normal(cfg, face)
            phi = corner.face_phi(cfg, face)
            for _ in range(8):
                r, th = rng.uniform(0.05, 0.7), rng.uniform(0.1, math.pi - 0.1)
                E = swe.eval_field(coeffs, (r, th, phi))
                tr = corner.trace_tangential_E(coeffs, cfg, face, r, th)
                assert (np.linalg.norm(np.cross(nu, E) - tr)
                        / np.linalg.norm(E)) < 1e-10

    def test_curl_trace_vs_fd(self, rng):
        from test_swe import fd_curl
        cfg = make_config("0.37", k=1.3)
        coeffs = random_coeffs(rng, lmax=2, k=cfg.k)
        for face in (Face.ONE, Face.TWO):
            nu = corner.face_normal(cfg, face)
            phi = corner.face_phi(cfg, face)
            for _ in range(3):
                r, th = rng.uniform(0.1, 0.5), rng.uniform(0.3, math.pi - 0.3)
                x = swe.SphericalPoint(r, th, phi).to_cartesian()
                C = fd_curl(coeffs, x)
                tr = corner.trace_tangential_curl(coeffs, cfg, face, r, th)
                assert (np.linalg.norm(np.cross(nu, C) - tr)
                        / np.linalg.norm(C)) < 1e-5

    def test_single_mode_trace_value(self):
        # b_1^0 alone: the e1 coefficient on face 1 is -(1/sqrt 2) 2 p_1(kr) Y_1^0
        cfg = make_config("0.37", k=1.0)
        c = swe.ModeCoefficients(1, 1.0, b={(1, 0): 1.0})
        r, th = 0.3, 1.1
        tr = corner.trace_tangential_E(c, cfg, Face.ONE, r, th)
        from edgewave.specfun import radial_pq
        e1 = corner.e_vectors(th, 0.0)[0]
        coeff = np.dot(tr, e1)
        y = swe.sph_harmonic(1, 0, th, 0.0)
        # geometric orientation: nu_1 = -phihat makes the face-1 coefficient
        # +(1/sqrt 2) 2 p_1 Y_1^0 (the series carries sign sqrt(2) p Y)
        expect = (1 / math.sqrt(2)) * 2 * radial_pq(1, r).p * y
        assert coeff == pytest.approx(expect, rel=1e-12)

    def test_single_mode_curl_trace_value(self):
        # a_1^0 alone: the e1 coefficient of the curl trace on face 1 is
        # ik (1/sqrt 2) 2 p_1(kr) Y_1^0
        cfg = make_config("0.37", k=1.0)
        c = swe.ModeCoefficients(1, 1.0, a={(1, 0): 1.0})
        r, th = 0.3, 1.1
        tr = corner.trace_tangential_curl(c, cfg, Face.ONE, r, th)
        from edgewave.specfun import radial_pq
        e1 = corner.e_vectors(th, 0.0)[0]
        y = swe.sph_harmonic(1, 0, th, 0.0)
        # curl(a M) = -ik a N: the geometric face-1 coefficient is
        # -ik (1/sqrt 2) 2 p_1 Y_1^0
        expect = -1j * (1 / math.sqrt(2)) * 2 * radial_pq(1, r).p * y
        assert np.dot(tr, e1) == pytest.approx(expect, rel=1e-12)


    @pytest.mark.parametrize("trace", [corner.trace_tangential_E,
                                       corner.trace_tangential_curl])
    def test_normal_component_vanishes(self, rng, trace):
        # the traces are built in the spherical frame: face 1 has no normal
        # part at all, face 2 only the rounding of the frame's Cartesian
        # components
        cfg = make_config("0.37", k=1.3)
        r = rng.uniform(0.01, 0.5, (6, 1))
        th = rng.uniform(0.1, math.pi - 0.1, (1, 9))
        for coeffs in (random_coeffs(rng, k=cfg.k),
                       swe.ModeCoefficients(2, cfg.k, b={(2, 0): 1.0})):
            tr = trace(coeffs, cfg, Face.ONE, r, th)
            assert np.all(tr @ corner.face_normal(cfg, Face.ONE) == 0.0)
            tr = trace(coeffs, cfg, Face.TWO, r, th)
            normal = np.abs(tr @ corner.face_normal(cfg, Face.TWO))
            assert np.all(normal <= 1e-15 * np.linalg.norm(tr, axis=-1))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_curl_trace_of_unit_b0_is_exactly_zero(self, rng, n):
        # curl(N_n^0) = ik M_n^0 is azimuthal, i.e. normal to both faces
        cfg = make_config("0.37", k=1.3)
        c = swe.ModeCoefficients(n, cfg.k, b={(n, 0): 1.0})
        r = rng.uniform(0.0, 0.5, (6, 1))
        th = rng.uniform(0.0, math.pi, (1, 9))
        for face in (Face.ONE, Face.TWO):
            tr = corner.trace_tangential_curl(c, cfg, face, r, th)
            assert np.all(tr == 0.0)


class TestResidual:
    def test_zero_for_every_kind(self):
        cfg = make_config("0.37")
        c = swe.ModeCoefficients(2, cfg.k)
        for spec in (ImpedanceSpec.series(1.0), ImpedanceSpec.zero(),
                     ImpedanceSpec.infinite()):
            res = corner.impedance_residual(c, cfg, Face.ONE, spec, 0.3, 1.0)
            assert np.all(res == 0)

    def test_compositional(self, rng):
        cfg = make_config("0.37", eta1=0.8 - 0.4j, k=1.3)
        coeffs = random_coeffs(rng, k=cfg.k)
        r, th = 0.25, 0.9
        res = corner.impedance_residual(coeffs, cfg, Face.ONE, cfg.bc1, r, th)
        comp = (corner.trace_tangential_curl(coeffs, cfg, Face.ONE, r, th)
                + cfg.bc1.eta0
                * corner.tangential_projection(coeffs, cfg, Face.ONE, r, th))
        assert np.max(np.abs(res - comp)) < 1e-12

    @pytest.mark.parametrize("alpha", ["0.37", "1/2", "3/2"])
    @pytest.mark.parametrize("fields", [(), (6,)])
    def test_series_face_evaluates_once(self, rng, monkeypatch, alpha, fields):
        # E and curl E share one expansion, and give the separate traces on
        # the collocation shapes, with and without a field axis, to rounding
        cfg = make_config(alpha, eta1=0.8 - 0.4j, k=1.3)
        coeffs = random_coeffs(rng, k=cfg.k, fields=fields)
        r = np.array([1e-3, 5e-4, 2.5e-4])[:, None, None]
        th = np.linspace(0.1, 3.0, 7)[None, :, None]
        if not fields:
            r, th = r[..., 0], th[..., 0]
        for face in (Face.ONE, Face.TWO):
            eta = cfg.bc1.eta0 if face == Face.ONE else 1.1 + 0.2j
            spec = ImpedanceSpec.series(eta)
            comp = (corner.trace_tangential_curl(coeffs, cfg, face, r, th)
                    + eta * corner.tangential_projection(coeffs, cfg, face, r, th))
            calls = []
            inner = corner._spherical_components

            def counted(*args, **kwargs):
                calls.append(args[0])
                return inner(*args, **kwargs)
            monkeypatch.setattr(corner, "_spherical_components", counted)
            res = corner.impedance_residual(coeffs, cfg, face, spec, r, th)
            monkeypatch.undo()
            assert len(calls) == 1
            assert res.shape == comp.shape
            assert np.max(np.abs(res - comp)) <= 1e-13 * np.max(np.abs(comp))

    @pytest.mark.parametrize("case", ["imp-imp", "pec-pmc", "imp-pec", "imp-pmc"])
    @pytest.mark.parametrize("grid", [True, False])
    def test_face_residuals_stack_both_faces(self, rng, case, grid):
        # one evaluation for both faces gives each face's own residual, on
        # the collocation grid and at scalar points, where the face axis
        # stays its own against the field axis
        cfg = make_config("0.37", case=case, eta1=0.8 - 0.4j, eta2=1.1 + 0.2j,
                          k=1.3)
        if grid:
            coeffs = random_coeffs(rng, k=cfg.k, fields=(4,))
            r = np.array([1e-3, 5e-4, 2.5e-4])[:, None, None]
            th = np.linspace(0.1, 3.0, 7)[None, :, None]
            shape = (3, 7, 4, 3)
        else:
            coeffs = random_coeffs(rng, k=cfg.k, fields=(2,))
            r, th, shape = 0.25, 0.9, (2, 3)
        res = corner.face_residuals(coeffs, cfg, r, th)
        assert res.shape == (2,) + shape
        for got, face, spec in zip(res, (Face.ONE, Face.TWO), (cfg.bc1, cfg.bc2)):
            ref = corner.impedance_residual(coeffs, cfg, face, spec, r, th)
            assert ref.shape == shape
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", ["imp-imp", "pec-pmc"])
    def test_one_face_is_its_face_residuals_entry(self, rng, case):
        # series, PEC and PMC faces: on the collocation grid the one-face
        # view is the stacked evaluation's entry, bit for bit
        cfg = make_config("0.37", case=case, eta1=0.8 - 0.4j, eta2=1.1 + 0.2j,
                          k=1.3)
        coeffs = random_coeffs(rng, k=cfg.k, fields=(4,))
        r = np.array([1e-3, 5e-4, 2.5e-4])[:, None, None]
        th = np.linspace(0.1, 3.0, 7)[None, :, None]
        both = corner.face_residuals(coeffs, cfg, r, th)
        for got, face, spec in zip(both, (Face.ONE, Face.TWO), (cfg.bc1, cfg.bc2)):
            np.testing.assert_array_equal(
                corner.impedance_residual(coeffs, cfg, face, spec, r, th), got)

    @pytest.mark.parametrize("spec", [
        ImpedanceSpec.series(0.8 - 0.4j), ImpedanceSpec.series(1.1, higher=(np.cos,)),
        ImpedanceSpec.zero(), ImpedanceSpec.infinite()])
    def test_scalar_points_against_a_field_axis(self, rng, monkeypatch, spec):
        # scalar r and theta broadcast against every field, as a point of
        # its own, and every kind evaluates E and curl E in one table
        cfg = make_config("0.37", k=1.3)
        coeffs = random_coeffs(rng, k=cfg.k, fields=(4,))
        r, th = 0.25, 0.9
        for face in (Face.ONE, Face.TWO):
            curl = corner.trace_tangential_curl(coeffs, cfg, face, r, th)
            tang = corner.tangential_projection(coeffs, cfg, face, r, th)
            if spec.kind == ImpedanceKind.ZERO:
                comp = curl
            elif spec.kind == ImpedanceKind.INFINITE:
                comp = tang
            else:
                comp = curl + spec.eta(r, th) * tang
            tables = []
            inner = corner._spherical_components

            def counted(*args, **kwargs):
                tables.append(args[0])
                return inner(*args, **kwargs)
            monkeypatch.setattr(corner, "_spherical_components", counted)
            res = corner.impedance_residual(coeffs, cfg, face, spec, r, th)
            monkeypatch.undo()
            assert res.shape == comp.shape == (4, 3)
            assert np.max(np.abs(res - comp)) <= 1e-14 * np.max(np.abs(comp))
            assert [t._a.shape[2:] for t in tables] == [(4, 2)]

    def test_with_curl_stacks_the_curl_last(self, rng):
        coeffs = random_coeffs(rng, fields=(2,))
        both, curl = coeffs.with_curl(), coeffs.curl()
        for l in range(1, coeffs.lmax + 1):
            for m in range(-l, l + 1):
                assert np.array_equal(both.a(l, m), np.stack([coeffs.a(l, m),
                                                              curl.a(l, m)], -1))
                assert np.array_equal(both.b(l, m), np.stack([coeffs.b(l, m),
                                                              curl.b(l, m)], -1))

    def test_theta_dependent_eta(self, rng):
        spec = ImpedanceSpec.series(1.0, higher=(np.cos,))
        cfg = make_config("0.37")
        coeffs = random_coeffs(rng, k=cfg.k)
        r, th = 0.25, 0.9
        res = corner.impedance_residual(coeffs, cfg, Face.ONE, spec, r, th)
        comp = (corner.trace_tangential_curl(coeffs, cfg, Face.ONE, r, th)
                + (1.0 + math.cos(th) * r)
                * corner.tangential_projection(coeffs, cfg, Face.ONE, r, th))
        assert np.max(np.abs(res - comp)) < 1e-12

    def test_pec_residual_leading_order_vanishes(self):
        # first-order coefficients with b_1^1 + b_1^-1 = 0, b_1^0 = 0 kill the
        # r^0 part of the PEC residual on face 1
        cfg = make_config("0.37", case="imp-pec")
        c = swe.ModeCoefficients(1, cfg.k, b={(1, 1): 0.7 - 0.2j, (1, -1): -0.7 + 0.2j},
                                 a={(1, 1): 1.1, (1, 0): 0.3})
        th = np.linspace(0.2, math.pi - 0.2, 9)
        radii = (2e-4, 1e-4, 5e-5)
        res = [corner.impedance_residual(c, cfg, Face.ONE,
                                         ImpedanceSpec.infinite(), r, th)
               for r in radii]
        # residual is O(r): halving r halves the magnitude
        assert np.max(np.abs(res[0])) == pytest.approx(
            2 * np.max(np.abs(res[1])), rel=0.01)
        # three-point extrapolation of the r^0 coefficient is negligible
        lead = (8 * res[2] - 6 * res[1] + res[0]) / 3
        assert np.max(np.abs(lead)) < 1e-12

    def test_tangential_identity(self, rng):
        # (nu ^ E) ^ nu = E - (nu . E) nu
        cfg = make_config("0.37")
        coeffs = random_coeffs(rng, k=cfg.k)
        for face in (Face.ONE, Face.TWO):
            nu = corner.face_normal(cfg, face)
            phi = corner.face_phi(cfg, face)
            for r, th in [(0.4, 1.2)] + [(rng.uniform(0.05, 0.6),
                                          rng.uniform(0.1, math.pi - 0.1))
                                         for _ in range(10)]:
                E = swe.eval_field(coeffs, (r, th, phi))
                tang = corner.tangential_projection(coeffs, cfg, face, r, th)
                assert np.max(np.abs(tang - (E - np.dot(nu, E) * nu))) < 1e-13
