import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from conftest import identity_table, make_config, random_coeffs
from edgewave import corner, oracle, swe, vanish
from edgewave.corner import Face, ImpedanceKind, ImpedanceSpec, e_vectors, \
    impedance_residual, tangential_projection, trace_tangential_curl
from edgewave.oracle import FitQualityError, QuadratureSpec, ball_integral, \
    collocation_nullspace, vani_estimate
from edgewave.specfun import assoc_legendre


class TestBallIntegral:
    def test_zero_field(self):
        c = swe.ModeCoefficients(2, 1.0)
        assert ball_integral(c, 0.1) == 0.0

    def test_unit_magnitude_volume(self):
        unit = lambda r, th, ph: np.stack(
            [np.ones(np.broadcast(r, th, ph).shape)] * 3, axis=-1) / math.sqrt(3)
        rho = 0.37
        assert ball_integral(unit, rho) == pytest.approx(
            4 / 3 * math.pi * rho ** 3, rel=1e-6)

    def test_callable_constant_along_the_angles(self):
        # |E| = r, returned without theta or phi axes: every angular node
        # still counts, so the integral is pi rho^4
        radial = lambda r, th, ph: np.stack([r] * 3, axis=-1) / math.sqrt(3)
        rho = 0.5
        assert ball_integral(radial, rho) == pytest.approx(math.pi * rho ** 4,
                                                           rel=1e-12)

    def test_low_degree_scaling(self):
        c = swe.ModeCoefficients(1, 1.0, b={(1, 0): 1.0}, a={(1, 1): 0.4})
        ratio = ball_integral(c, 1e-2) / ball_integral(c, 1e-3)
        assert ratio == pytest.approx(1e3, rel=0.02)

    def test_monotone_in_radius(self, rng):
        c = random_coeffs(rng, lmax=2, k=1.0)
        vals = [ball_integral(c, rho, check_convergence=False)
                for rho in (0.02, 0.05, 0.1, 0.2)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_quadrature_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(radial_nodes=4)

    def test_mc_cross_check(self, rng):
        # a pure degree-2 field: |E| grows like r over the ball, so the
        # sampled radial law counts (a degree-1 |E| is nearly constant)
        c = _decay_like(rng, (2,))
        quad = QuadratureSpec(mc_samples=100000, seed=5)
        g = ball_integral(c, 0.1, quad)
        mc = oracle.ball_integral_mc(c, 0.1, quad)
        assert abs(g - mc) / g < 0.02

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf, -math.inf])
    def test_radius_must_be_finite_and_positive(self, bad):
        c = swe.ModeCoefficients(1, 1.0, b={(1, 0): 1.0})
        with pytest.raises(ValueError, match="finite and positive"):
            ball_integral(c, bad)
        with pytest.raises(ValueError, match="finite and positive"):
            oracle.ball_integral_mc(c, bad, QuadratureSpec(mc_samples=64))

    def test_table_with_a_field_axis_is_refused(self):
        c = swe.ModeCoefficients(1, 1.0, a={(1, 0): np.array([1.0, 2.0])})
        with pytest.raises(ValueError, match=r"single-field table.*\(2,\)"):
            ball_integral(c, 0.1)
        with pytest.raises(ValueError, match=r"single-field table.*\(2,\)"):
            vani_estimate(c)
        with pytest.raises(ValueError, match=r"single-field table.*\(2,\)"):
            oracle.ball_integral_mc(c, 0.1, QuadratureSpec(mc_samples=64))


def _decay_like(rng, degrees, k=1.1):
    def draw():
        return complex(*rng.standard_normal(2))
    modes = [(l, m) for l in degrees for m in range(-l, l + 1)]
    return swe.ModeCoefficients(max(degrees), k, a={lm: draw() for lm in modes},
                                b={lm: draw() for lm in modes})


class TestBallQuadrature:
    """The ball quadrature (radial matrix x angular table) against |E| from
    the pointwise path on the same nodes."""

    RADII = (1e-1, 1e-2, 1e-3)

    @staticmethod
    def _pointwise(field, radii, quad):
        # |E| one point at a time through the mode table, weighted as the
        # tensor-product rule: r^2 dr, d(cos theta), dphi
        nth, nphi = quad.angular_nodes, 2 * quad.angular_nodes
        xr, wr = np.polynomial.legendre.leggauss(quad.radial_nodes)
        xt, wt = np.polynomial.legendre.leggauss(nth)
        phi = 2 * math.pi * np.arange(nphi) / nphi
        mags, vals = [], []
        for rho in radii:
            r = 0.5 * rho * (xr + 1.0)
            grid = np.meshgrid(r, np.arccos(xt), phi, indexing="ij")
            mag = oracle._field_magnitude(field, *(g.ravel() for g in grid))
            mag = mag.reshape(grid[0].shape)
            mags.append(mag.reshape(r.size, -1))
            vals.append(np.einsum("r,rtp,t->", 0.5 * rho * wr * r * r, mag, wt)
                        * 2 * math.pi / nphi)
        return mags, np.array(vals)

    @pytest.mark.parametrize("quad", [QuadratureSpec(), QuadratureSpec(16, 16)],
                             ids=["default", "16-node"])
    @pytest.mark.parametrize("table", ["degrees-5-7", "two-modes", "order-0",
                                       "degree-4"])
    def test_matches_pointwise_path(self, rng, quad, table):
        if table == "degrees-5-7":
            c = _decay_like(rng, (5, 6, 7))
        elif table == "two-modes":
            c = swe.ModeCoefficients(3, 0.9, a={(2, 1): 0.4 - 1j},
                                     b={(3, 2): 1.3 + 0.2j})
        elif table == "order-0":     # one populated order, several degrees
            c = swe.ModeCoefficients(4, 1.2, a={(1, 0): 0.7j, (3, 0): -1.1},
                                     b={(2, 0): 0.5 + 0.5j, (4, 0): 0.9})
        else:                        # one populated degree, every order
            c = _decay_like(rng, (4,))
        mags, ref = self._pointwise(c, self.RADII, quad)
        nth, nphi = quad.angular_nodes, 2 * quad.angular_nodes
        xr, _ = np.polynomial.legendre.leggauss(quad.radial_nodes)
        r = 0.5 * np.asarray(self.RADII)[:, None] * (xr + 1.0)
        theta = np.arccos(np.polynomial.legendre.leggauss(nth)[0])
        phi = 2 * math.pi * np.arange(nphi) / nphi
        for got, want in zip(oracle._ball_magnitudes(c, r, theta, phi), mags):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        np.testing.assert_allclose(oracle._ball_quadrature(c, self.RADII, quad),
                                   ref, rtol=1e-13, atol=0)


class TestVaniEstimate:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_pure_mode_slopes(self, n):
        c = swe.ModeCoefficients(n, 1.0, b={(n, min(1, n)): 1.0}, a={(n, 0): 0.3})
        est = vani_estimate(c)
        assert est.slope == pytest.approx(n + 2, abs=0.1)
        assert est.estimated_order == n - 1
        assert est.r_squared > 0.999

    def test_requires_enough_radii(self):
        c = swe.ModeCoefficients(1, 1.0, b={(1, 0): 1.0})
        with pytest.raises(ValueError):
            vani_estimate(c, radii=(0.1, 0.05, 0.02))

    @pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf, -math.inf])
    def test_radii_must_be_finite_and_positive(self, bad):
        c = swe.ModeCoefficients(1, 1.0, b={(1, 0): 1.0})
        with pytest.raises(ValueError, match="finite and positive"):
            vani_estimate(c, radii=(0.1, 0.03, 0.01, 1e-3, bad))

    @pytest.mark.parametrize("l0", [1, 2, 3, 4, 5])
    def test_batched_radii_match_ball_integrals(self, rng, l0):
        # fields like the decay benchmark's: every mode of degrees l0..l0+2
        def draw():
            return complex(*rng.standard_normal(2))
        modes = [(l, m) for l in range(l0, l0 + 3) for m in range(-l, l + 1)]
        c = swe.ModeCoefficients(l0 + 2, rng.uniform(0.5, 3.0),
                                 a={lm: draw() for lm in modes},
                                 b={lm: draw() for lm in modes})
        radii = (3e-3, 1e-1, 1e-3, 3e-2, 1e-2)
        coarse = QuadratureSpec(radial_nodes=16, angular_nodes=16)
        results = []
        for quad in (None, coarse):
            est = vani_estimate(c, radii=radii, quad=quad)
            assert est.radii == tuple(sorted(radii, reverse=True))
            ref = [ball_integral(c, rho, quad=quad, check_convergence=False)
                   for rho in est.radii]
            np.testing.assert_allclose(est.integrals, ref, rtol=1e-14, atol=0)
            results.append(est.integrals)
        assert results[0] != results[1]   # the quadrature spec is honoured

    @pytest.mark.parametrize("coeffs", [
        swe.ModeCoefficients(2, 1.0),
        swe.ModeCoefficients(5, 1.0, b={(5, 0): 1e-300})], ids=["zero", "underflow"])
    def test_vanishing_integrals_are_refused(self, coeffs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitQualityError, match="zero or underflows"):
                vani_estimate(coeffs)

    def test_nan_fit_fails_the_gate(self, monkeypatch):
        monkeypatch.setattr(oracle.np, "polyfit",
                            lambda x, y, deg: (math.nan, math.nan))
        c = swe.ModeCoefficients(1, 1.0, b={(1, 0): 1.0})
        with pytest.raises(FitQualityError, match="R\\^2 = nan"):
            vani_estimate(c)

    def test_lowest_populated_degree_wins(self):
        # mixed degrees: the lowest populated degree sets the order
        c = swe.ModeCoefficients(3, 1.0, b={(2, 1): 1.0, (3, 2): 5.0})
        est = vani_estimate(c)
        assert est.estimated_order == 1

    def test_nullspace_field_order(self):
        # coefficients from the nullspace of the order-3 system at alpha = 1/3
        # give a field vanishing at least to order 2
        cfg = make_config("1/3")
        system = vanish.assemble_order_system(3, cfg)
        basis = vanish.nullspace_basis(system)
        assert basis.shape[1] == 2
        vec = basis[:, 0]
        a = {(3, m): vec[i] for i, (fam, m) in enumerate(system.columns)
             if fam == "a"}
        b = {(3, m): vec[i] for i, (fam, m) in enumerate(system.columns)
             if fam == "b"}
        c = swe.ModeCoefficients(3, cfg.k, a=a, b=b)
        est = vani_estimate(c)
        assert est.estimated_order >= 2


class TestCollocation:
    def test_irrational_proxy_trivial(self):
        cfg = make_config(repr(1 / math.sqrt(2)))
        assert collocation_nullspace(1, cfg) == 0

    def test_half_degenerate(self):
        cfg = make_config("1/2")
        assert collocation_nullspace(1, cfg) >= 1

    def test_pecpmc_matches_structured(self):
        cfg = make_config("1/4", case="pec-pmc")
        system = vanish.assemble_order_system(2, cfg)
        assert collocation_nullspace(2, cfg) == vanish.nullspace_dim(system)

    @pytest.mark.parametrize("n", [1, 4])
    def test_radial_fit_is_least_squares(self, rng, n):
        # the cached pseudo-inverse gives lstsq's cubic, and a sample off the
        # cubic trips the residual guard
        radii = 2e-3 * 0.5 ** np.arange(5)
        h = radii[0]
        V = np.vander(radii / h, 4, increasing=True)
        coef = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        noise = 1e-9 * (rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6)))
        g = V @ coef + noise
        values = g * radii[:, None] ** (n - 1)
        lead = oracle._radial_coefficients(values, radii, n, orders=(0, 1, 3))
        best = np.linalg.lstsq(V, g, rcond=None)[0]
        for j, got in zip((0, 1, 3), lead):
            np.testing.assert_allclose(got * h ** j, best[j], rtol=0, atol=1e-12)
        values[2, 4] += 1e-3 * np.abs(values[:, 4]).max()
        with pytest.raises(oracle.ExtrapolationError, match="radial fit residual"):
            oracle._radial_coefficients(values, radii, n)

    @pytest.mark.parametrize("dtype", [complex, float])
    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_radial_fit_scales_to_the_bit(self, rng, n, dtype):
        # the coefficients of the quotient values / r^(n-1), exactly: complex
        # samples are scaled by the reciprocal, real ones divided
        radii = 2e-3 * 0.5 ** np.arange(5)
        V, pinv = oracle._cubic_fit(tuple((radii / radii[0]).tolist()))
        coef = rng.standard_normal((4, 21)).astype(dtype)
        if dtype is complex:
            coef += 1j * rng.standard_normal((4, 21))
        values = (V @ coef).reshape(5, 3, 7) * radii[:, None, None] ** (n - 1)
        g = values / radii[:, None, None] ** (n - 1)
        want = (pinv @ g.reshape(5, -1))[0].reshape(3, 7)
        got = oracle._radial_coefficients(values, radii, n)[0]
        np.testing.assert_array_equal(got, want)

    def test_seed_reproducible(self):
        cfg = make_config("1/3")
        assert (collocation_nullspace(2, cfg, seed=7)
                == collocation_nullspace(2, cfg, seed=7))

    @pytest.mark.parametrize("alpha,case", [
        ("1/3", "imp-imp"), ("2/5", "imp-imp"), ("1/2", "imp-imp"),
        ("1/4", "pec-pmc"), ("1/5", "imp-pec"), ("2/3", "imp-pmc"),
        ("0.6180339887", "pec-pmc"), ("2/9", "pec-pmc"),
        ("1/2", "imp-pec"), ("3/2", "imp-pec"), ("1/2", "imp-pmc"),
    ])
    def test_cross_oracle_by_case(self, alpha, case):
        # every order the crosscheck reaches: pec-pmc rows weighted by c_n^m
        # meet unit rows at n = 8..10, and the mixed cases at 1/2 and 3/2
        # reflect onto the flat angle, where the face-2 rows carry sin(pi)
        cfg = make_config(alpha, case=case, eta1=1.1 - 0.3j, eta2=0.8 + 0.5j, k=1.2)
        for n in range(1, 11):
            structured = vanish.nullspace_dim(vanish.assemble_order_system(n, cfg))
            assert collocation_nullspace(n, cfg) == structured


    @pytest.mark.parametrize("case", ["imp-imp", "pec-pmc", "imp-pec", "imp-pmc"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_one_field_evaluation_per_query(self, monkeypatch, case, n):
        # both faces' rows, or the head row at n = 1, share one mode table
        cfg = make_config("0.37", case=case, eta1=1.1 - 0.3j, eta2=0.8 + 0.5j,
                          k=1.2)
        calls = []
        inner = oracle._mode_table

        def counted(*args, **kwargs):
            calls.append(args[4].size)
            return inner(*args, **kwargs)
        monkeypatch.setattr(oracle, "_mode_table", counted)
        collocation_nullspace(n, cfg)
        faces = 1 if n == 1 and case != "pec-pmc" else 2
        ntheta = max(4, math.ceil(4 * (2 * n + 1) / 5))
        assert calls == [faces * 5 * ntheta]     # five radii

    @pytest.mark.parametrize("case", ["imp-imp", "pec-pmc"])
    @pytest.mark.parametrize("n", [80, 85])
    def test_underflowing_radial_power_refused(self, case, n):
        # r^{n-1} underflows on the collocation radii, so the scaled samples
        # are not finite: refused before they reach the fit and the SVD
        with pytest.raises(oracle.ExtrapolationError, match="not finite"):
            collocation_nullspace(n, make_config("1/3", case=case))

    @pytest.mark.parametrize("case", ["imp-imp", "pec-pmc"])
    @pytest.mark.parametrize("n", [0, vanish.MAX_ORDER + 1])
    def test_order_outside_the_cap_refused(self, case, n):
        # as assemble_order_system does; past the cap the sampled rows earlier
        # raised IndexError (pec-pmc) or ExtrapolationError (imp-imp)
        cfg = make_config("1/3", case=case)
        message = re.escape(f"order must be in 1..{vanish.MAX_ORDER}, got {n}")
        for build in (collocation_nullspace, vanish.assemble_order_system):
            with pytest.raises(ValueError, match=message):
                build(n, cfg)

    @pytest.mark.parametrize("case", ["imp-imp", "imp-pec"])
    @pytest.mark.parametrize("alpha", ["1/13", "1/3", "2/5", "0.37", "3/7", "1/4"])
    def test_variable_impedance_matches_structured(self, alpha, case):
        # eta = eta0 + (0.5 cos theta + 0.2i) r + sin^2 theta r^2 on every
        # series face: the sampled residuals see all of it, the structured
        # rows only eta0, since eta_j r^j acts past the r^{n-1} coefficient
        cfg = make_config(alpha, case=case, eta1=1.1 - 0.3j, eta2=0.8 + 0.5j,
                          k=1.2)
        higher = (lambda th: 0.5 * np.cos(th) + 0.2j, lambda th: np.sin(th) ** 2)

        def variable(spec):
            if spec.kind != ImpedanceKind.SERIES:
                return spec
            return ImpedanceSpec.series(spec.eta0, higher=higher)
        cfg = dataclasses.replace(cfg, bc1=variable(cfg.bc1), bc2=variable(cfg.bc2))
        for n in range(1, 8):
            structured = vanish.nullspace_dim(vanish.assemble_order_system(n, cfg))
            assert collocation_nullspace(n, cfg) == structured


def _unit_fields(n, k):
    """The order-n unit fields one by one, in the assembler's column order."""
    return [swe.ModeCoefficients(n, k, **{fam: {(n, m): 1.0}})
            for fam, m in vanish.column_labels(n)]


def _reference_rows(n, config, thetas, radii, orders):
    # one impedance_residual call per unit field and face
    r, th = radii[:, None], thetas[None, :]
    rows = []
    for face, spec in ((Face.ONE, config.bc1), (Face.TWO, config.bc2)):
        per_field = [oracle._radial_coefficients(
            impedance_residual(unit, config, face, spec, r, th)[..., None],
            radii, n, orders) for unit in _unit_fields(n, config.k)]
        for j in range(len(orders)):
            rows.append(np.stack([pf[j][..., 0] for pf in per_field], axis=-1)
                        .reshape(-1, len(per_field)))
    return np.concatenate(rows, axis=0)


def _reference_head_row(n, config, thetas, radii):
    r, th = radii[:, None], thetas[None, :]
    e2 = e_vectors(thetas, 0.0)[1]
    cols = []
    for unit in _unit_fields(n, config.k):
        res = (-trace_tangential_curl(unit, config, Face.ONE, r, th)
               + config.bc1.eta0 * tangential_projection(unit, config, Face.ONE,
                                                         r, th))
        lead = oracle._radial_coefficients(res[..., None], radii, n)[0][..., 0]
        cols.append(np.sum(lead * e2, axis=-1))
    basis = np.stack([assoc_legendre(n, mu, np.cos(thetas))
                      for mu in range(n + 1)], axis=-1)
    return np.linalg.lstsq(basis, np.stack(cols, axis=-1), rcond=None)[0][0]


class TestBatchedCollocationRows:
    """The one-table collocation rows against one unit field at a time."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("case", ["imp-imp", "pec-pmc", "imp-pec", "imp-pmc"])
    def test_columns_match_single_fields(self, case, n, rng):
        cfg = make_config("0.37", case=case, eta1=1.1 - 0.3j, eta2=0.8 + 0.5j,
                          k=1.2)
        if case in ("imp-pec", "imp-pmc"):
            cfg = vanish.effective_config(cfg)[1]
        thetas = rng.uniform(0.15, math.pi - 0.15, 6)
        radii = 2e-3 * 0.5 ** np.arange(5)
        rows = oracle._sample_rows_true(n, cfg, thetas, radii, (0, 1))
        ref = _reference_rows(n, cfg, thetas, radii, (0, 1))
        assert rows.shape == ref.shape == (2 * 2 * 6 * 3, 2 * (2 * n + 1))
        for col in range(rows.shape[1]):
            scale = np.max(np.abs(ref[:, col]))
            assert scale > 0
            np.testing.assert_allclose(rows[:, col], ref[:, col], rtol=0,
                                       atol=1e-12 * scale)
        if case != "pec-pmc":
            head = oracle._sampled_head_row(n, cfg, thetas, radii)
            ref = _reference_head_row(n, cfg, thetas, radii)
            np.testing.assert_allclose(head, ref, rtol=0,
                                       atol=1e-12 * np.max(np.abs(ref)))


def _collocated_rows(monkeypatch, n, cfg):
    """The rows collocation_nullspace passes to nullspace_dim, and its rank."""
    seen, inner = [], oracle.nullspace_dim

    def captured(rows, *args, **kwargs):
        seen.append(rows)
        return inner(rows, *args, **kwargs)
    monkeypatch.setattr(oracle, "nullspace_dim", captured)
    rank = collocation_nullspace(n, cfg)
    return seen.pop(), rank


class TestUnitColumnGather:
    """Collocation reads its basis fields as columns of one mode table."""

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 30])
    @pytest.mark.parametrize("case, alpha", [
        ("imp-imp", "0.37"), ("pec-pmc", "0.37"), ("imp-pec", "0.37"),
        ("imp-pmc", "0.37"), ("imp-pec", "1/2")])
    def test_rows_equal_the_identity_table_path(self, monkeypatch, case,
                                                alpha, n):
        cfg = make_config(alpha, case=case, eta1=1.1 - 0.3j, eta2=0.7 - 0.2j,
                          k=1.2)
        rows, rank = _collocated_rows(monkeypatch, n, cfg)

        def table_path(n, config, faces, r, theta):
            return corner._table_fields(identity_table(n, config.k), config,
                                        faces, r, theta)
        monkeypatch.setattr(oracle, "_unit_face_fields", table_path)
        ref, ref_rank = _collocated_rows(monkeypatch, n, cfg)
        assert rows.shape == ref.shape and np.array_equal(rows, ref)
        assert rank == ref_rank

    @pytest.mark.parametrize("case", ["imp-imp", "pec-pmc", "imp-pec", "imp-pmc"])
    def test_no_coefficient_table_is_evaluated(self, monkeypatch, case):
        cfg = make_config("0.37", case=case, eta1=1.1 - 0.3j, eta2=0.8 + 0.5j,
                          k=1.2)
        ranks = [collocation_nullspace(n, cfg) for n in (1, 2, 10)]

        def refuse(*args, **kwargs):
            raise AssertionError("a coefficient table was evaluated")
        for method in ("__init__", "with_curl"):
            monkeypatch.setattr(swe.ModeCoefficients, method, refuse)
        for module in (swe, corner, oracle):
            monkeypatch.setattr(module, "_spherical_components", refuse)
        assert [collocation_nullspace(n, cfg) for n in (1, 2, 10)] == ranks
