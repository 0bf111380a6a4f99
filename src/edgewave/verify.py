"""Named invariant suites behind the `verify` command.

Each suite is a list of (name, callable) pairs; a check returns a detail
string on success and raises AssertionError (or any exception) on failure.
Randomized checks draw from a seeded generator so runs are reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from . import angles, corner, oracle, specfun, swe, vanish


def _rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# specfun
# ---------------------------------------------------------------------------

def check_dtheta_recursion(seed=42):
    """theta-derivative recursion vs a five-point central difference.

    Compared on the unit-normalized scale (the raw P_l^m reach ~1e8 at
    l = m = 10, where no finite difference resolves 1e-8 absolutely).  The
    O(h^4) stencil at h = 3e-4 keeps both truncation and rounding near 1e-10;
    a two-point difference at h = 1e-6 loses ~1e-8 to rounding alone.
    """
    rng = _rng(seed)
    worst = 0.0
    h = 3e-4
    for _ in range(50):
        theta = rng.uniform(0.01, math.pi - 0.01)
        l = int(rng.integers(1, 11))
        m = int(rng.integers(0, l + 1))
        scale = swe.norm_constant(l, m)
        p = [specfun.assoc_legendre(l, m, math.cos(theta + j * h))
             for j in (-2, -1, 1, 2)]
        fd = scale * (p[0] - 8 * p[1] + 8 * p[2] - p[3]) / (12 * h)
        worst = max(worst, abs(scale * specfun.legendre_dtheta(l, m, theta) - fd))
    assert worst < 1e-8, f"worst abs error {worst:.2e}"
    return f"worst abs error {worst:.2e}"


def check_over_sin_recursion(seed=43):
    """m/sin recursion vs the direct quotient."""
    rng = _rng(seed)
    worst = 0.0
    for _ in range(50):
        theta = rng.uniform(0.01, math.pi - 0.01)
        l = int(rng.integers(1, 11))
        m = int(rng.integers(1, l + 1))
        scale = swe.norm_constant(l, m)
        direct = m * specfun.assoc_legendre(l, m, math.cos(theta)) / math.sin(theta)
        worst = max(worst,
                    scale * abs(specfun.legendre_over_sin(l, m, theta) - direct))
    assert worst < 1e-8, f"worst abs error {worst:.2e}"
    return f"worst abs error {worst:.2e}"


def check_negative_order():
    worst = 0.0
    for n in range(1, 11):
        for m in range(1, n + 1):
            for x in (-0.7, 0.1, 0.9):
                lhs = specfun.assoc_legendre(n, -m, x)
                rhs = ((-1) ** m * specfun.factorial(n - m)
                       / specfun.factorial(n + m) * specfun.assoc_legendre(n, m, x))
                scale = max(abs(rhs), 1e-300)
                worst = max(worst, abs(lhs - rhs) / scale)
    assert worst < 1e-12, f"worst rel error {worst:.2e}"
    return f"worst rel error {worst:.2e}"


def check_legendre_at_one():
    for l in range(0, 9):
        assert specfun.assoc_legendre(l, 0, 1.0) == 1.0
        for m in range(1, l + 1):
            assert specfun.assoc_legendre(l, m, 1.0) == 0.0
    return "P_l^0(1) = 1 and P_l^m(1) = 0 for m >= 1, l <= 8"


def check_bessel_recurrences():
    """Recurrence identities, and anchors that hold independently of them.

    bessel_table is built from these recurrences, so they hold almost by
    construction.  The anchors do not: the closed forms of j_0, j_1, j_2
    (measured against their largest term, since they cancel near t = 0) and
    the sum rule sum_l (2l+1) j_l(t)^2 = 1 on a table reaching l = 60, far
    above every t here.
    """
    worst = 0.0
    for l in range(1, 13):
        for t in (0.1, 1.0, 5.0, 10.0):
            j = specfun.sph_bessel(l, t)
            jm, jp = specfun.sph_bessel(l - 1, t), specfun.sph_bessel(l + 1, t)
            r1 = abs(j / t - (jm + jp) / (2 * l + 1))
            r2 = abs(specfun.sph_bessel_deriv(l, t)
                     - (l * jm - (l + 1) * jp) / (2 * l + 1))
            scale = max(abs(j), abs(jm), 1e-30)
            worst = max(worst, r1 / scale, r2 / scale)
    for t in (0.1, 1.0, 5.0, 10.0):
        s, c = math.sin(t), math.cos(t)
        closed = ((s / t,), (s / t ** 2, -c / t),
                  (3 * s / t ** 3, -s / t, -3 * c / t ** 2))
        j = specfun.bessel_table(60, t)
        for l, terms in enumerate(closed):
            worst = max(worst, abs(math.fsum(terms) - j[l])
                        / max(abs(x) for x in terms))
        worst = max(worst, abs(float(np.sum((2 * np.arange(61) + 1) * j * j)) - 1))
    assert worst < 1e-12, f"worst rel error {worst:.2e}"
    return f"worst rel error {worst:.2e}"


def check_orthogonality_table():
    worst = 0.0
    for n in range(1, 7):
        for m in range(1, n + 1):
            ref = specfun.orthogonality_closed_form(n, m)
            worst = max(worst, abs(specfun.orthogonality_integral(n, m, m) - ref)
                        / ref)
            for l in range(1, n + 1):
                if l != m:
                    worst = max(worst,
                                abs(specfun.orthogonality_integral(n, m, l)) / ref)
    assert worst < 1e-5, f"worst rel error {worst:.2e}"
    return f"worst rel error {worst:.2e}"


# ---------------------------------------------------------------------------
# swe
# ---------------------------------------------------------------------------

def _random_coeffs(rng, lmax=3, k=1.3):
    a = {(l, m): complex(*rng.standard_normal(2))
         for l in range(1, lmax + 1) for m in range(-l, l + 1)}
    b = {(l, m): complex(*rng.standard_normal(2))
         for l in range(1, lmax + 1) for m in range(-l, l + 1)}
    return swe.ModeCoefficients(lmax, k, a=a, b=b)


def _fd_curl(coeffs, x, h=1e-4):
    J = np.zeros((3, 3), dtype=complex)
    for j in range(3):
        d = np.zeros(3)
        d[j] = h
        J[:, j] = (swe.eval_field(coeffs, x + d) - swe.eval_field(coeffs, x - d)) / (2 * h)
    return np.array([J[2, 1] - J[1, 2], J[0, 2] - J[2, 0], J[1, 0] - J[0, 1]])


def _fd_div(coeffs, x, h=1e-4):
    out = 0.0 + 0j
    for j in range(3):
        d = np.zeros(3)
        d[j] = h
        out += (swe.eval_field(coeffs, x + d)[j] - swe.eval_field(coeffs, x - d)[j]) / (2 * h)
    return out


def check_frame_orthonormal(seed=44):
    rng = _rng(seed)
    worst = 0.0
    for _ in range(30):
        th, ph = rng.uniform(0.01, math.pi - 0.01), rng.uniform(0, 2 * math.pi)
        V = np.stack(swe.unit_frame(th, ph))
        worst = max(worst, float(np.max(np.abs(V @ V.T - np.eye(3)))))
        worst = max(worst, float(np.max(np.abs(np.cross(V[1], V[2]) - V[0]))))
    assert worst < 1e-14, f"worst deviation {worst:.2e}"
    return f"worst deviation {worst:.2e}"


def check_curl_identities(seed=45):
    """curl M = -ik N and curl N = ik M under finite differences."""
    rng = _rng(seed)
    k = 1.3
    worst = 0.0
    for l in range(1, 5):
        m = int(rng.integers(-l, l + 1))
        x = rng.uniform(0.2, 0.5, 3)
        pt = swe.SphericalPoint.from_cartesian(x)
        M, N = swe.vector_modes(l, m, pt, k)
        ca = _fd_curl(swe.ModeCoefficients(l, k, a={(l, m): 1.0}), x)
        cb = _fd_curl(swe.ModeCoefficients(l, k, b={(l, m): 1.0}), x)
        worst = max(worst, np.linalg.norm(ca + 1j * k * N) / np.linalg.norm(N))
        worst = max(worst, np.linalg.norm(cb - 1j * k * M) / np.linalg.norm(M))
    assert worst < 1e-5, f"worst rel error {worst:.2e}"
    return f"worst rel error {worst:.2e}"


def check_divergence_free(seed=46):
    rng = _rng(seed)
    k = 1.1
    worst = 0.0
    for l in range(1, 4):
        m = int(rng.integers(-l, l + 1))
        x = rng.uniform(0.2, 0.5, 3)
        for fam in "ab":
            c = swe.ModeCoefficients(l, k, **{fam: {(l, m): 1.0}})
            mag = np.linalg.norm(swe.eval_field(c, x))
            worst = max(worst, abs(_fd_div(c, x)) / mag)
    assert worst < 1e-5, f"worst rel error {worst:.2e}"
    return f"worst rel error {worst:.2e}"


def check_field_linearity(seed=47):
    rng = _rng(seed)
    c1, c2 = _random_coeffs(rng), _random_coeffs(rng)
    x = np.array([0.21, -0.13, 0.32])
    lhs = swe.eval_field(c1 + c2, x)
    rhs = swe.eval_field(c1, x) + swe.eval_field(c2, x)
    err = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
    assert err < 1e-13, f"rel error {err:.2e}"
    return f"rel error {err:.2e}"


def check_truncation_consistency(seed=48):
    rng = _rng(seed)
    k = 1.3
    a = {(l, m): complex(*rng.standard_normal(2))
         for l in range(1, 4) for m in range(-l, l + 1)}
    small = swe.ModeCoefficients(3, k, a=a)
    large = swe.ModeCoefficients(8, k, a=a)
    x = np.array([0.3, 0.1, -0.2])
    err = np.linalg.norm(swe.eval_field(small, x) - swe.eval_field(large, x))
    assert err == 0.0, f"difference {err:.2e}"
    return "exact agreement under padding"


def check_roundtrip_serialization(seed=49):
    rng = _rng(seed)
    c = _random_coeffs(rng)
    back = swe.ModeCoefficients.from_text(c.to_text())
    assert back == c
    return "text round-trip exact"


# ---------------------------------------------------------------------------
# corner
# ---------------------------------------------------------------------------

def _config(alpha="0.37", eta1=1.0, eta2=1.0, k=1.3):
    return vanish.config_for_case(vanish.CaseKind.IMP_IMP, angles.parse_angle(alpha),
                                  eta1, eta2, k)


def check_trace_vs_cross_product(seed=50):
    rng = _rng(seed)
    cfg = _config()
    coeffs = _random_coeffs(rng, k=cfg.k)
    worst = 0.0
    for face in (corner.Face.ONE, corner.Face.TWO):
        nu = corner.face_normal(cfg, face)
        phi = corner.face_phi(cfg, face)
        for _ in range(10):
            r, th = rng.uniform(0.05, 0.6), rng.uniform(0.1, math.pi - 0.1)
            E = swe.eval_field(coeffs, (r, th, phi))
            tr = corner.trace_tangential_E(coeffs, cfg, face, r, th)
            worst = max(worst, np.linalg.norm(np.cross(nu, E) - tr)
                        / np.linalg.norm(E))
    assert worst < 1e-10, f"worst rel error {worst:.2e}"
    return f"worst rel error {worst:.2e}"


def check_curl_trace_vs_fd(seed=51):
    rng = _rng(seed)
    cfg = _config()
    coeffs = _random_coeffs(rng, lmax=2, k=cfg.k)
    worst = 0.0
    for face in (corner.Face.ONE, corner.Face.TWO):
        nu = corner.face_normal(cfg, face)
        phi = corner.face_phi(cfg, face)
        for _ in range(4):
            r, th = rng.uniform(0.1, 0.5), rng.uniform(0.3, math.pi - 0.3)
            x = swe.SphericalPoint(r, th, phi).to_cartesian()
            C = _fd_curl(coeffs, x)
            tr = corner.trace_tangential_curl(coeffs, cfg, face, r, th)
            worst = max(worst, np.linalg.norm(np.cross(nu, C) - tr)
                        / np.linalg.norm(C))
    assert worst < 1e-5, f"worst rel error {worst:.2e}"
    return f"worst rel error {worst:.2e}"


def check_residual_composition(seed=52):
    rng = _rng(seed)
    cfg = _config(eta1=0.8 - 0.4j)
    coeffs = _random_coeffs(rng, k=cfg.k)
    r, th = 0.3, 1.1
    res = corner.impedance_residual(coeffs, cfg, corner.Face.ONE, cfg.bc1, r, th)
    comp = (corner.trace_tangential_curl(coeffs, cfg, corner.Face.ONE, r, th)
            + cfg.bc1.eta0 * corner.tangential_projection(coeffs, cfg,
                                                          corner.Face.ONE, r, th))
    err = np.linalg.norm(res - comp)
    assert err < 1e-12, f"difference {err:.2e}"
    return f"difference {err:.2e}"


def check_tangential_identity(seed=53):
    """(nu ^ E) ^ nu = E - (nu . E) nu on both faces."""
    rng = _rng(seed)
    cfg = _config()
    coeffs = _random_coeffs(rng, k=cfg.k)
    worst = 0.0
    for face in (corner.Face.ONE, corner.Face.TWO):
        nu = corner.face_normal(cfg, face)
        phi = corner.face_phi(cfg, face)
        for _ in range(10):
            r, th = rng.uniform(0.05, 0.6), rng.uniform(0.1, math.pi - 0.1)
            E = swe.eval_field(coeffs, (r, th, phi))
            direct = np.cross(np.cross(nu, E), nu)
            ident = E - np.dot(nu, E) * nu
            tang = corner.tangential_projection(coeffs, cfg, face, r, th)
            worst = max(worst, float(np.max(np.abs(direct - ident))))
            worst = max(worst, float(np.max(np.abs(direct - tang))))
    assert worst < 1e-13, f"worst deviation {worst:.2e}"
    return f"worst deviation {worst:.2e}"


def check_e_vectors(seed=54):
    rng = _rng(seed)
    worst = 0.0
    for _ in range(100):
        th, ph = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        e1, e2 = corner.e_vectors(th, ph)
        worst = max(worst, abs(np.linalg.norm(e1) - 1), abs(np.linalg.norm(e2) - 1),
                    abs(np.dot(e1, e2)))
    assert worst < 1e-14, f"worst deviation {worst:.2e}"
    return f"worst deviation {worst:.2e}"


def check_edge_table():
    cfg = _config("0.41")
    tab = corner.edge_vector_table(cfg)
    nu2 = corner.face_normal(cfg, corner.Face.TWO)
    rhat, that, phat = swe.unit_frame(0.0, 0.0)
    worst = max(
        float(np.max(np.abs(np.cross(nu2, rhat) - tab["cross_r"]))),
        float(np.max(np.abs(np.cross(nu2, that) - tab["cross_theta"]))),
        float(np.max(np.abs(np.cross(nu2, phat) - tab["cross_phi"]))),
        abs(np.dot(nu2, rhat) - tab["dot_r"]),
        abs(np.dot(nu2, that) - tab["dot_theta"]),
        abs(np.dot(nu2, phat) - tab["dot_phi"]))
    assert worst < 1e-15, f"worst deviation {worst:.2e}"
    return f"worst deviation {worst:.2e}"


# ---------------------------------------------------------------------------
# vanish
# ---------------------------------------------------------------------------

def check_closed_vs_numeric_dets(seed=55):
    rng = _rng(seed)
    worst = 0.0
    for _ in range(5):
        alpha = float(rng.uniform(0.06, 0.94))
        cfg = _config(repr(alpha), complex(*rng.standard_normal(2)),
                      complex(*rng.standard_normal(2)), float(rng.uniform(0.5, 2)))
        for n in range(1, 11):
            system = vanish.assemble_order_system(n, cfg)
            ca, cb = vanish.closed_det_A(n, cfg), vanish.closed_det_B(n, cfg)
            worst = max(worst,
                        abs(np.linalg.det(system.block_A) - ca) / abs(ca),
                        abs(np.linalg.det(system.block_B) - cb) / abs(cb))
    assert worst < 1e-10, f"worst rel error {worst:.2e}"
    return f"worst rel error {worst:.2e}"


def check_bound_monotonicity(seed=56):
    rng = _rng(seed)
    from fractions import Fraction
    checked = 0
    for _ in range(20):
        p = int(rng.integers(2, 13))
        q = int(rng.integers(1, 2 * p))
        fr = Fraction(q, p)
        if fr == 1:
            continue
        alpha = f"{fr.numerator}/{fr.denominator}"
        for case, cfg in _case_configs(alpha, rng):
            report = vanish.vanishing_order(cfg, 6)
            tb = report.theorem_bound
            if tb != vanish.INFINITE:
                assert report.order_lower_bound >= min(tb, 6), \
                    f"alpha={alpha} case={case}: {report.order_lower_bound} < {tb}"
            checked += 1
    return f"{checked} rational configurations, bound >= grid bound"


def _case_configs(alpha, rng):
    a = angles.parse_angle(alpha)
    e = complex(*rng.standard_normal(2))
    e2 = complex(*rng.standard_normal(2))
    k = float(rng.uniform(0.5, 2.0))
    return [(case.value, vanish.config_for_case(case, a, e, e2, k))
            for case in vanish.CaseKind
            if case != vanish.CaseKind.IMP_PMC or a.value < 1]


def check_reflection_reduction():
    cfg_mixed = vanish.config_for_case(vanish.CaseKind.IMP_PEC,
                                       angles.parse_angle("1/5"), None,
                                       1.3 + 0.2j, 1.1)
    cfg_direct = _config("2/5", 1.3 + 0.2j, 1.3 + 0.2j, 1.1)
    for n in range(1, 5):
        s_ref = vanish.assemble_order_system(n, cfg_mixed)
        s_dir = vanish.assemble_order_system(n, cfg_direct)
        assert np.allclose(s_ref.rows, s_dir.rows, atol=1e-15)
        assert vanish.nullspace_dim(s_ref) == vanish.nullspace_dim(s_dir)
    return "reflected system equals the doubled-angle system, n <= 4"


def check_cascade_backsubstitution(seed=57):
    """At trivial-nullspace orders the 2x2 cascade reproduces zeros."""
    cfg = _config("0.37", 1.0 - 0.5j, 2.0, 1.2)
    for n in (2, 3, 4):
        system = vanish.assemble_order_system(n, cfg)
        assert vanish.nullspace_dim(system) == 0
        phase = system.alpha.value * math.pi
        for m in range(2, n + 1):
            blk = np.array([[1.0, 1.0],
                            [np.exp(1j * m * phase), np.exp(-1j * m * phase)]])
            det = np.linalg.det(blk)
            ref = vanish.block_det(m, system.alpha, "sin")
            assert abs(det - ref) < 1e-12
            sol = np.linalg.solve(blk, np.zeros(2))
            assert np.max(np.abs(sol)) <= 1e-10
    return "cascade blocks nonsingular and solve to zero, n <= 4"


def check_rank_scaling_invariance(seed=58):
    rng = _rng(seed)
    cfg = _config("1/3")
    for n in (1, 3):
        system = vanish.assemble_order_system(n, cfg)
        base = vanish.nullspace_dim(system)
        scale = complex(*rng.standard_normal(2))
        scaled = vanish.nullspace_dim(system.rows * scale)
        assert base == scaled
    return "nullspace dimension invariant under row scaling"


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def check_cross_oracle(seed=59):
    rng = _rng(seed)
    cases = [("0.7071067811865475", "imp-imp"), ("1/2", "imp-imp"),
             ("1/3", "imp-imp"), ("1/4", "pec-pmc"), ("1/5", "imp-pec"),
             ("0.6180339887", "pec-pmc"), ("2/3", "imp-pmc"),
             ("2/5", "imp-imp"), ("0.37", "imp-imp"), ("1/3", "pec-pmc")]
    lines = []
    for alpha, case in cases:
        cfg = dict(_case_configs(alpha, rng))[case]
        for n in range(1, 11):
            ds = vanish.nullspace_dim(vanish.assemble_order_system(n, cfg))
            dc = oracle.collocation_nullspace(n, cfg, seed=seed)
            assert ds == dc, f"{alpha} {case} n={n}: {ds} != {dc}"
        lines.append(f"{alpha}:{case}")
    return f"exact agreement, n <= 10, configs: {', '.join(lines)}"


def check_vani_pure_modes():
    for n in range(1, 6):
        c = swe.ModeCoefficients(n, 1.0, b={(n, min(1, n)): 1.0},
                                 a={(n, 0): 0.3})
        est = oracle.vani_estimate(c)
        assert abs(est.slope - (n + 2)) < 0.1, f"l={n}: slope {est.slope}"
        assert est.estimated_order == n - 1
    return "slope n+2 and order n-1 for pure degree-n fields, n <= 5"


def check_ball_monotone(seed=60):
    rng = _rng(seed)
    c = _random_coeffs(rng, lmax=2, k=1.0)
    vals = [oracle.ball_integral(c, rho, check_convergence=False)
            for rho in (0.02, 0.05, 0.1, 0.2)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    return "integral increasing in the radius"


def check_ball_mc_agreement(seed=61):
    rng = _rng(seed)
    c = _random_coeffs(rng, lmax=1, k=1.0)
    quad = oracle.QuadratureSpec(mc_samples=200000, seed=seed)
    g = oracle.ball_integral(c, 0.1, quad)
    mc = oracle.ball_integral_mc(c, 0.1, quad)
    rel = abs(g - mc) / g
    assert rel < 0.02, f"MC vs quadrature rel diff {rel:.3f}"
    return f"MC vs quadrature rel diff {rel:.4f}"


SUITES = {
    "specfun": [
        ("dtheta-recursion-vs-fd", check_dtheta_recursion),
        ("over-sin-recursion-vs-quotient", check_over_sin_recursion),
        ("negative-order-relation", check_negative_order),
        ("legendre-values-at-one", check_legendre_at_one),
        ("bessel-recurrences", check_bessel_recurrences),
        ("orthogonality-table", check_orthogonality_table),
    ],
    "swe": [
        ("frame-orthonormal", check_frame_orthonormal),
        ("curl-identities", check_curl_identities),
        ("divergence-free", check_divergence_free),
        ("field-linearity", check_field_linearity),
        ("truncation-consistency", check_truncation_consistency),
        ("serialization-roundtrip", check_roundtrip_serialization),
    ],
    "corner": [
        ("trace-vs-cross-product", check_trace_vs_cross_product),
        ("curl-trace-vs-fd", check_curl_trace_vs_fd),
        ("residual-composition", check_residual_composition),
        ("tangential-identity", check_tangential_identity),
        ("e-vectors-orthonormal", check_e_vectors),
        ("edge-vector-table", check_edge_table),
    ],
    "vanish": [
        ("closed-vs-numeric-determinants", check_closed_vs_numeric_dets),
        ("bound-monotonicity", check_bound_monotonicity),
        ("reflection-reduction", check_reflection_reduction),
        ("cascade-backsubstitution", check_cascade_backsubstitution),
        ("rank-scaling-invariance", check_rank_scaling_invariance),
    ],
    "oracle": [
        ("cross-oracle-agreement", check_cross_oracle),
        ("vani-pure-modes", check_vani_pure_modes),
        ("ball-integral-monotone", check_ball_monotone),
        ("ball-integral-mc-agreement", check_ball_mc_agreement),
    ],
}


def run_suite(name, seed=None):
    """Run one suite (or 'all'); returns list of (suite, check, ok, detail)."""
    names = list(SUITES) if name == "all" else [name]
    results = []
    for suite in names:
        if suite not in SUITES:
            raise KeyError(f"unknown suite {suite!r}")
        for check_name, fn in SUITES[suite]:
            try:
                if seed is not None and "seed" in fn.__code__.co_varnames:
                    detail = fn(seed=seed)
                else:
                    detail = fn()
                results.append((suite, check_name, True, detail))
            except Exception as exc:  # noqa: BLE001 - report, do not crash
                results.append((suite, check_name, False, f"{type(exc).__name__}: {exc}"))
    return results
