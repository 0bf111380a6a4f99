"""Acceptance criteria, one test per criterion, tolerances pinned.

Each test prints a PASS line on success (pytest -s shows the full table);
failures surface through ordinary assertions.  Criteria 2 carries two
documented exceptional angles where the first-order head blocks degenerate
ahead of the stated grids (1/2 and 3/2 for the impedance-impedance pairing,
q/4 for the mixed pairings); there the grid bound is 0 rather than the
generic denominator formula, matching both the analyze examples and the
bound-monotonicity requirement of criterion 3.
"""

import math
import time
from fractions import Fraction

import numpy as np

from conftest import make_config
from edgewave import angles, oracle, swe
from edgewave import specfun as sf
from edgewave.vanish import (CaseKind, INFINITE, assemble_order_system,
                             closed_dets, nullspace_dim, theorem_bound,
                             vanishing_order)

GOLDEN = (math.sqrt(5) - 1) / 2
SQRT_HALF = 1 / math.sqrt(2)


def _report(name, detail, elapsed, budget):
    print(f"PASS {name}: {detail} ({elapsed:.1f}s < {budget}s)")


def test_criterion_1_determinant_fidelity():
    """Closed determinants match numeric 3x3 block determinants to 1e-10
    relative, n = 1..10, five random impedance-impedance configurations."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(5):
        alpha = float(rng.uniform(0.06, 1.94))
        if abs(alpha - 1) < 0.05:
            alpha = 0.37
        cfg = make_config(repr(alpha),
                          eta1=complex(*rng.standard_normal(2)),
                          eta2=complex(*rng.standard_normal(2)),
                          k=float(rng.uniform(0.5, 2.0)))
        for n in range(1, 11):
            system = assemble_order_system(n, cfg)
            for block, closed in zip(system.head_blocks, closed_dets(n, cfg)):
                worst = max(worst, abs(np.linalg.det(block) - closed) / abs(closed))
    elapsed = time.time() - t0
    assert worst < 1e-10
    assert elapsed < 5.0
    _report("criterion 1 (determinant fidelity)",
            f"worst rel err {worst:.2e} over 5 configs, n <= 10", elapsed, 5)


def test_criterion_2_theorem_grid_reproduction():
    """Grid bounds for every reduced fraction q/p, p <= 8: p - 1 for the
    impedance-impedance grid and (p even ? p/2 - 1 : p - 1) for the mixed
    grid, verified against an independent brute-force scan; the documented
    first-order exceptional angles give 0."""
    t0 = time.time()
    impimp_exceptions = {Fraction(1, 2), Fraction(3, 2)}
    mixed_exceptions = {Fraction(1, 4), Fraction(3, 4), Fraction(5, 4),
                        Fraction(7, 4)}
    checked = 0
    for p in range(1, 9):
        for q in range(1, 2 * p):
            if math.gcd(q, p) != 1 or Fraction(q, p) == 1:
                continue
            fr = Fraction(q, p)
            a = angles.parse_angle(f"{q}/{p}")
            expect_impimp = 0 if fr in impimp_exceptions else p - 1
            assert theorem_bound(a, CaseKind.IMP_IMP, 12) == expect_impimp, \
                f"imp-imp bound at {fr}"
            expect_mixed = 0 if fr in mixed_exceptions \
                else (p // 2 - 1 if p % 2 == 0 else p - 1)
            assert theorem_bound(a, CaseKind.IMP_PEC, 12) == expect_mixed, \
                f"mixed bound at {fr}"
            # independent brute-force scan over the raw grid
            scan = next((pp - 1 for pp in range(1, 13)
                         if any(fr == Fraction(qq, pp)
                                for qq in range(1, 2 * pp))), 12)
            if fr not in impimp_exceptions:
                assert scan == expect_impimp
            scan2 = next((pp - 1 for pp in range(1, 13)
                          if any(fr == Fraction(qq, 2 * pp)
                                 for qq in range(1, 4 * pp))), 12)
            if fr not in mixed_exceptions:
                assert scan2 == expect_mixed
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("criterion 2 (theorem-grid reproduction)",
            f"{checked} reduced fractions, p <= 8, both grids", elapsed, 1)


def test_criterion_3_induction_consistency():
    """order_lower_bound >= theorem_bound for 20 random rational angles
    across all four pairings at N_max = 6; strict excess flagged."""
    t0 = time.time()
    rng = np.random.default_rng(103)
    fractions = []
    while len(fractions) < 20:
        p = int(rng.integers(2, 13))
        q = int(rng.integers(1, 2 * p))
        fr = Fraction(q, p)
        if fr != 1 and fr not in fractions:
            fractions.append(fr)
    excesses = 0
    for fr in fractions:
        for case in ("imp-imp", "pec-pmc", "imp-pec", "imp-pmc"):
            if case == "imp-pmc" and fr >= 1:
                continue
            cfg = make_config(f"{fr.numerator}/{fr.denominator}", case=case,
                              eta1=complex(*rng.standard_normal(2)),
                              eta2=complex(*rng.standard_normal(2)),
                              k=float(rng.uniform(0.5, 2.0)))
            report = vanishing_order(cfg, 6)
            tb = report.theorem_bound
            assert tb != INFINITE
            assert report.order_lower_bound >= min(tb, 6), \
                f"{fr} {case}: {report.order_lower_bound} < {tb}"
            if report.order_lower_bound > tb:
                assert report.strict_excess or report.at_nmax
                excesses += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("criterion 3 (induction consistency)",
            f"20 angles x 4 cases, {excesses} flagged strict excesses",
            elapsed, 60)


def test_criterion_4_irrational_proxy():
    """Trivial nullspace at every order n <= 8 for the two irrational
    proxies, impedance-impedance and PEC/PMC pairings."""
    t0 = time.time()
    for value in (SQRT_HALF, GOLDEN):
        a = angles.detect_rational(angles.Angle(value), max_den=1000)
        assert a.rational is None
        for case in ("imp-imp", "pec-pmc"):
            cfg = make_config(a, case=case)
            report = vanishing_order(cfg, 8)
            dims = [d.nullspace_dim for d in report.per_order]
            assert dims == [0] * 8, f"{value} {case}: {dims}"
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report("criterion 4 (irrational proxy)",
            "both proxies trivial to order 8 in imp-imp and pec-pmc",
            elapsed, 120)


def test_criterion_5_cross_oracle_equivalence():
    """Collocation nullspace equals structured nullspace, exactly, for
    n <= 4 over ten configurations mixing angles and all four pairings."""
    t0 = time.time()
    configs = [
        (repr(SQRT_HALF), "imp-imp", 1.0, 1.0, 1.0),
        ("1/2", "imp-imp", 1.0, 1.0, 1.0),
        ("1/3", "imp-imp", 1.0, 1.0, 1.0),
        ("2/5", "imp-imp", 2.0 + 1j, 0.5 - 0.3j, 1.5),
        ("0.37", "imp-imp", 1.0 - 2j, 3.0, 0.9),
        ("1/4", "pec-pmc", 1.0, 1.0, 1.0),
        (repr(GOLDEN), "pec-pmc", 1.0, 1.0, 1.0),
        ("1/3", "pec-pmc", 1.0, 1.0, 1.0),
        ("1/5", "imp-pec", 1.0, 1.3 + 0.2j, 1.2),
        ("2/3", "imp-pmc", 1.0, 0.7 - 0.5j, 0.8),
    ]
    checks = 0
    for alpha, case, e1, e2, k in configs:
        cfg = make_config(alpha, case=case, eta1=e1, eta2=e2, k=k)
        for n in range(1, 5):
            structured = nullspace_dim(assemble_order_system(n, cfg))
            collocated = oracle.collocation_nullspace(n, cfg)
            assert structured == collocated, \
                f"{alpha} {case} n={n}: {structured} != {collocated}"
            checks += 1
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report("criterion 5 (cross-oracle equivalence)",
            f"{checks} exact integer agreements", elapsed, 300)


def test_criterion_6_vani_estimator():
    """For pure degree-n fields, n <= 5, the log-log slope of the ball
    integral is n + 2 within 0.1 (estimated order n - 1)."""
    t0 = time.time()
    for n in range(1, 6):
        c = swe.ModeCoefficients(n, 1.0, b={(n, min(1, n)): 1.0},
                                 a={(n, 0): 0.3})
        est = oracle.vani_estimate(c)
        assert abs(est.slope - (n + 2)) < 0.1, f"degree {n}: slope {est.slope}"
        assert est.estimated_order == n - 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("criterion 6 (vanishing-order estimator)",
            "slopes n+2 +- 0.1 for n <= 5", elapsed, 60)


def test_criterion_7_special_function_suite():
    """Both Legendre recursions, both Bessel recurrences, the negative-order
    relation, the values at the pole and the orthogonality integrals pass at
    the module tolerances."""
    t0 = time.time()
    worst = {}
    # theta recursions on the unit-normalized scale: the derivative against
    # a five-point central difference, m/sin against the direct quotient
    for name, seed, low in (("dtheta", 42, 0), ("over-sin", 43, 1)):
        rng, h, err = np.random.default_rng(seed), 3e-4, 0.0
        for _ in range(50):
            theta = rng.uniform(0.01, math.pi - 0.01)
            l = int(rng.integers(1, 11))
            m = int(rng.integers(low, l + 1))
            if name == "dtheta":
                p = [sf.assoc_legendre(l, m, math.cos(theta + j * h))
                     for j in (-2, -1, 1, 2)]
                got = sf.legendre_dtheta(l, m, theta)
                ref = (p[0] - 8 * p[1] + 8 * p[2] - p[3]) / (12 * h)
            else:
                got = sf.legendre_over_sin(l, m, theta)
                ref = m * sf.assoc_legendre(l, m, math.cos(theta)) / math.sin(theta)
            err = max(err, swe.norm_constant(l, m) * abs(got - ref))
        worst[name] = err / 1e-8
    # negative orders, relative
    err = 0.0
    for n in range(1, 11):
        for m in range(1, n + 1):
            for x in (-0.7, 0.1, 0.9):
                rhs = ((-1) ** m * sf.factorial(n - m) / sf.factorial(n + m)
                       * sf.assoc_legendre(n, m, x))
                err = max(err, abs(sf.assoc_legendre(n, -m, x) - rhs)
                          / max(abs(rhs), 1e-300))
    worst["negative-order"] = err / 1e-12
    # values at the pole, exact
    assert all(sf.assoc_legendre(l, m, 1.0) == (m == 0)
               for l in range(9) for m in range(l + 1))
    # both Bessel recurrences, the closed forms of j_0..j_2 and the sum rule
    # sum_l (2l+1) j_l^2 = 1 on a table reaching l = 60
    err = 0.0
    for t in (0.1, 1.0, 5.0, 10.0):
        for l in range(1, 13):
            j, jm, jp = (sf.sph_bessel(d, t) for d in (l, l - 1, l + 1))
            scale = max(abs(j), abs(jm), 1e-30)
            err = max(err, abs(j / t - (jm + jp) / (2 * l + 1)) / scale,
                      abs(sf.sph_bessel_deriv(l, t)
                          - (l * jm - (l + 1) * jp) / (2 * l + 1)) / scale)
        s, c = math.sin(t), math.cos(t)
        table = sf.bessel_table(60, t)
        for l, terms in enumerate(((s / t,), (s / t ** 2, -c / t),
                                   (3 * s / t ** 3, -s / t, -3 * c / t ** 2))):
            err = max(err, abs(math.fsum(terms) - table[l]) / max(map(abs, terms)))
        err = max(err, abs(float(np.sum((2 * np.arange(61) + 1) * table ** 2)) - 1))
    worst["bessel"] = err / 1e-12
    # the orthogonality integrals against their closed form, n <= 6
    err = 0.0
    for n in range(1, 7):
        for m in range(1, n + 1):
            ref = sf.orthogonality_closed_form(n, m)
            for l in range(1, n + 1):
                err = max(err, abs(sf.orthogonality_integral(n, m, l)
                                   - (ref if l == m else 0.0)) / ref)
    worst["orthogonality"] = err / 1e-5
    failed = {name: ratio for name, ratio in worst.items() if not ratio < 1}
    assert not failed, f"error / tolerance: {failed}"
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report("criterion 7 (special-function suite)",
            "6 properties within tolerance, worst error / tolerance "
            f"{max(worst.values()):.2e}", elapsed, 10)


def test_criterion_8_reflection_reduction():
    """The mixed system at alpha = 1/5 is row-equivalent to the
    impedance-impedance system at 2/5 with matching nullspace dimensions."""
    t0 = time.time()
    eta = 1.3 + 0.2j
    mixed = make_config("1/5", case="imp-pec", eta2=eta, k=1.1)
    direct = make_config("2/5", eta1=eta, eta2=eta, k=1.1)
    for n in range(1, 5):
        s_ref = assemble_order_system(n, mixed)
        s_dir = assemble_order_system(n, direct)
        assert s_ref.rows.shape == s_dir.rows.shape
        assert np.allclose(s_ref.rows, s_dir.rows, atol=1e-15)
        assert nullspace_dim(s_ref) == nullspace_dim(s_dir)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report("criterion 8 (reflection reduction)",
            "row-identical systems and equal nullspaces, n <= 4", elapsed, 30)
