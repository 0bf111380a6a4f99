"""Product invariants behind the `verify` command.

The product is the per-order vanishing answer at an edge-corner: nullspace
dimensions, the grid bound, and the reflection reduction of the mixed
pairings.  The checks here test that answer; the module self-checks
(special functions, field evaluation, corner traces) run under pytest.

Each suite is a list of (name, callable) pairs; a check returns a detail
string on success and raises AssertionError (or any exception) on failure.
Randomized checks draw from a seeded generator so runs are reproducible.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import angles, oracle, swe, vanish


def _case_configs(alpha, rng):
    a = angles.parse_angle(alpha)
    e = complex(*rng.standard_normal(2))
    e2 = complex(*rng.standard_normal(2))
    k = float(rng.uniform(0.5, 2.0))
    return [(case.value, vanish.config_for_case(case, a, e, e2, k))
            for case in vanish.CaseKind
            if case != vanish.CaseKind.IMP_PMC or a.value < 1]


# ---------------------------------------------------------------------------
# vanish
# ---------------------------------------------------------------------------

def check_closed_vs_numeric_dets(seed=55):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        alpha = float(rng.uniform(0.06, 0.94))
        cfg = vanish.config_for_case(
            vanish.CaseKind.IMP_IMP, angles.parse_angle(repr(alpha)),
            complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)),
            float(rng.uniform(0.5, 2)))
        for n in range(1, 11):
            system = vanish.assemble_order_system(n, cfg)
            ca, cb = vanish.closed_det_A(n, cfg), vanish.closed_det_B(n, cfg)
            worst = max(worst,
                        abs(np.linalg.det(system.block_A) - ca) / abs(ca),
                        abs(np.linalg.det(system.block_B) - cb) / abs(cb))
    assert worst < 1e-10, f"worst rel error {worst:.2e}"
    return f"worst rel error {worst:.2e}"


def check_bound_monotonicity(seed=56):
    """Reports over random rational angles in every pairing.  vanishing_order
    raises BoundInvariantError when the assembled bound falls below
    min(grid bound, n_max), so a report that returns keeps the bound."""
    rng = np.random.default_rng(seed)
    checked = 0
    for _ in range(20):
        p = int(rng.integers(2, 13))
        q = int(rng.integers(1, 2 * p))
        fr = Fraction(q, p)
        if fr == 1:
            continue
        for _, cfg in _case_configs(f"{fr.numerator}/{fr.denominator}", rng):
            vanish.vanishing_order(cfg, 6)
            checked += 1
    return f"{checked} rational configurations, bound >= grid bound"


def check_reflection_reduction():
    cfg_mixed = vanish.config_for_case(vanish.CaseKind.IMP_PEC,
                                       angles.parse_angle("1/5"), None,
                                       1.3 + 0.2j, 1.1)
    cfg_direct = vanish.config_for_case(vanish.CaseKind.IMP_IMP,
                                        angles.parse_angle("2/5"), 1.3 + 0.2j,
                                        1.3 + 0.2j, 1.1)
    for n in range(1, 5):
        s_ref = vanish.assemble_order_system(n, cfg_mixed)
        s_dir = vanish.assemble_order_system(n, cfg_direct)
        assert np.allclose(s_ref.rows, s_dir.rows, atol=1e-15)
        assert vanish.nullspace_dim(s_ref) == vanish.nullspace_dim(s_dir)
    return "reflected system equals the doubled-angle system, n <= 4"


def check_certificate(seed=57, tol=1e-9):
    """Every order whose nullity nullspace_dim proves without its SVD, on
    all pairings at rational and irrational angles and one decimal 7e-11
    off 1/3, n <= 12: its shift bound S is s_max^2 or more (to 1e-12), the
    SVD's nullity is the certified one, the smallest kept relative singular
    value at least sqrt(CERTIFY_THETA)/2 and the largest deflated at most
    tol/10."""
    rng = np.random.default_rng(seed)
    floor = np.sqrt(vanish.CERTIFY_THETA) / 2
    counts, kept, deflated = [0, 0], np.inf, 0.0
    for alpha in ("1/3", "2/7", "1/4", "3/5", "7/4", "0.6180339887", "0.37",
                  "1.41421356237", "0.3333333334"):
        for case, cfg in _case_configs(alpha, rng):
            for n in range(1, 13):
                system = vanish.assemble_order_system(n, cfg)
                d = vanish._certified_nullities([system], tol)[0]
                if d is None:
                    continue
                s = np.linalg.svd(system.blocks, compute_uv=False)
                try:
                    dim = sum(vanish._dim_from_values(system, s, 2 * n + 1, tol))
                except vanish.RankAmbiguityError:
                    dim = "ambiguous"
                rel = np.sort(np.append(s, np.zeros(2 * (2 * n + 1) - s.size))) / s.max()
                where = f"{alpha} {case} n={n}"
                shift = system.fill.layout.shift[system.part]
                assert shift >= s.max() ** 2 * (1 - 1e-12), \
                    f"{where}: shift bound {shift:g} < s_max^2 = {s.max() ** 2:.17g}"
                assert dim == d, f"{where}: certified {d}, SVD nullity {dim}"
                kept = min(kept, rel[d])
                deflated = max(deflated, rel[d - 1] if d else 0.0)
                assert kept >= floor, f"{where}: kept {kept:.2e} < {floor:.0e}"
                assert deflated <= tol / 10, \
                    f"{where}: deflated {deflated:.2e} > {tol / 10:.0e}"
                counts[d > 0] += 1
    assert all(counts), f"certified orders (trivial, nontrivial): {counts}"
    return (f"{counts[0]} trivial and {counts[1]} nontrivial certified orders "
            f"agree with the SVD; smallest kept relative singular value "
            f"{kept:.2e} >= {floor:.0e}, largest deflated {deflated:.2e} <= "
            f"{tol / 10:.0e}")


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def check_cross_oracle(seed=59):
    rng = np.random.default_rng(seed)
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


SUITES = {
    "vanish": [
        ("closed-vs-numeric-determinants", check_closed_vs_numeric_dets),
        ("bound-monotonicity", check_bound_monotonicity),
        ("reflection-reduction", check_reflection_reduction),
        ("certificate-agrees-with-svd", check_certificate),
    ],
    "oracle": [
        ("cross-oracle-agreement", check_cross_oracle),
        ("vani-pure-modes", check_vani_pure_modes),
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
