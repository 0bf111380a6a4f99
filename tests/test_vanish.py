import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_config
from edgewave import angles, vanish
from edgewave.oracle import collocation_nullspace
from edgewave.vanish import (CaseKind, INFINITE, RankAmbiguityError,
                             UnsupportedPairingError, assemble_order_system,
                             block_det, closed_det_A, closed_det_B,
                             nullspace_dim, theorem_bound, vanishing_order)


class TestAssembly:
    def test_first_order_block_determinant(self):
        # eta1 = eta2 = 1, k = 1, alpha = 1/3: det of the 3x3 head block
        cfg = make_config("1/3")
        system = assemble_order_system(1, cfg)
        c0 = math.sqrt(3 / (4 * math.pi))
        c1 = math.sqrt(3 / (8 * math.pi))
        expect = (-1j * (2 / 3) ** 3 * (math.sqrt(2) / 2) * c1 ** 2 * c0
                  * math.sin(math.pi / 3) ** 2)
        assert np.linalg.det(system.block_A) == pytest.approx(expect, rel=1e-12)

    def test_pecpmc_first_order_two_by_two_blocks(self):
        cfg = make_config("1/3", case="pec-pmc")
        system = assemble_order_system(1, cfg)
        ix = system.column_index
        phase = math.pi / 3
        # the a-sector rows reduce to [[1, -1], [e^{i a pi}, e^{-i a pi}]]
        diff = next(r for r, t in zip(system.rows, system.provenance)
                    if t == "face1-pec coupling-diff m=1")
        assert diff[ix[("a", 1)]] == 1.0 and diff[ix[("a", -1)]] == -1.0
        phased = next(r for r, t in zip(system.rows, system.provenance)
                      if t == "face2-pmc phased-sum m=1")
        ratio = phased[ix[("a", 1)]] / phased[ix[("a", -1)]]
        assert ratio == pytest.approx(np.exp(2j * phase))
        # and the b-sector to [[1, 1], [e^{i a pi}, -e^{-i a pi}]]
        bsum = next(r for r, t in zip(system.rows, system.provenance)
                    if t == "face1-pec sum m=1")
        assert bsum[ix[("b", 1)]] == bsum[ix[("b", -1)]] != 0

    def test_row_count_second_order(self):
        cfg = make_config("0.41", eta1=1.7 - 0.3j, eta2=0.9)
        system = assemble_order_system(2, cfg)
        # 2(n+1) chain rows per face + 3 matching + 3 face-2 edge rows
        assert system.rows.shape == (18, 10)

    def test_every_row_tagged(self):
        cfg = make_config("0.41")
        for n in (1, 2, 4):
            system = assemble_order_system(n, cfg)
            assert len(system.provenance) == system.rows.shape[0]
            assert len(set(system.provenance)) == len(system.provenance)

    def test_column_order(self):
        system = assemble_order_system(2, make_config("0.41"))
        assert system.columns == [("b", 0), ("a", 0), ("a", 1), ("a", -1),
                                  ("b", 1), ("b", -1), ("a", 2), ("a", -2),
                                  ("b", 2), ("b", -2)]

    def test_unsupported_pairings(self):
        from edgewave.corner import EdgeCornerConfig, ImpedanceSpec
        cfg = EdgeCornerConfig(angles.parse_angle("1/3"),
                               ImpedanceSpec.infinite(),
                               ImpedanceSpec.infinite(), 1.0)
        with pytest.raises(UnsupportedPairingError):
            assemble_order_system(1, cfg)

    def test_impmc_domain(self):
        with pytest.raises(ValueError):
            assemble_order_system(1, make_config("3/2", case="imp-pmc"))

    @pytest.mark.parametrize("eta, k", [(1.0, 1e160), (1e300, 1e10),
                                        (1e110, 1e110)])
    def test_overflowing_k_or_eta_is_refused(self, eta, k):
        # earlier the system was built with inf row norms, and nullspace_dim
        # of it warned of an overflow and returned a full nullity; at 1e110
        # the entries are finite but the head-block determinants overflow
        cfg = make_config("1/3", eta1=eta, eta2=eta, k=k)
        message = re.escape(f"k = {k!r} with eta = {complex(eta)!r}, "
                            f"{complex(eta)!r} overflows the boundary system")
        with pytest.raises(ValueError, match=message):
            assemble_order_system(2, cfg)
        with pytest.raises(ValueError, match=message):
            vanishing_order(cfg, 2)


def _loop_chain_rows(n, eta, k, phase, ix):
    """One face's two chains built entry by entry: the reference for the
    pattern assembly (rows 0..n are e1 mu, rows n+1..2n+1 are e2 mu)."""
    sL = math.sqrt(n * (n + 1))
    c = [vanish.norm_constant(n, m) for m in range(n + 1)]
    d, w = 2 * n + 1, (n + 1) / (2 * (2 * n + 1) * sL)
    rows = np.zeros((2 * (n + 1), len(ix)), dtype=complex)

    def add(row, fam, m, coeff):
        for sign in ((1,) if m == 0 else (1, -1)):
            rows[row, ix[(fam, sign * m)]] += coeff * np.exp(1j * sign * m * phase)

    for mu in range(n + 1):
        add(mu, "a", mu, 1j * k * sL * c[mu] / d)
        if mu < n:
            up = w * c[mu + 1] * (n + mu + 1) * (n - mu)
            add(mu, "b", mu + 1, -eta * up)
            add(n + 1 + mu, "a", mu + 1, 1j * k * up)
        if mu >= 1:
            down = w * c[mu - 1] * (2 if mu == 1 else 1)
            add(mu, "b", mu - 1, eta * down)
            add(n + 1 + mu, "a", mu - 1, -1j * k * down)
        add(n + 1 + mu, "b", mu, eta * sL * c[mu] / d)
    return rows


def _loop_pecpmc_rows(n, phase, ix):
    rows = np.zeros((2 + 4 * n, len(ix)), dtype=complex)
    rows[0, ix[("b", 0)]] = rows[1, ix[("a", 0)]] = 1.0
    for m in range(1, n + 1):
        cm, e = vanish.norm_constant(n, m), np.exp(1j * m * phase)
        r = 2 + 4 * (m - 1)
        rows[r, ix[("b", m)]] = rows[r, ix[("b", -m)]] = cm
        rows[r + 1, ix[("a", m)]], rows[r + 1, ix[("a", -m)]] = cm * e, cm / e
        rows[r + 2, ix[("a", m)]], rows[r + 2, ix[("a", -m)]] = 1.0, -1.0
        rows[r + 3, ix[("b", m)]], rows[r + 3, ix[("b", -m)]] = e, -1 / e
    return rows


class TestPatternAssembly:
    # products of a few float64 factors: a few ulps, relative to the row
    RTOL = 1e-14

    def assert_rows_close(self, rows, ref):
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.all((rows != 0) == (ref != 0))
        assert np.all(np.abs(rows - ref) <= self.RTOL * scale)

    @pytest.mark.parametrize("n", [2, 3, 8, 24, 85])
    @pytest.mark.parametrize("alpha", ["2/7", "0.6180339887", "13/8"])
    def test_chains_match_entry_loop(self, n, alpha):
        eta1, eta2, k = 1.1 - 0.3j, 0.8 + 0.5j, 1.2
        system = assemble_order_system(n, make_config(alpha, eta1=eta1, eta2=eta2, k=k))
        ix = system.column_index
        phase = system.alpha.value * math.pi
        ref = np.vstack([_loop_chain_rows(n, eta1, k, 0.0, ix),
                         _loop_chain_rows(n, eta2, k, phase, ix)])
        self.assert_rows_close(system.rows[6:], ref)

    def test_first_order_keeps_one_chain_row(self):
        system = assemble_order_system(1, make_config("2/7", eta1=1.1 - 0.3j, k=1.2))
        ref = _loop_chain_rows(1, 1.1 - 0.3j, 1.2, 0.0, system.column_index)
        assert system.provenance[6:] == ["face1-chain-e2 mu=0"]
        self.assert_rows_close(system.rows[6:], ref[2:3])

    @pytest.mark.parametrize("n", [1, 2, 9, 85])
    def test_pecpmc_matches_entry_loop(self, n):
        system = assemble_order_system(n, make_config("2/9", case="pec-pmc"))
        ref = _loop_pecpmc_rows(n, 2 / 9 * math.pi, system.column_index)
        self.assert_rows_close(system.rows, ref)


class TestPairingTable:
    @pytest.mark.parametrize("case", list(CaseKind))
    def test_config_round_trips_to_its_case(self, case):
        cfg = vanish.config_for_case(case, angles.parse_angle("1/3"),
                                     1.1 - 0.3j, 0.8 + 0.5j, 1.2)
        assert vanish.case_of_config(cfg) == case

    @pytest.mark.parametrize("case,eta1,eta2,missing", [
        (CaseKind.IMP_IMP, None, 1.0, "--eta1"),
        (CaseKind.IMP_IMP, 1.0, None, "--eta2"),
        (CaseKind.IMP_PEC, 1.0, None, "--eta2"),
        (CaseKind.IMP_PMC, 1.0, None, "--eta2"),
    ])
    def test_missing_eta_on_an_impedance_face(self, case, eta1, eta2, missing):
        with pytest.raises(ValueError, match=f"requires {missing}$"):
            vanish.config_for_case(case, angles.parse_angle("1/3"), eta1, eta2,
                                   1.0)

    def test_eta_ignored_on_pec_and_pmc_faces(self):
        cfg = vanish.config_for_case(CaseKind.PEC_PMC, angles.parse_angle("1/3"),
                                     None, None, 1.0)
        assert vanish.case_of_config(cfg) == CaseKind.PEC_PMC


class TestNullspace:
    def test_identity_rows(self):
        system = np.eye(6, dtype=complex)
        assert nullspace_dim(system) == 0

    def test_fewer_rows_than_columns(self):
        rows = np.eye(3, dtype=complex)[:2]
        assert nullspace_dim(rows) == 1
        basis = vanish.nullspace_basis(rows)
        assert basis.shape == (3, 1)
        assert abs(abs(basis[2, 0]) - 1.0) < 1e-15

    def test_degenerate_half(self):
        # the B-block determinant carries cos^2(alpha pi)
        assert nullspace_dim(assemble_order_system(1, make_config("1/2"))) >= 1

    def test_trivial_at_irrational_proxy(self):
        cfg = make_config(repr(1 / math.sqrt(2)))
        assert nullspace_dim(assemble_order_system(1, cfg)) == 0

    def test_ambiguity_band_raises(self):
        # nearly dependent rows survive row normalisation and land in the band
        rows = np.array([[1.0, 1.0], [1.0, 1.0 + 3e-9]], dtype=complex)
        with pytest.raises(RankAmbiguityError):
            nullspace_dim(rows)

    def test_basis_takes_one_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return svd(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", counted)
        system = assemble_order_system(3, make_config("1/3"))
        basis = vanish.nullspace_basis(system)
        assert len(calls) == 1
        assert basis.shape[1] == 2
        assert (np.linalg.norm(system.rows @ basis)
                <= 1e-12 * np.linalg.norm(system.rows))

    def test_scaling_invariance(self, rng):
        system = assemble_order_system(3, make_config("1/3"))
        base = nullspace_dim(system)
        for _ in range(5):
            scale = complex(*rng.standard_normal(2))
            assert nullspace_dim(system.rows * scale) == base

    @pytest.mark.parametrize("tol", [0.0, -1.0, 1.0, 2.0, math.nan, math.inf])
    def test_threshold_outside_unit_interval_refused(self, tol):
        # at tol <= 0 no value is below it, and every order would read full rank
        system = assemble_order_system(3, make_config("1/3"))
        for decide in (nullspace_dim, vanish.nullspace_basis):
            with pytest.raises(ValueError, match=r"tol must be in \(0, 1\)"):
                decide(system, tol=tol)
        with pytest.raises(ValueError, match=f"got {tol!r}"):
            vanish.vanishing_order(make_config("1/3"), 6, tol=tol)
        with pytest.raises(ValueError, match="tol must be"):
            nullspace_dim(np.zeros((2, 2)), tol=tol)


class TestClosedDeterminants:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    def test_match_numeric(self, n, rng):
        alpha = float(rng.uniform(0.06, 0.94))
        cfg = make_config(repr(alpha), eta1=complex(*rng.standard_normal(2)),
                          eta2=complex(*rng.standard_normal(2)),
                          k=float(rng.uniform(0.5, 2)))
        system = assemble_order_system(n, cfg)
        ca, cb = closed_det_A(n, cfg), closed_det_B(n, cfg)
        assert abs(np.linalg.det(system.block_A) - ca) / abs(ca) < 1e-10
        assert abs(np.linalg.det(system.block_B) - cb) / abs(cb) < 1e-10

    @pytest.mark.parametrize("case,alpha", [("imp-pec", "0.37"), ("imp-pec", "1.3"),
                                            ("imp-pec", "1/5"), ("imp-pmc", "0.13"),
                                            ("imp-pmc", "0.62")])
    def test_mixed_pairings_match_numeric(self, case, alpha):
        cfg = make_config(alpha, case=case, eta2=0.8 + 0.5j, k=1.2)
        for n in range(1, 11):
            system = assemble_order_system(n, cfg)
            for closed, block in ((closed_det_A, system.block_A),
                                  (closed_det_B, system.block_B)):
                expect = closed(n, cfg)
                assert abs(np.linalg.det(block) - expect) / abs(expect) < 1e-10

    @pytest.mark.parametrize("case", ["imp-imp", "pec-pmc", "imp-pec", "imp-pmc"])
    def test_report_carries_the_public_closed_dets(self, case):
        cfg = make_config("0.37", case=case, eta1=1.1 - 0.3j, eta2=0.8 + 0.5j,
                          k=1.2)
        for d in vanishing_order(cfg, 6).per_order:
            if case == "pec-pmc":
                assert d.det_A_closed is d.det_B_closed is None
                assert assemble_order_system(d.n, cfg).block_A is None
            else:
                assert d.det_A_closed == closed_det_A(d.n, cfg)
                assert d.det_B_closed == closed_det_B(d.n, cfg)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_head_blocks_are_the_assembled_rows(self, n):
        # each head-block row, mapped back from (x^1 + x^-1, x^1 - x^-1,
        # third), is the whole assembled row of that tag
        cfg = make_config("0.41", eta1=1.7 - 0.3j, eta2=0.9 + 0.2j, k=1.3)
        system = assemble_order_system(n, cfg)
        ix = system.column_index
        for block, tags, fam, third in (
                (system.block_A, ("matching-x", "matching-y",
                                  "face1-chain-e2 mu=0"), "a", ("b", 0)),
                (system.block_B, ("face2-edge-x", "face2-edge-y", "matching-z"),
                 "b", ("a", 0))):
            for brow, tag in zip(block, tags):
                full = np.zeros(system.rows.shape[1], dtype=complex)
                full[ix[(fam, 1)]] = brow[0] + brow[1]
                full[ix[(fam, -1)]] = brow[0] - brow[1]
                full[ix[third]] = brow[2]
                row = system.rows[system.provenance.index(tag)]
                np.testing.assert_allclose(full, row, rtol=0,
                                           atol=1e-15 * np.max(np.abs(row)))

    def test_explicit_configuration(self):
        cfg = make_config("1/5", eta1=2.0 + 0j, eta2=1.0, k=1.5)
        system = assemble_order_system(3, cfg)
        ca = closed_det_A(3, cfg)
        assert abs(np.linalg.det(system.block_A) - ca) / abs(ca) < 1e-10

    def test_b_vanishes_at_right_angles(self):
        for alpha in ("1/2", "3/2"):
            assert closed_det_B(3, make_config(alpha)) == pytest.approx(0.0, abs=1e-30)

    def test_case_error(self):
        with pytest.raises(UnsupportedPairingError):
            closed_det_A(1, make_config("1/3", case="pec-pmc"))

    def test_first_order_reduction(self):
        # at n = 1 the prefactor reduces to (2/3)^3 (sqrt2/2) (c_1^1)^2 c_1^0
        cfg = make_config("0.37", eta1=1.0, k=1.0)
        c0, c1 = math.sqrt(3 / (4 * math.pi)), math.sqrt(3 / (8 * math.pi))
        expect = (-1j * (2 / 3) ** 3 * math.sqrt(2) / 2 * c1 ** 2 * c0
                  * math.sin(0.37 * math.pi) ** 2)
        assert closed_det_A(1, cfg) == pytest.approx(expect, rel=1e-14)


class TestBlockDet:
    def test_examples(self):
        assert block_det(2, angles.parse_angle("1/4"), "sin") == pytest.approx(-2j)
        assert block_det(1, angles.parse_angle("1/2"), "cos") == pytest.approx(0.0, abs=1e-15)
        assert block_det(3, angles.parse_angle("1/3"), "sin") == pytest.approx(0.0, abs=1e-14)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            block_det(1, 0.3, "tan")


class TestTheoremBound:
    @pytest.mark.parametrize("alpha,case,expect", [
        ("1/3", "imp-imp", 2),
        ("1/2", "imp-imp", 0),
        ("1/3", "imp-pec", 2),
        ("5/3", "imp-imp", 2),
        ("3/2", "imp-imp", 0),
        ("1/4", "imp-pec", 0),
        ("1/4", "pec-pmc", 1),
        ("2/5", "imp-imp", 4),
    ])
    def test_examples(self, alpha, case, expect):
        a = angles.parse_angle(alpha)
        assert theorem_bound(a, CaseKind(case), 10) == expect

    def test_irrational_infinite(self):
        a = angles.Angle(0.6180339887)
        assert theorem_bound(a, CaseKind.IMP_IMP, 8) == INFINITE


class TestVanishingOrder:
    def test_one_third(self):
        report = vanishing_order(make_config("1/3"), 6)
        assert report.order_lower_bound == 2
        assert report.theorem_bound == 2
        dims = [d.nullspace_dim for d in report.per_order]
        assert dims[:3] == [0, 0, 2]

    def test_pecpmc_quarter(self):
        report = vanishing_order(make_config("1/4", case="pec-pmc"), 6)
        assert report.order_lower_bound == 1
        assert report.per_order[1].nullspace_dim > 0

    def test_irrational_runs_to_nmax(self):
        report = vanishing_order(make_config("0.6180339887"), 10)
        assert report.at_nmax and report.order_lower_bound == 10
        assert report.theorem_bound == INFINITE

    def test_invariant_bound_ge_theorem(self, rng):
        for _ in range(8):
            p = int(rng.integers(2, 13))
            q = int(rng.integers(1, 2 * p))
            fr = Fraction(q, p)
            if fr == 1:
                continue
            for case in ("imp-imp", "pec-pmc", "imp-pec", "imp-pmc"):
                if case == "imp-pmc" and fr >= 1:
                    continue
                cfg = make_config(f"{fr.numerator}/{fr.denominator}", case=case,
                                  eta1=complex(*rng.standard_normal(2)),
                                  eta2=complex(*rng.standard_normal(2)),
                                  k=float(rng.uniform(0.5, 2)))
                report = vanishing_order(cfg, 6)
                if report.theorem_bound != INFINITE:
                    assert report.order_lower_bound >= min(report.theorem_bound, 6)

    def test_bound_below_grid_bound_raises(self):
        # an untagged 0.37 claims no grid hit, yet the reflected 37/50
        # degenerates at n = 50: the report would contradict itself
        cfg = vanish.config_for_case(CaseKind.IMP_PEC, angles.Angle(0.37), None,
                                     0.7 + 0.2j, 1.0)
        with pytest.raises(vanish.BoundInvariantError,
                           match="assembled bound 49 is below") as info:
            vanishing_order(cfg, 52)
        assert (info.value.assembled, info.value.guaranteed) == (49, 52)
        report = vanishing_order(cfg, 49)
        assert report.at_nmax and report.theorem_bound == INFINITE

    def test_strict_excess_flagged(self):
        # pec-pmc at 1/3 never degenerates (cos(m pi / 3) never vanishes) but
        # the grid bound is finite: the excess must be flagged
        report = vanishing_order(make_config("1/3", case="pec-pmc"), 6)
        assert report.at_nmax
        assert report.theorem_bound == 2
        assert report.strict_excess

    def test_json_round_trip(self):
        report = vanishing_order(make_config("1/3"), 4)
        data = report.to_json_dict()
        back = vanish.VanishReport.from_json_dict(data)
        assert back.to_json_dict() == data

    @pytest.mark.parametrize("alpha,case,n_max", [
        ("1/3", "imp-imp", 4), ("1/3", "pec-pmc", 6), ("0.6180339887", "imp-imp", 3),
        ("1/2", "imp-pec", 3)])
    def test_derived_fields_survive_json(self, alpha, case, n_max):
        report = vanishing_order(make_config(alpha, case=case), n_max)
        back = vanish.VanishReport.from_json_dict(report.to_json_dict())
        for name in ("n_max", "at_nmax", "strict_excess", "order_lower_bound",
                     "theorem_bound"):
            assert getattr(back, name) == getattr(report, name), name
        assert back.n_max == n_max

    def test_json_schema_keys(self):
        report = vanishing_order(make_config("0.6180339887"), 3)
        data = report.to_json_dict()
        assert set(data) == {"alpha", "case", "per_order", "order_lower_bound",
                             "theorem_bound"}
        assert data["order_lower_bound"] == "gte_nmax"
        assert data["theorem_bound"] == "infinite"
        assert data["alpha"]["rational"] is None
        assert set(data["per_order"][0]) == {"n", "nullspace_dim", "det_A",
                                             "det_B", "block_dets"}


class TestHighOrders:
    """Orders above 12, where c_n^n-weighted rows span many decades."""

    ETAS = dict(eta1=1.1 - 0.3j, eta2=0.8 + 0.5j, k=1.2)

    @pytest.mark.parametrize("case", ["imp-imp", "pec-pmc", "imp-pec", "imp-pmc"])
    @pytest.mark.parametrize("alpha", ["0.6180339887", "0.37"])
    def test_irrational_trivial_to_24(self, alpha, case):
        report = vanishing_order(make_config(alpha, case=case, **self.ETAS), 24)
        assert report.at_nmax and report.order_lower_bound == 24

    def test_thirteenth_first_degenerates_at_13(self):
        report = vanishing_order(make_config("1/13", **self.ETAS), 24)
        dims = [d.nullspace_dim for d in report.per_order]
        assert dims == [0] * 12 + [2] * 12
        assert report.order_lower_bound == report.theorem_bound == 12

    @pytest.mark.parametrize("alpha", ["0.6180339887", "1/4", "2/9", "1/13"])
    def test_pecpmc_decided_to_24(self, alpha):
        report = vanishing_order(make_config(alpha, case="pec-pmc"), 24)
        assert [d.n for d in report.per_order] == list(range(1, 25))
        assert report.order_lower_bound >= min(report.theorem_bound, 24)

    def test_max_order(self):
        cfg = make_config("0.6180339887")
        with pytest.raises(ValueError, match="n_max"):
            vanishing_order(cfg, vanish.MAX_ORDER + 1)
        assert nullspace_dim(assemble_order_system(vanish.MAX_ORDER, cfg)) == 0
        with pytest.raises(ValueError, match="order must be in 1..85"):
            assemble_order_system(vanish.MAX_ORDER + 1, cfg)


class TestReflection:
    def test_row_equivalence_one_fifth(self):
        eta = 1.3 + 0.2j
        mixed = make_config("1/5", case="imp-pec", eta2=eta, k=1.1)
        direct = make_config("2/5", eta1=eta, eta2=eta, k=1.1)
        for n in range(1, 5):
            s_ref = assemble_order_system(n, mixed)
            s_dir = assemble_order_system(n, direct)
            assert np.allclose(s_ref.rows, s_dir.rows, atol=1e-15)
            assert nullspace_dim(s_ref) == nullspace_dim(s_dir)

    @pytest.mark.parametrize("case", ["imp-imp", "pec-pmc"])
    def test_effective_config_is_the_config(self, case):
        cfg = make_config("2/7", case=case)
        assert vanish.effective_config(cfg) == (CaseKind(case), cfg)
        assert vanish.effective_config(cfg)[1] is cfg

    @pytest.mark.parametrize("case", [CaseKind.IMP_PEC, CaseKind.IMP_PMC])
    @pytest.mark.parametrize("alpha", ["1/5", "1/2", "0.37"])
    def test_effective_config_reflects(self, case, alpha):
        cfg = make_config(alpha, case=case.value, eta2=1.3 + 0.2j, k=1.1)
        got_case, eff = vanish.effective_config(cfg)
        assert got_case == case
        assert eff.alpha == vanish.reflected_angle(cfg.alpha, case)
        assert eff.bc1 == eff.bc2 == cfg.bc2 and eff.k == cfg.k

    @pytest.mark.parametrize("alpha,expect", [
        ("1/5", (2, 5)),    # 2a
        ("3/4", (1, 2)),    # 2(1-a)
        ("6/5", (2, 5)),    # 2(a-1)
        ("9/5", (2, 5)),    # 2(2-a)
        ("3/2", (1, 1)),    # boundary of the fourth branch
    ])
    def test_four_branch_table(self, alpha, expect):
        eff = vanish.reflected_angle(angles.parse_angle(alpha), CaseKind.IMP_PEC)
        assert eff.rational == expect

    def test_boundary_half(self):
        eff = vanish.reflected_angle(angles.parse_angle("1/2"), CaseKind.IMP_PEC)
        assert eff.rational == (1, 1)
        report = vanishing_order(make_config("1/2", case="imp-pec"), 3)
        assert report.order_lower_bound == 0

    @pytest.mark.parametrize("case", [CaseKind.IMP_PEC, CaseKind.IMP_PMC])
    def test_fraction_matches_exact_arithmetic(self, case):
        half = Fraction(1, 2)
        upper = 1 if case == CaseKind.IMP_PMC else 2
        for p in range(2, 31):
            for q in range(1, upper * p):
                if math.gcd(q, p) != 1:
                    continue
                a = Fraction(q, p)
                expect = (2 * a if a < half else 2 * (1 - a) if a < 1
                          else 2 * (a - 1) if a < 3 * half else 2 * (2 - a))
                eff = vanish.reflected_angle(angles.parse_angle(f"{q}/{p}"), case)
                assert eff.rational == (expect.numerator, expect.denominator)
                assert eff.value == pytest.approx(float(expect), abs=1e-15)


class TestFlatAngle:
    @pytest.mark.parametrize("alpha", ["1/2", "3/2"])
    def test_reflection_lands_on_flat_angle(self, alpha):
        eff = vanish.reflected_angle(angles.parse_angle(alpha), CaseKind.IMP_PEC)
        assert eff == angles.Angle(1.0, (1, 1))

    @pytest.mark.parametrize("case", ["imp-imp", "pec-pmc", "imp-pec", "imp-pmc"])
    def test_hand_built_flat_config_rejected(self, case):
        cfg = make_config(angles.Angle(1.0), case=case)
        with pytest.raises(angles.AngleError):
            assemble_order_system(1, cfg)
        with pytest.raises(angles.AngleError):
            collocation_nullspace(1, cfg)


def _unsplit_dim(system, tol=1e-9):
    """Nullity from one SVD of all unit rows, the decision before the split."""
    s = np.linalg.svd(vanish._unit_rows(system.rows), compute_uv=False)
    rel = s / s[0]
    assert not np.any((tol / 10 < rel) & (rel < tol * 10))
    return int(np.sum(rel < tol)) + system.rows.shape[1] - s.size


def _cascade_count(case, alpha, n):
    """Nullity from the cascade, for the exact angle alpha (None: untagged).

    For m = 1..n the order-n system reduces to 2x2 blocks with determinant
    -2i sin(m a' pi) on impedance faces, a' the assembled (for the mixed
    pairings the reflected) angle, or 2 cos(m a pi) for pec-pmc; each singular
    block frees two unknowns.  At n = 1 head block B, whose determinant
    carries cos^2(a' pi), frees one more at a' = 1/2 and 3/2.
    """
    if alpha is None:
        return 0
    half = Fraction(1, 2)
    if case == "pec-pmc":
        return 2 * sum((m * alpha - half).denominator == 1 for m in range(1, n + 1))
    if case != "imp-imp":
        alpha = (2 * alpha if alpha < half else 2 * (1 - alpha) if alpha < 1
                 else 2 * (alpha - 1) if alpha < 3 * half else 2 * (2 - alpha))
    return (2 * sum((m * alpha).denominator == 1 for m in range(1, n + 1))
            + (n == 1 and alpha in (half, 3 * half)))


class TestParityBlocks:
    ETAS = dict(eta1=1.1 - 0.3j, eta2=0.8 + 0.5j, k=1.2)

    @pytest.mark.parametrize("case", ["imp-imp", "pec-pmc", "imp-pec", "imp-pmc"])
    def test_split_rank_matches_unsplit_and_cascade(self, case):
        # every reduced q/p with p <= 16 and three untagged decimals; each
        # angle is checked at n = 1, around its first change of nullity, and
        # at one order that rotates through 1..24 from angle to angle
        upper = 1 if case == "imp-pmc" else 2
        cases = [(f"{q}/{p}", Fraction(q, p)) for p in range(2, 17)
                 for q in range(1, upper * p) if math.gcd(q, p) == 1]
        cases += [(text, None) for text in ("0.6180339887", "0.37", "1.41421356237")
                  if float(text) < upper]
        orders_seen = set()
        for i, (text, exact) in enumerate(cases):
            cfg = make_config(text, case=case, **self.ETAS)
            counts = [_cascade_count(case, exact, n) for n in range(25)]
            jump = next((n for n in range(2, 25) if counts[n] != counts[n - 1]), 1)
            for n in {1, 1 + i % 24, jump - 1 or 1, jump}:
                system = assemble_order_system(n, cfg)
                assert nullspace_dim(system) == _unsplit_dim(system) == counts[n], \
                    (text, n)
                orders_seen.add(n)
        assert orders_seen == set(range(1, 25))

    def test_every_row_in_one_class(self):
        for case in ("imp-imp", "pec-pmc", "imp-pec"):
            for n in (1, 2, 5):
                system = assemble_order_system(n, make_config("0.41", case=case,
                                                              **self.ETAS))
                classes = vanish._parity_blocks(system)[1]
                assert list(classes.sum(axis=1)) == [2 * n + 1] * 2
                assert not np.any(classes[0] & classes[1])
                touched = [np.any(system.rows[:, c] != 0, axis=1) for c in classes]
                assert not np.any(touched[0] & touched[1])

    @pytest.mark.parametrize("alpha", ["1/2", "3/2"])
    def test_zero_edge_rows_at_the_flat_angle_pass(self, alpha):
        # reflected to alpha' = 1, where sin(alpha' pi) = 0 empties two rows
        system = assemble_order_system(2, make_config(alpha, case="imp-pec",
                                                      **self.ETAS))
        zero = [t for t, r in zip(system.provenance, system.rows) if not r.any()]
        assert "face2-edge-y" in zero
        assert nullspace_dim(system) == _unsplit_dim(system) == 4

    @pytest.mark.parametrize("alpha,case,n", [("1/13", "imp-imp", 13),
                                              ("1/4", "pec-pmc", 2),
                                              ("1/2", "imp-pec", 2)])
    def test_basis_per_block(self, alpha, case, n):
        system = assemble_order_system(n, make_config(alpha, case=case, **self.ETAS))
        basis = vanish.nullspace_basis(system)
        dim = nullspace_dim(system)
        assert dim > 0 and basis.shape == (system.rows.shape[1], dim)
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(dim), atol=1e-12)
        assert np.max(np.abs(vanish._unit_rows(system.rows) @ basis)) < 1e-10
        # each vector lives on the columns of one class
        classes = vanish._parity_blocks(system)[1]
        for v in basis.T:
            assert sum(np.any(v[c] != 0) for c in classes) == 1

    def test_bare_matrix_is_one_block(self):
        blocks, classes = vanish._parity_blocks(np.eye(3, dtype=complex)[:2])
        assert blocks.shape == (1, 2, 3)
        assert classes.tolist() == [[True, True, True]]

    @pytest.mark.parametrize("rows,problem", [
        ([[1.0, np.nan], [0.0, 1.0]], "has a NaN entry"),
        ([[1.0, np.inf], [0.0, 1.0]], "has an infinite entry"),
        ([1.0, 2.0], r"must be 2-D, got shape \(2,\)"),
    ])
    def test_malformed_bare_matrix_refused(self, rows, problem):
        # earlier: SVD did not converge, an overflow warning, or an AxisError
        for decide in (nullspace_dim, vanish.nullspace_basis):
            with pytest.raises(ValueError, match=problem):
                decide(np.array(rows, dtype=complex))

    @pytest.mark.parametrize("rows", [[[1e200, 1e200], [1e200, -1e200]],
                                      np.diag([1e-170, 1.0]),
                                      [[1.5e308 + 1.5e308j, 1.0], [1.0, 1.0]]],
                             ids=["norm-overflows", "norm-underflows",
                                  "modulus-overflows"])
    @pytest.mark.parametrize("decide", [nullspace_dim, vanish.nullspace_basis])
    def test_rows_of_extreme_scale_in_a_bare_matrix(self, rows, decide):
        # all have full rank; unscaled, a row norm overflows (a full nullity
        # after a warning) or the 1e-170 row's squared norm underflows to 0
        dim = decide(np.array(rows, dtype=complex))
        assert (dim if decide is nullspace_dim else dim.shape[1]) == 0

    def test_layout_builder_names_a_row_in_both_classes(self, monkeypatch):
        tag = "face2-chain-e1 mu=2"
        row = vanish._tags(3, CaseKind.IMP_IMP).index(tag)
        chain_entries = vanish._chain_entries

        def corrupted(orders):
            k, rows, cols, *rest = (np.array(x) for x in chain_entries(orders))
            hit = np.flatnonzero((orders[k] == 3) & (rows == row))[0]
            assert vanish._columns(cols[hit])[0] == 0
            cols[hit] = 2                               # a_1, class 1
            return (k, rows, cols, *rest)
        monkeypatch.setattr(vanish, "_chain_entries", corrupted)
        for orders in ([3], [1, 2, 3, 4]):
            with pytest.raises(ValueError, match=f"'{tag}' has nonzeros in both"):
                vanish._build_layout(np.array(orders), CaseKind.IMP_IMP)


class TestReportFill:
    """vanishing_order fills every order in one pass; assemble_order_system
    builds one order from the same layout and entry values."""

    ETAS = dict(eta1=1.1 - 0.3j, eta2=0.8 + 0.5j, k=1.2)

    @pytest.mark.parametrize("case", ["imp-imp", "pec-pmc", "imp-pec", "imp-pmc"])
    def test_report_ranks_equal_assembled_ranks(self, case):
        # every reduced q/p with p <= 16, which includes the mixed pairings at
        # 1/2 and 3/2 (reflected to alpha' = 1), and three untagged angles
        upper = 1 if case == "imp-pmc" else 2
        texts = [f"{q}/{p}" for p in range(2, 17) for q in range(1, upper * p)
                 if math.gcd(q, p) == 1]
        texts += [t for t in ("0.6180339887", "0.37", "1.41421356237")
                  if float(t) < upper]
        for text in texts:
            cfg = make_config(text, case=case, **self.ETAS)
            report = vanishing_order(cfg, 24)
            assert [d.nullspace_dim for d in report.per_order] == [
                nullspace_dim(assemble_order_system(n, cfg))
                for n in range(1, 25)], text

    def test_column_classes_follow_the_labels(self):
        for n in (1, 2, 7):
            labels = vanish.column_labels(n)
            classes, slots = vanish._columns(np.arange(len(labels)))
            for c in (0, 1):
                members = [fam_m for fam_m, k in zip(labels, classes) if k == c]
                assert all((m + (fam == "b")) % 2 == c for fam, m in members)
                assert slots[classes == c].tolist() == list(range(2 * n + 1))

    @pytest.mark.parametrize("alpha,case", [("2/7", "imp-imp"), ("0.37", "pec-pmc"),
                                            ("1/2", "imp-pec"),
                                            ("0.6180339887", "imp-pmc")])
    def test_report_blocks_are_the_assembled_blocks(self, alpha, case):
        # the report decides on the very blocks assemble_order_system
        # returns, bit for bit, and each order's blocks are its own
        cfg = make_config(alpha, case=case, **self.ETAS)
        source, eff = vanish.effective_config(cfg)
        layout = vanish._layout(tuple(range(1, 13)), vanish._assembled_case(source))
        systems = list(vanish._systems(layout, eff))
        assert [s.n for s in systems] == list(range(1, 13))
        for system in systems:
            alone = assemble_order_system(system.n, cfg)
            np.testing.assert_array_equal(system.blocks, alone.blocks)
            np.testing.assert_array_equal(system.norms, alone.norms)
            assert system.blocks.flags.owndata, system.n

    @pytest.mark.parametrize("alpha,case", [("1/13", "imp-imp"), ("2/9", "pec-pmc")])
    def test_report_peak_memory_is_one_order(self, alpha, case):
        # the blocks of one order at a time are alive, not those of a run
        # of orders: at n_max 85 one order's blocks are about 1 MB
        cfg = make_config(alpha, case=case)             # eta = 1, k = 1
        vanishing_order(cfg, vanish.MAX_ORDER)
        tracemalloc.start()
        try:
            vanishing_order(cfg, vanish.MAX_ORDER)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6, peak

    @pytest.mark.parametrize("alpha,j", [("0.33333", 3), ("0.4000001", 5)])
    def test_ambiguity_names_its_order(self, capsys, alpha, j):
        # just off q/j the order-j cascade block is nearly singular, so its
        # smallest relative singular value lies far below the lower orders'
        from edgewave.cli import main
        cfg = make_config(alpha)

        def relative(n):
            blocks, _ = vanish._parity_blocks(assemble_order_system(n, cfg))
            s = np.linalg.svd(blocks, compute_uv=False)
            return s / s.max()
        tol = float(relative(j).min())
        for n in range(1, j):
            assert relative(n).min() > 10 * tol
        with pytest.raises(RankAmbiguityError) as info:
            vanishing_order(cfg, j + 2, tol=tol)
        assert info.value.order == j
        code = main(["analyze", "--alpha", alpha, "--case", "imp-imp", "--eta1", "1",
                     "--eta2", "1", "--nmax", str(j + 2), "--tol", repr(tol)])
        assert code == 2
        assert capsys.readouterr().err == f"rank ambiguity at order {j}: {info.value}\n"

    def test_library_decimal_angle_needs_its_fraction(self):
        # an untagged 0.37 has an infinite grid bound, yet the reflected
        # angle 37/50 degenerates at n = 50; parse_angle tags it 37/100
        cfg = vanish.config_for_case(CaseKind.IMP_PEC, angles.Angle(0.37), None,
                                     1.3 + 0.2j, 1.1)
        with pytest.raises(vanish.BoundInvariantError,
                           match="nullspace dimension 2 at order 50"):
            vanishing_order(cfg, vanish.MAX_ORDER)
        tagged = vanish.config_for_case(CaseKind.IMP_PEC, angles.parse_angle("0.37"),
                                        None, 1.3 + 0.2j, 1.1)
        report = vanishing_order(tagged, vanish.MAX_ORDER)
        assert report.order_lower_bound == report.theorem_bound == 49
