import json
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
                             block_det, closed_dets, column_labels,
                             nullspace_dim, theorem_bound, vanishing_order)


def _label_index(n):
    return {c: i for i, c in enumerate(column_labels(n))}


class TestAssembly:
    def test_first_order_block_determinant(self):
        # eta1 = eta2 = 1, k = 1, alpha = 1/3: det of the 3x3 head block
        cfg = make_config("1/3")
        system = assemble_order_system(1, cfg)
        c0 = math.sqrt(3 / (4 * math.pi))
        c1 = math.sqrt(3 / (8 * math.pi))
        expect = (-1j * (2 / 3) ** 3 * (math.sqrt(2) / 2) * c1 ** 2 * c0
                  * math.sin(math.pi / 3) ** 2)
        assert np.linalg.det(system.head_blocks[0]) == pytest.approx(expect, rel=1e-12)

    def test_pecpmc_first_order_two_by_two_blocks(self):
        cfg = make_config("1/3", case="pec-pmc")
        system = assemble_order_system(1, cfg)
        ix = _label_index(1)
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
        assert column_labels(2) == [("b", 0), ("a", 0), ("a", 1), ("a", -1),
                                 ("b", 1), ("b", -1), ("a", 2), ("a", -2),
                                 ("b", 2), ("b", -2)]

    def test_unsupported_pairings(self):
        from edgewave.corner import EdgeCornerConfig, ImpedanceSpec
        cfg = EdgeCornerConfig(angles.parse_angle("1/3"),
                               ImpedanceSpec.infinite(),
                               ImpedanceSpec.infinite(), 1.0)
        with pytest.raises(UnsupportedPairingError,
                           match=r"\(INFINITE, INFINITE\); edgewave analyzes "
                                 r"imp-imp, pec-pmc, imp-pec, imp-pmc$"):
            assemble_order_system(1, cfg)

    def test_impmc_domain(self):
        with pytest.raises(ValueError):
            assemble_order_system(1, make_config("3/2", case="imp-pmc"))

    @pytest.mark.parametrize("eta, k", [(1.0, 1e160), (1e300, 1e10),
                                        (1e110, 1e110)])
    def test_overflowing_k_or_eta_is_refused(self, eta, k):
        # the report's displayed head-block determinants overflow a float
        cfg = make_config("1/3", eta1=eta, eta2=eta, k=k)
        message = re.escape(f"k = {k!r} with eta = {complex(eta)!r}, "
                            f"{complex(eta)!r} overflows the boundary system")
        with pytest.raises(ValueError, match=message):
            vanishing_order(cfg, 2)

    @pytest.mark.parametrize("eta, k", [(1.0, 1e160), (1e300, 1e10),
                                        (1e110, 1e110)])
    def test_overflowing_k_or_eta_still_assembles(self, eta, k):
        # the rows are in k a and eta2 b, so no entry carries k or eta;
        # earlier these were refused, and before that nullspace_dim warned of
        # an overflow and returned a full nullity
        cfg = make_config("1/3", eta1=eta, eta2=eta, k=k)
        assert [nullspace_dim(assemble_order_system(n, cfg)) for n in (2, 3)] == [0, 2]

    @pytest.mark.parametrize("eta1, size", [(1e-9, "1e-09"), (-2e8j, "2e+08"),
                                            (1e300, "1e+300")])
    def test_eta_ratio_outside_the_window_is_refused(self, eta1, size):
        # both faces share the b-columns, so eta1/eta2 is the one scale left
        # in the entries; past about 1e10 it gives wrong dims
        cfg = make_config("1/3", eta1=eta1, eta2=1.0)
        message = re.escape(f"|eta1/eta2| = {size} is outside [1e-08, 1e+08]")
        with pytest.raises(ValueError, match=message):
            assemble_order_system(2, cfg)
        with pytest.raises(ValueError, match=message):
            vanishing_order(cfg, 2)

    @pytest.mark.parametrize("eta1", [1e-8, 1e8, 0.6e8 + 0.8e8j])
    def test_eta_ratio_at_the_window_edge_assembles(self, eta1):
        system = assemble_order_system(2, make_config("1/3", eta1=eta1, eta2=1.0))
        assert system.rows.shape == (18, 10)


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
        ix = _label_index(n)
        phase = system.config.alpha.value * math.pi
        ref = np.vstack([_loop_chain_rows(n, eta1, k, 0.0, ix),
                         _loop_chain_rows(n, eta2, k, phase, ix)])
        self.assert_rows_close(system.rows[6:], ref)

    def test_first_order_keeps_one_chain_row(self):
        system = assemble_order_system(1, make_config("2/7", eta1=1.1 - 0.3j, k=1.2))
        ref = _loop_chain_rows(1, 1.1 - 0.3j, 1.2, 0.0, _label_index(1))
        assert system.provenance[6:] == ["face1-chain-e2 mu=0"]
        self.assert_rows_close(system.rows[6:], ref[2:3])

    @pytest.mark.parametrize("n", [1, 2, 9, 85])
    def test_pecpmc_matches_entry_loop(self, n):
        system = assemble_order_system(n, make_config("2/9", case="pec-pmc"))
        ref = _loop_pecpmc_rows(n, 2 / 9 * math.pi, _label_index(n))
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
    def test_threshold_outside_unit_interval_refused(self, monkeypatch, tol):
        # at tol <= 0 no value is below it, and every order would read full
        # rank; the certificate is not tried first
        def certify(blocks, tol):
            raise AssertionError("certificate tried")
        monkeypatch.setattr(vanish, "_certified_nullities", certify)
        system = assemble_order_system(3, make_config("0.37"))
        for decide in (nullspace_dim, vanish.nullspace_basis):
            with pytest.raises(ValueError, match=r"tol must be in \(0, 1\)"):
                decide(system, tol=tol)
        with pytest.raises(ValueError, match=f"got {tol!r}"):
            vanish.vanishing_order(make_config("1/3"), 6, tol=tol)
        for matrix in (np.zeros((2, 2)), np.eye(3)):
            with pytest.raises(ValueError, match="tol must be"):
                nullspace_dim(matrix, tol=tol)


class TestClosedDeterminants:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    def test_match_numeric(self, n, rng):
        alpha = float(rng.uniform(0.06, 0.94))
        cfg = make_config(repr(alpha), eta1=complex(*rng.standard_normal(2)),
                          eta2=complex(*rng.standard_normal(2)),
                          k=float(rng.uniform(0.5, 2)))
        system = assemble_order_system(n, cfg)
        for block, closed in zip(system.head_blocks, closed_dets(n, cfg)):
            assert abs(np.linalg.det(block) - closed) / abs(closed) < 1e-10

    @pytest.mark.parametrize("case,alpha", [("imp-pec", "0.37"), ("imp-pec", "1.3"),
                                            ("imp-pec", "1/5"), ("imp-pmc", "0.13"),
                                            ("imp-pmc", "0.62")])
    def test_mixed_pairings_match_numeric(self, case, alpha):
        cfg = make_config(alpha, case=case, eta2=0.8 + 0.5j, k=1.2)
        for n in range(1, 11):
            system = assemble_order_system(n, cfg)
            for block, expect in zip(system.head_blocks, closed_dets(n, cfg)):
                assert abs(np.linalg.det(block) - expect) / abs(expect) < 1e-10

    @pytest.mark.parametrize("case", ["imp-imp", "pec-pmc", "imp-pec", "imp-pmc"])
    def test_report_carries_the_public_closed_dets(self, case):
        cfg = make_config("0.37", case=case, eta1=1.1 - 0.3j, eta2=0.8 + 0.5j,
                          k=1.2)
        for d in vanishing_order(cfg, 6).per_order:
            if case == "pec-pmc":
                assert d.det_A_closed is d.det_B_closed is None
                assert assemble_order_system(d.n, cfg).head_blocks is None
            else:
                assert (d.det_A_closed, d.det_B_closed) == closed_dets(d.n, cfg)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_head_blocks_are_the_assembled_rows(self, n):
        # each head-block row, mapped back from (x^1 + x^-1, x^1 - x^-1,
        # third), is the whole assembled row of that tag
        cfg = make_config("0.41", eta1=1.7 - 0.3j, eta2=0.9 + 0.2j, k=1.3)
        system = assemble_order_system(n, cfg)
        ix = _label_index(n)
        block_a, block_b = system.head_blocks
        for block, tags, fam, third in (
                (block_a, ("matching-x", "matching-y",
                           "face1-chain-e2 mu=0"), "a", ("b", 0)),
                (block_b, ("face2-edge-x", "face2-edge-y", "matching-z"),
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
        ca = closed_dets(3, cfg)[0]
        assert abs(np.linalg.det(system.head_blocks[0]) - ca) / abs(ca) < 1e-10

    def test_b_vanishes_at_right_angles(self):
        for alpha in ("1/2", "3/2"):
            assert closed_dets(3, make_config(alpha))[1] == pytest.approx(0.0, abs=1e-30)

    def test_case_error(self):
        with pytest.raises(UnsupportedPairingError):
            closed_dets(1, make_config("1/3", case="pec-pmc"))

    def test_first_order_reduction(self):
        # at n = 1 the prefactor reduces to (2/3)^3 (sqrt2/2) (c_1^1)^2 c_1^0
        cfg = make_config("0.37", eta1=1.0, k=1.0)
        c0, c1 = math.sqrt(3 / (4 * math.pi)), math.sqrt(3 / (8 * math.pi))
        expect = (-1j * (2 / 3) ** 3 * math.sqrt(2) / 2 * c1 ** 2 * c0
                  * math.sin(0.37 * math.pi) ** 2)
        assert closed_dets(1, cfg)[0] == pytest.approx(expect, rel=1e-14)


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

    @pytest.mark.parametrize("edit", ["lower_bound", "theorem_bound", "block_dets",
                                      "order_dropped", "no_rational",
                                      "no_nullspace_dim", "det_triple",
                                      "per_order_text", "list", "float_nullity",
                                      "negative_nullity", "nullity_above_unknowns",
                                      "det_A_on_pec_pmc", "null_det_A", "null_det_B",
                                      "order_above_cap", "every_block_det"])
    def test_json_that_contradicts_itself_is_refused(self, edit):
        # at 1/3, n_max 4, orders 3 and 4 have nullity 2: the lower bound is
        # 2, the grid bound 2, and order 2's block determinant is -2i sin(2pi/3).
        # The JSON comes from outside the program, so a missing key or a
        # value of the wrong type is a ValueError too, and so is a fact no
        # report can hold: a nullity written as a float, or outside 0..2(2n+1)
        # at an order past the bound, head determinants on pec-pmc or none on
        # an impedance pairing, an order past MAX_ORDER, or block determinants
        # other than the angle's, even where every order agrees on them
        data = vanishing_order(make_config("1/3"), 4).to_json_dict()
        if edit == "lower_bound":
            data["order_lower_bound"] = "gte_nmax"
        elif edit == "theorem_bound":
            data["theorem_bound"] = 7
        elif edit == "block_dets":
            data["per_order"][1]["block_dets"] = [[5.0, 0.0]]
        elif edit == "order_dropped":
            del data["per_order"][1]
        elif edit == "no_rational":
            del data["alpha"]["rational"]
        elif edit == "no_nullspace_dim":
            del data["per_order"][2]["nullspace_dim"]
        elif edit == "det_triple":
            data["per_order"][0]["det_A"] = [1, 2, 3]
        elif edit == "per_order_text":
            data["per_order"] = "1, 2, 3, 4"
        elif edit == "float_nullity":
            data["per_order"][0]["nullspace_dim"] = 0.0
        elif edit == "negative_nullity":
            data["per_order"][2]["nullspace_dim"] = -2
        elif edit == "nullity_above_unknowns":
            data["per_order"][2]["nullspace_dim"] = 2 * (2 * 3 + 1) + 1
        elif edit == "det_A_on_pec_pmc":
            data = vanishing_order(make_config("1/3", case="pec-pmc"), 4).to_json_dict()
            data["per_order"][0]["det_A"] = [2.0, 1.0]
        elif edit in ("null_det_A", "null_det_B"):
            data["per_order"][1][edit[5:]] = None
        elif edit == "order_above_cap":
            data = vanishing_order(make_config("1/3"), vanish.MAX_ORDER).to_json_dict()
            top = dict(data["per_order"][-1], n=vanish.MAX_ORDER + 1, nullspace_dim=56)
            z = block_det(vanish.MAX_ORDER + 1, angles.parse_angle("1/3"), "sin")
            top["block_dets"] = top["block_dets"] + [[z.real, z.imag]]
            data["per_order"].append(top)
        elif edit == "every_block_det":
            for order in data["per_order"][1:]:
                order["block_dets"][0] = [7.0, 0.0]
        else:
            data = [data]
        with pytest.raises(ValueError):
            vanish.VanishReport.from_json_dict(data)

    def test_block_dets_are_held_once(self):
        # one list, m = 2..n_max, derived from the angle the rows are
        # assembled at and read only; order n renders the least modulus of
        # its first n - 1
        report = vanishing_order(make_config("2/7"), 6)
        assert report.block_dets == [block_det(m, report.alpha, "sin")
                                     for m in range(2, 7)]
        lows = [line.split()[-1] for line in report.render().splitlines()[2:8]]
        assert lows == ["-"] + [f"{min(map(abs, report.block_dets[:n - 1])):.3e}"
                                for n in range(2, 7)]
        with pytest.raises(AttributeError):
            report.block_dets = []
        for case, kind in (("imp-pmc", "sin"), ("pec-pmc", "cos")):
            report = vanishing_order(make_config("2/7", case=case), 6)
            angle = vanish.effective_config(make_config("2/7", case=case))[1].alpha
            assert report.block_dets == [block_det(m, angle, kind) for m in range(2, 7)]

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


def _reference_json_dict(report):
    """The report's JSON object built field by field, every value of every
    order on its own, as json.dumps is to write it."""
    def pair(z):
        return None if z is None else [z.real, z.imag]
    per = [{"n": d.n, "nullspace_dim": d.nullspace_dim,
            "det_A": pair(d.det_A_closed), "det_B": pair(d.det_B_closed),
            "block_dets": [pair(z) for z in report.block_dets[:d.n - 1]]}
           for d in report.per_order]
    return {"alpha": {"value": report.alpha.value,
                      "rational": list(report.alpha.rational)
                      if report.alpha.rational else None},
            "case": report.case.value,
            "per_order": per,
            "order_lower_bound": "gte_nmax" if report.at_nmax
            else report.order_lower_bound,
            "theorem_bound": "infinite" if report.theorem_bound == INFINITE
            else int(report.theorem_bound)}


class TestJsonWriter:
    """to_json formats each block determinant once; its text is what
    json.dumps writes of the report's fields."""

    @pytest.mark.parametrize("alpha,case,n_max,scale", [
        ("2/9", "pec-pmc", 24, {}),              # det_A and det_B null
        ("1/3", "imp-imp", 1, {}),               # no block determinants
        ("1/13", "imp-imp", vanish.MAX_ORDER, dict(eta1=1.3 - 0.2j, eta2=0.7 + 0.4j)),
        ("0.6180339887", "imp-imp", vanish.MAX_ORDER, {}),   # untagged
        ("0.37", "imp-pec", vanish.MAX_ORDER, dict(eta2=1 - 1j)),
        ("1/3", "imp-imp", 12, dict(k=1e-300)),
        ("1/3", "imp-imp", 12, dict(k=1e100)),
        ("1/5", "imp-pec", 12, dict(eta1=1e-12, eta2=1e-12)),
        ("3/7", "imp-pmc", 12, dict(eta1=1e12, eta2=1e12)),
        ("1/2", "imp-pec", 6, {}),               # order 1 decided by the SVD
        ("0.25", "pec-pmc", 12, {}),             # a decimal tagged 1/4
    ])
    def test_text_is_json_dumps_of_the_fields(self, alpha, case, n_max, scale):
        report = vanishing_order(make_config(alpha, case=case, **scale), n_max)
        text = report.to_json()
        assert text == json.dumps(_reference_json_dict(report))
        assert report.to_json_dict() == _reference_json_dict(report)
        assert vanish.VanishReport.from_json_dict(json.loads(text)).to_json() == text

    @pytest.mark.parametrize("where", ["det_A", "det_B"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_is_refused(self, where, bad):
        # json.dumps would write NaN or Infinity, which is not JSON
        report = vanishing_order(make_config("1/3"), 4)
        d = report.per_order[-1]
        if where == "det_A":
            d.det_A_closed = complex(bad, 1.0)
        else:
            d.det_B_closed = complex(bad, bad)
        with pytest.raises(ValueError, match="no JSON number"):
            report.to_json()


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

    @pytest.mark.parametrize("alpha,doubled", [("0.2000000000004", (2, 5)),
                                               ("0.200000000001", None),
                                               ("0.7999999999991", None)])
    def test_fraction_kept_within_the_tag_tolerance(self, alpha, doubled):
        # doubling doubles the distance to the fraction: 8e-13 keeps the
        # tag, 1.8e-12 and 2e-12 drop it
        angle = angles.parse_angle(alpha)
        assert angle.rational is not None
        eff = vanish.reflected_angle(angle, CaseKind.IMP_PEC)
        assert eff.rational == doubled
        shift, sign = (0, 1) if angle.value < 0.5 else (1, -1)
        assert eff.value == 2 * (shift + sign * angle.value)


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
        # the basis is in a and b, mapped back from k a and eta2 b: at
        # k = 1e-8, eta = 1e6 across 14 decades
        for etas in (self.ETAS, dict(eta1=1e6, eta2=1e6, k=1e-8)):
            system = assemble_order_system(n, make_config(alpha, case=case, **etas))
            basis = vanish.nullspace_basis(system)
            dim = nullspace_dim(system)
            assert dim > 0 and basis.shape == (system.rows.shape[1], dim)
            np.testing.assert_allclose(basis.conj().T @ basis, np.eye(dim),
                                       atol=1e-12)
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

    @pytest.mark.parametrize("case", [CaseKind.IMP_IMP, CaseKind.PEC_PMC])
    def test_layout_pairs_each_column_pair_of_a_row(self, case):
        # the butterfly takes entries plus[j], minus[j] to their sum and
        # difference: one row, columns (fam, m) and (fam, -m), and with the
        # m = 0 entries every entry exactly once
        layout = vanish._layout(tuple(range(1, vanish.MAX_ORDER + 1)), case)
        assert (layout.row[layout.plus] == layout.row[layout.minus]).all()
        labels = vanish.column_labels(vanish.MAX_ORDER)
        for p, q in zip(layout.col[layout.plus], layout.col[layout.minus]):
            fam, m = labels[p]
            assert m >= 1 and labels[q] == (fam, -m)
        assert sorted(np.concatenate([layout.plus, layout.minus, layout.zero])) \
            == list(range(layout.col.size))
        assert (layout.col[layout.zero] < 2).all()

    @pytest.mark.parametrize("case", [CaseKind.IMP_IMP, CaseKind.PEC_PMC])
    def test_a_layout_of_some_orders_keeps_their_entry_order(self, case):
        # ConstraintSystem.rows reads an order of a long pass through the
        # layout of that order alone: each order's entries sit in the same
        # rows, columns and block positions, in the same order
        full = vanish._layout(tuple(range(1, vanish.MAX_ORDER + 1)), case)
        for orders in ((1,), (7,), (85,), (3, 12, 40), (9, 2), (5, 5)):
            layout = vanish._layout(orders, case)
            for (n, entries, rows, *_), (m, mine, own, *_) in zip(
                    (full.parts[n - 1] for n in orders), layout.parts):
                assert n == m
                for at in ("pos", "col"):
                    np.testing.assert_array_equal(getattr(full, at)[entries],
                                                  getattr(layout, at)[mine])
                np.testing.assert_array_equal(full.row[entries] - rows.start,
                                              layout.row[mine] - own.start)


class TestScaleFree:
    """The rows are in k a and eta2 b, so the dims do not depend on the size
    of k or of eta1 = eta2.  Earlier a row held ik- and eta-entries that no
    row scaling balances: far from k ~ |eta| the report read a rank
    ambiguity (exit 2) or a bound below the grid bound (exit 4)."""

    ANGLES = {"imp-imp": "1/3", "pec-pmc": "1/4", "imp-pec": "1/5",
              "imp-pmc": "3/7"}

    @staticmethod
    def dims(cfg, n_max):
        return [d.nullspace_dim for d in vanishing_order(cfg, n_max).per_order]

    @pytest.mark.parametrize("k, eta", [(1e-300, 1.0), (1e-12, 1.0), (1e-8, 1.0),
                                        (1e8, 1.0), (1e12, 1.0), (1e100, 1.0),
                                        (1.0, 1e-12), (1.0, 1e12)])
    @pytest.mark.parametrize("case", ["imp-imp", "pec-pmc", "imp-pec", "imp-pmc"])
    def test_dims_do_not_depend_on_the_scale(self, case, k, eta):
        alpha = self.ANGLES[case]
        expect = self.dims(make_config(alpha, case=case), 24)
        assert expect == [_cascade_count(case, Fraction(alpha), n)
                          for n in range(1, 25)]
        cfg = make_config(alpha, case=case, eta1=eta, eta2=eta, k=k)
        assert self.dims(cfg, 24) == expect
        assert [nullspace_dim(assemble_order_system(n, cfg))
                for n in range(1, 25)] == expect

    def test_highest_order(self):
        expect = self.dims(make_config("1/3"), 85)
        assert self.dims(make_config("1/3", k=1e-12), 85) == expect
        system = assemble_order_system(85, make_config("1/3", eta1=1e12,
                                                       eta2=1e12))
        assert nullspace_dim(system) == expect[-1] == 56

    @pytest.mark.parametrize("ratio", [1e-5, 1e5j])
    def test_eta_ratio_inside_the_window(self, ratio):
        expect = self.dims(make_config("1/3"), 24)
        assert self.dims(make_config("1/3", eta1=ratio, eta2=1.0), 24) == expect


def _outcome(decide):
    """decide()'s value, or the type and message of the error it raised."""
    try:
        return decide()
    except (RankAmbiguityError, vanish.BoundInvariantError) as exc:
        return type(exc).__name__, str(exc)


def _spy_lanes(monkeypatch):
    """The lanes each _factor_windows call factors, as lists: two lanes,
    its classes, per order of the pass."""
    calls, factor = [], vanish._factor_windows

    def spy(band, plan):
        lanes = factor(band, plan)
        calls.append(lanes.tolist())
        return lanes
    monkeypatch.setattr(vanish, "_factor_windows", spy)
    return calls


class TestCertificate:
    """nullspace_dim first tries to prove each nullity without its SVD: the
    parity blocks hold the (fam, +-m) column pairs as sums and differences,
    columns below the deflation bound are deflated, and the Gram matrices
    of the rest, shifted by CERTIFY_THETA times the layout's bound on
    s_max^2, take one
    windowed banded Cholesky factorization over all orders; only at an
    order with a refused lane, one of its two classes, does the SVD
    decide.  The grid: every reduced q/p with
    p <= 12, five quadratic irrationals and decimals 1e-11 to 1e-8 off 1/3,
    1/4 and 1/5, in every pairing, at n <= 24, under TestReportFill's
    impedances, k = eta = 1 and TestScaleFree's scalings."""

    ORDERS = tuple(range(1, 25))
    UNIT = dict(eta1=1.0, eta2=1.0, k=1.0)
    SCALINGS = [dict(eta1=eta, eta2=eta, k=k) for k, eta in (
        (1e-300, 1.0), (1e-12, 1.0), (1e-8, 1.0), (1e8, 1.0), (1e12, 1.0),
        (1e100, 1.0), (1.0, 1e-12), (1.0, 1e12))]
    IRRATIONALS = ((math.sqrt(5) - 1) / 2, math.sqrt(2) - 1, math.sqrt(3) / 2,
                   math.sqrt(2), (1 + math.sqrt(3)) / 2)

    @classmethod
    def angles(cls, case):
        upper = 1 if case == "imp-pmc" else 2
        texts = [f"{q}/{p}" for p in range(2, 13) for q in range(1, upper * p)
                 if math.gcd(q, p) == 1]
        texts += [repr(x) for x in cls.IRRATIONALS if x < upper]
        return texts + [repr(f + d) for f in (1 / 3, 1 / 4, 1 / 5)
                        for d in (1e-11, -1e-10, 1e-9, -1e-8)]

    @classmethod
    def systems(cls, text, case, scale):
        source, eff = vanish.effective_config(make_config(text, case=case, **scale))
        layout = vanish._layout(cls.ORDERS, vanish._assembled_case(source))
        return list(vanish._systems(layout, eff))

    @pytest.mark.parametrize("case", ["imp-imp", "pec-pmc", "imp-pec", "imp-pmc"])
    def test_certified_orders_agree_with_the_svd(self, case):
        # the scalings leave every block bit for bit as at k = eta = 1 (the
        # entries carry eta1/eta2 = 1, and no k), so each pass is certified
        # once and each distinct block set is decided once; where the
        # certificate proves a nullity d, the SVD's nullity is d, its d
        # smallest relative singular values are at most tol/10 and the
        # others at least sqrt(theta)/2; and nullspace_dim of the systems
        # the SVD decides, both passes in one list, gives the SVD's nullities
        floor = math.sqrt(vanish.CERTIFY_THETA) / 2
        refused = trivial = nontrivial = 0
        for text in self.angles(case):
            unit = self.systems(text, case, self.UNIT)
            blocks = [system.blocks.tobytes() for system in unit]
            for scale in self.SCALINGS:
                assert [system.blocks.tobytes()
                        for system in self.systems(text, case, scale)] == blocks
            passes = (unit, self.systems(text, case, TestReportFill.ETAS))
            distinct = {system.blocks.tobytes(): (system, d) for systems in passes
                        for system, d in zip(systems,
                                             vanish._certified_nullities(systems, 1e-9))}
            decided = []
            for system, d in distinct.values():
                svd = _outcome(lambda: vanish._svd_nullity(system, 1e-9))
                if isinstance(svd, int):
                    decided.append((system, svd))
                s = np.linalg.svd(system.blocks, compute_uv=False)
                rel = np.sort(np.append(s, np.zeros(2 * (2 * system.n + 1) - s.size)))
                rel /= rel[-1]
                if d is None:
                    refused += 1
                    continue
                assert svd == d and rel[d] >= floor, (text, system.n)
                assert d == 0 or rel[d - 1] <= 1e-10, (text, system.n)
                trivial, nontrivial = trivial + (d == 0), nontrivial + (d > 0)
            if decided:   # near 1/4 every order of imp-pec is ambiguous
                systems, svds = zip(*decided)
                assert nullspace_dim(list(systems)) == list(svds), text
        assert refused > 0 and trivial > 0 and nontrivial > 0

    @pytest.mark.parametrize("case", ["imp-imp", "pec-pmc", "imp-pec", "imp-pmc"])
    def test_reports_do_not_depend_on_the_certificate(self, monkeypatch, case):
        # the scalings give the unit blocks (test above), and outside imp-imp
        # so do TestReportFill's impedances (the entries carry no eta, or
        # eta1/eta2 = 1): these scales cover every block set of the grid
        scales = (self.UNIT, TestReportFill.ETAS) if case == "imp-imp" \
            else (TestReportFill.ETAS,)
        for text in self.angles(case):
            for scale in scales:
                cfg = make_config(text, case=case, **scale)
                expect = _outcome(lambda: vanishing_order(cfg, 24).to_json_dict())
                with monkeypatch.context() as patch:
                    patch.setattr(vanish, "_certified_nullities",
                                  lambda systems, tol: [None] * len(systems))
                    assert _outcome(lambda: vanishing_order(cfg, 24).to_json_dict()) \
                        == expect, (text, scale)

    @pytest.mark.parametrize("alpha,case", [
        ("1/13", "imp-imp"), ("1/3", "imp-imp"), ("2/9", "pec-pmc"),
        ("0.37", "imp-pec")])
    def test_reports_to_the_highest_order_do_not_depend_on_the_certificate(
            self, monkeypatch, alpha, case):
        cfg = make_config(alpha, case=case, **TestReportFill.ETAS)
        expect = vanishing_order(cfg, vanish.MAX_ORDER).to_json_dict()
        monkeypatch.setattr(vanish, "_certified_nullities",
                            lambda systems, tol: [None] * len(systems))
        assert vanishing_order(cfg, vanish.MAX_ORDER).to_json_dict() == expect

    @pytest.mark.parametrize("alpha,case,svd_orders", [
        ("1/3", "imp-imp", []), ("1/4", "pec-pmc", []), ("2/5", "imp-pec", []),
        ("0.6180339887", "imp-pmc", []), ("1/2", "imp-imp", [1])],
        ids=["1/3-imp-imp", "1/4-pec-pmc", "2/5-imp-pec", "0.618-imp-pmc",
             "1/2-imp-imp"])
    def test_svd_runs_only_where_the_certificate_refuses(
            self, monkeypatch, alpha, case, svd_orders):
        # at 1/2 the first-order null vector is a head-block combination, not
        # a pair's sum or difference: its lane is refused, and order 1 goes
        # to the SVD
        orders, svd = [], np.linalg.svd

        def spy(blocks, *args, **kwargs):
            orders.append(blocks.shape[-1] // 2)
            return svd(blocks, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", spy)
        report = vanishing_order(make_config(alpha, case=case), 24)
        assert orders == svd_orders
        assert any(d.nullspace_dim for d in report.per_order) == (case != "imp-pmc")

    @pytest.mark.parametrize("alpha,case,deflated", [
        ("1/3", "imp-imp", ["a_3 - a_-3", "a_6 - a_-6", "b_3 - b_-3", "b_6 - b_-6"]),
        ("1/4", "pec-pmc", ["a_2 + a_-2", "a_6 + a_-6", "b_2 - b_-2", "b_6 - b_-6"])])
    def test_blocks_hold_column_pairs_as_sums_and_differences(self, alpha, case,
                                                               deflated):
        # class slot 2m-1 holds x_m + x_-m and slot 2m holds x_m - x_-m: at
        # n = 6 the certificate deflates exactly the cascade's null pairs,
        # as many as the nullity
        system = assemble_order_system(6, make_config(alpha, case=case))
        squares = np.abs(system.blocks) ** 2
        bound = squares.sum() * (1e-9 / 100 / (2 * 13)) ** 2
        names = []
        for mask, norms in zip(vanish._parity_classes(6), squares.sum(axis=1)):
            labels = [c for c, keep in zip(column_labels(6), mask) if keep]
            for slot in np.flatnonzero(norms <= bound):
                fam, m = labels[slot - 1 + slot % 2]       # (fam, m), m >= 1
                names.append(f"{fam}_{m} {'+' if slot % 2 else '-'} {fam}_-{m}")
        assert sorted(names) == deflated
        assert nullspace_dim(system) == len(deflated) == 4

    @pytest.mark.parametrize("alpha,case", [
        ("1/2", "imp-imp"), ("3/2", "imp-imp"), ("1/4", "imp-pec")])
    def test_a_degenerate_head_goes_to_the_svd_alone(self, monkeypatch, alpha, case):
        # cos(alpha' pi) = 0 exactly: the report's one nullspace_dim call
        # makes one certificate call on orders 1..12, whose one
        # factorization refuses lane 0 alone, class 0 of order 1, where the
        # head block B lies; the certificate answers None there alone, and
        # the SVD decides order 1
        calls, svd_orders = {"nullspace_dim": 0, "certify": 0}, []
        rank, svd = vanish.nullspace_dim, np.linalg.svd
        certify = vanish._certified_nullities

        def ranked(*args, **kwargs):
            calls["nullspace_dim"] += 1
            return rank(*args, **kwargs)

        def certified(systems, tol):
            calls["certify"] += 1
            dims = certify(systems, tol)
            assert [s.n for s in systems] == list(range(1, 13))
            assert [d is None for d in dims] == [True] + [False] * 11
            return dims

        def decomposed(blocks, *args, **kwargs):
            svd_orders.append(blocks.shape[-1] // 2)
            return svd(blocks, *args, **kwargs)
        monkeypatch.setattr(vanish, "nullspace_dim", ranked)
        monkeypatch.setattr(vanish, "_certified_nullities", certified)
        monkeypatch.setattr(np.linalg, "svd", decomposed)
        lanes = _spy_lanes(monkeypatch)
        report = vanishing_order(make_config(alpha, case=case), 12)
        assert svd_orders == [1] and report.per_order[0].nullspace_dim > 0
        assert calls == {"nullspace_dim": 1, "certify": 1}
        assert lanes == [[False] + [True] * 23]

    def test_a_misrouted_order_is_refused_not_misjudged(self, monkeypatch):
        # 0.5000001 is untagged and its cos(alpha' pi) = -3.1e-7 is not 0:
        # the pass's one factorization refuses the order-1 head's lane 0,
        # while its lane 1 factors, and both lanes of orders 2..12, where
        # |sin(2 alpha' pi)| = 6.3e-7 is neither deflated nor certified;
        # the SVD decides every order, with the report the SVD alone makes.
        # At 1/2 itself the same factorization refuses lane 0 alone, and
        # the SVD decides order 1 alone
        for alpha, factored, svd_orders in (
                ("0.5000001", [[False, True] + [False] * 22], list(range(1, 13))),
                ("1/2", [[False] + [True] * 23], [1])):
            cfg = make_config(alpha, **TestReportFill.ETAS)
            with monkeypatch.context() as patch:
                patch.setattr(vanish, "_certified_nullities",
                              lambda systems, tol: [None] * len(systems))
                expect = vanishing_order(cfg, 12)
            orders, svd = [], np.linalg.svd

            def spy(blocks, *args, **kwargs):
                orders.append(blocks.shape[-1] // 2)
                return svd(blocks, *args, **kwargs)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "svd", spy)
                lanes = _spy_lanes(patch)
                assert vanishing_order(cfg, 12) == expect, alpha
            assert orders == svd_orders, alpha
            assert lanes == factored, alpha

    def test_a_refused_order_leaves_the_others_certified(self, monkeypatch):
        # 0.2857143 is 2/7 + 1.4e-8 and untagged: orders 7..12 hold a
        # relative singular value near 1e-8 that no shift certifies, while
        # orders 1..6 factor; one certificate call decides the report, and
        # only the refused orders reach the SVD, with the SVD's report
        cfg = make_config("0.2857143")
        with monkeypatch.context() as patch:
            patch.setattr(vanish, "_certified_nullities",
                          lambda systems, tol: [None] * len(systems))
            expect = vanishing_order(cfg, 12)
        calls, svd_orders = [], []
        certify, decide = vanish._certified_nullities, vanish._svd_nullity

        def certified(systems, tol):
            dims = certify(systems, tol)
            calls.append(dims)
            return dims

        def svd_nullity(system, tol):
            svd_orders.append(system.n)
            return decide(system, tol)
        monkeypatch.setattr(vanish, "_certified_nullities", certified)
        monkeypatch.setattr(vanish, "_svd_nullity", svd_nullity)
        assert vanishing_order(cfg, 12) == expect
        assert calls == [[0] * 6 + [None] * 6]
        assert svd_orders == list(range(7, 13))
        # the order-1 head of imp-pec 1/4 (alpha' = 1/2) refuses its lane 0
        # alone and is decided by the SVD inside the same nullspace_dim call
        calls.clear(), svd_orders.clear()
        lanes = _spy_lanes(monkeypatch)
        report = vanishing_order(make_config("1/4", case="imp-pec"), 12)
        assert svd_orders == [1] and report.per_order[0].nullspace_dim == 1
        assert len(calls) == 1 and [d is None for d in calls[0]] == [True] + [False] * 11
        assert lanes == [[False] + [True] * 23]

    def test_a_refused_step_refuses_its_lanes_and_goes_on(self, monkeypatch):
        # at 0.2857143 orders 7..12 have a second window, and none of those
        # factors: their lanes alone are refused, while orders 1..6, whose
        # one window factored at the first step, stay proven.  The refused
        # lanes of orders 11 and 12 still take their third window, so each
        # of the three steps makes one batched cholesky_lo call
        source, eff = vanish.effective_config(make_config("0.2857143"))
        layout = vanish._layout(tuple(range(1, 13)), vanish._assembled_case(source))
        systems = vanish._systems(layout, eff)
        cholesky, batches = vanish.cholesky_lo, []

        def spy(windows):
            batches.append(len(windows))
            return cholesky(windows)
        monkeypatch.setattr(vanish, "cholesky_lo", spy)
        lanes = _spy_lanes(monkeypatch)
        assert vanish._certified_nullities(systems, 1e-9) == [0] * 6 + [None] * 6
        assert batches == [24, 12, 4]
        assert lanes == [[True] * 12 + [False] * 12]

    def test_the_gufunc_refuses_each_window_alone(self):
        # the certificate's refusal per lane rests on numpy's cholesky_lo,
        # the gufunc np.linalg.cholesky wraps: of three windows, the middle
        # one indefinite, it returns NaN for the middle one alone and, for
        # the others, the bits np.linalg.cholesky gives
        from numpy.linalg import _umath_linalg
        assert vanish.cholesky_lo is _umath_linalg.cholesky_lo
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 14, 14)) + 1j * rng.standard_normal((3, 14, 14))
        windows = x @ x.conj().transpose(0, 2, 1) + np.eye(14)
        windows[1] -= 5.0 * np.eye(14)
        with np.errstate(invalid="ignore"):
            factor = _umath_linalg.cholesky_lo(windows)
        assert np.isnan(factor[1]).all()
        for j in (0, 2):
            assert factor[j].tobytes() == np.linalg.cholesky(windows[j]).tobytes()
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(windows)

    def test_an_indefinite_lane_refuses_its_order_alone(self):
        # orders 1 and 24 factored together, both lanes of order 1
        # indefinite and both of order 24 definite: order 24's lanes factor
        # (np.linalg.cholesky raised for the whole first step, which
        # refused all four)
        *_, plan = vanish._window_plan(np.array([1, 24]))
        band = np.zeros((2 * 3 + 2 * 49 + 1, vanish._HALF_BAND + 1), dtype=complex)
        band[:6, 0], band[6:, 0] = -1.0, 2.0
        band[6:, 1] = -1.0
        band[[6, 55], 1] = 0.0
        band[-1] = vanish._PAD_ROW
        assert vanish._factor_windows(band, plan).tolist() == [False, False, True, True]

    def test_a_deep_report_near_a_fraction_sends_few_orders_to_the_svd(
            self, monkeypatch):
        # imp-pmc at 0.7307993945552227 assembles 6e-5 off 7/13: orders
        # 78..85 hold a lane the structural shift does not certify, and
        # only they reach the SVD (65 orders when a refused step refused
        # every lane with a window at it)
        cfg = make_config("0.7307993945552227", case="imp-pmc", k=0.8654901787445897,
                          eta2=0.4257974069405483 - 1.201937739778516j)
        orders, decide = [], vanish._svd_nullity

        def svd_nullity(system, tol):
            orders.append(system.n)
            return decide(system, tol)
        monkeypatch.setattr(vanish, "_svd_nullity", svd_nullity)
        assert vanishing_order(cfg, vanish.MAX_ORDER).at_nmax
        assert len(orders) <= 8

    @pytest.mark.parametrize("alpha,case,eta1,eta2,k,svd_orders", [
        ("0.2291197912220782", "imp-pmc", None,
         -0.38375054528542935 - 0.49159781434908395j, 1.4822736414862572, []),
        ("0.123456789", "imp-imp", 1.3 + 0.2j, 0.7 - 0.4j, 1.2, [81, 82, 83, 84, 85])],
        ids=["imp-pmc", "imp-imp"])
    def test_a_deep_report_is_factored_once(self, monkeypatch, alpha, case, eta1,
                                            eta2, k, svd_orders):
        # each pass is factored once, at theta S: every order of the imp-pmc
        # report is certified (the shift theta R would refuse 116 of its
        # lanes), and imp-imp refuses only the last step's lanes, orders
        # 81..85, which the SVD decides; a refusal is not factored again
        cfg = make_config(alpha, case=case, eta1=eta1, eta2=eta2, k=k)
        orders, decide = [], vanish._svd_nullity

        def svd_nullity(system, tol):
            orders.append(system.n)
            return decide(system, tol)
        monkeypatch.setattr(vanish, "_svd_nullity", svd_nullity)
        lanes = _spy_lanes(monkeypatch)
        assert vanishing_order(cfg, vanish.MAX_ORDER).at_nmax
        assert orders == svd_orders
        assert len(lanes) == 1
        assert lanes[0] == [True] * 2 * (vanish.MAX_ORDER - len(svd_orders)) \
            + [False] * 2 * len(svd_orders)

    @pytest.mark.parametrize("alpha,case", [
        ("1/13", "imp-imp"), ("1/3", "imp-imp"), ("0.6180339887", "imp-imp"),
        ("2/9", "pec-pmc"), ("0.6180339887", "pec-pmc"), ("0.37", "imp-pec"),
        ("3/7", "imp-pmc")])
    def test_highest_orders_are_certified_as_the_svd_decides(self, alpha, case):
        # every order of an n_max-85 report, at complex eta and k != 1: the
        # banded certificate proves each, and each nullity is the SVD's
        # (_svd_nullity's count from the same singular values).  The shift
        # bound S = 2c of the layout is at least each order's s_max^2: every
        # nonzero row of the blocks has 2-norm sqrt 2, so by Cauchy-Schwarz
        # s_max^2 <= 2c, c the most rows meeting one class slot, up to the
        # rounding of the unit rows, which pec-pmc reaches; on each report
        # some order lies above c, so S = c would break the proof
        cfg = make_config(alpha, case=case, **TestReportFill.ETAS)
        source, eff = vanish.effective_config(cfg)
        layout = vanish._layout(tuple(range(1, vanish.MAX_ORDER + 1)),
                                vanish._assembled_case(source))
        systems = vanish._systems(layout, eff)
        values = [np.linalg.svd(system.blocks, compute_uv=False) for system in systems]
        assert vanish._certified_nullities(systems, 1e-9) == [
            sum(vanish._dim_from_values(system, s, 2 * system.n + 1, 1e-9))
            for system, s in zip(systems, values)]
        top = np.array([s.max() ** 2 for s in values])
        assert (top <= layout.shift * (1 + 1e-12)).all()
        assert (top > layout.shift / 2).any()

    @pytest.mark.parametrize("shift,factors", [(0.003, True), (0.005, False)])
    def test_windows_carry_the_schur_complement(self, shift, factors):
        # tridiag(-1, 2, -1) of width 49 (both lanes of order 24) has least
        # eigenvalue 2 - 2 cos(pi/50) = 0.00395, its 14 x 14 windows
        # 2 - 2 cos(pi/15) = 0.044: shifted by 0.005 it is indefinite while
        # every window is definite, so only the carried Schur complements
        # refuse it
        orders = np.array([24])
        *_, plan = vanish._window_plan(orders)
        band = np.zeros((2 * 49 + 1, vanish._HALF_BAND + 1), dtype=complex)
        band[:, 0], band[:, 1] = 2.0 - shift, -1.0
        band[[0, 49], 1] = 0.0
        band[-1] = vanish._PAD_ROW
        assert vanish._factor_windows(band, plan).tolist() == [factors] * 2

    def test_a_batch_decides_as_its_orders_alone(self, monkeypatch):
        # with the certificate and with the SVD fallback alone
        for alpha, case in (("1/3", "imp-imp"), ("1/2", "imp-imp"), ("1/4", "pec-pmc"),
                            ("0.6180339887", "imp-pec")):
            systems = self.systems(alpha, case, TestReportFill.ETAS)[:8]
            alone = [vanish._svd_nullity(system, 1e-9) for system in systems]
            assert nullspace_dim(systems) == alone, alpha
            with monkeypatch.context() as patch:
                patch.setattr(vanish, "_certified_nullities",
                              lambda systems, tol: [None] * len(systems))
                assert nullspace_dim(systems) == alone, alpha

    def test_interleaved_passes_decide_as_each_system_alone(self, monkeypatch):
        # separately assembled systems are nine passes of one order each,
        # listed order by order across the angles: each is certified as its
        # own pass, with the certificate and with the SVD fallback alone
        systems = [assemble_order_system(n, make_config(alpha)) for n in (1, 3, 6)
                   for alpha in ("1/3", "1/2", "0.37")]
        alone = [nullspace_dim(system) for system in systems]
        assert alone == [0, 1, 0, 2, 2, 0, 4, 6, 0]
        assert nullspace_dim(systems) == alone
        with monkeypatch.context() as patch:
            patch.setattr(vanish, "_certified_nullities",
                          lambda systems, tol: [None] * len(systems))
            assert nullspace_dim(systems) == alone

    def test_near_a_grid_hit_the_structural_shift_spares_the_svd(self, monkeypatch):
        # imp-pmc at 4 sqrt(5)/7 - 1 assembles to 0.5555063, 5e-5 off 5/9:
        # from order 9 the smallest relative singular value falls from 4.4e-4
        # to 7.8e-5 at order 24, while R/s_max^2 grows like N (their least
        # |sin(m alpha' pi)| is 1.4e-3, so no column is deflated).  The
        # shift theta R, R = |blocks|_F^2, would refuse orders 17..24; the
        # shift theta S of the layout, S = 2c, certifies them all
        text = "0.2777531299998799"
        refused = []
        for system in self.systems(text, "imp-pmc", self.UNIT):
            s = np.linalg.svd(system.blocks, compute_uv=False)
            by_r = vanish.CERTIFY_THETA * np.sum(np.abs(system.blocks) ** 2)
            if s.min() ** 2 < by_r:
                refused.append(system.n)
        assert refused == list(range(17, 25))
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: pytest.fail("SVD"))
        report = vanishing_order(make_config(text, case="imp-pmc"), 24)
        assert not any(d.nullspace_dim for d in report.per_order)

    def test_certificate_only_below_its_tolerance(self, monkeypatch):
        # sqrt(theta) = 3.2e-5 must lie 100 tol above the threshold, and at
        # tol = 1e-12 the deflated values tol/100 plus the SVD's rounding
        # N eps ~ 4e-14 must lie below tol/10
        calls = []
        monkeypatch.setattr(vanish, "_certified_nullities",
                            lambda blocks, tol: calls.append(tol) or [0])
        system = assemble_order_system(3, make_config("0.37"))
        for tol, tried in ((1e-9, 1), (3e-7, 1), (4e-7, 0), (1e-6, 0), (1e-3, 0), (1e-12, 1),
                           (9e-13, 0)):
            calls.clear()
            nullspace_dim(system, tol=tol)
            assert len(calls) == tried, tol

    @pytest.mark.parametrize("matrix,nullity", [
        (np.eye(3), 0), (np.zeros((2, 2)), 2), (np.eye(3)[:2], 1),
        (np.zeros((2, 0)), 0), ([[1.0, 1.0], [1.0, 1.0 + 1e-4]], 0)])
    def test_bare_matrices(self, monkeypatch, matrix, nullity):
        # a bare matrix, such as the collocation rows, is decided by the SVD
        # alone; the last has relative singular values 1 and 2.5e-5
        def certify(blocks, tol):
            raise AssertionError("certificate tried")
        monkeypatch.setattr(vanish, "_certified_nullities", certify)
        assert nullspace_dim(matrix) == vanish._svd_nullity(matrix, 1e-9) == nullity


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

    @pytest.mark.parametrize("case", ["imp-imp", "imp-pec", "imp-pmc"])
    @pytest.mark.parametrize("n", [1, 2, 24, 85])
    def test_edge_rows_carry_the_radial_weights(self, case, n):
        # the layout's constants are the edge weights Kp and Ap at n
        cfg = make_config("0.37", case=case, **self.ETAS)
        _, eff = vanish.effective_config(cfg)
        expect = vanish.edge_rows(*angles.sincos_pi(eff.alpha.value),
                                  *vanish._radial_weights(n), eff.bc1.eta0,
                                  eff.bc2.eta0, eff.k, 2 * (2 * n + 1))
        np.testing.assert_allclose(assemble_order_system(n, cfg).rows[:6],
                                   expect, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("case", ["imp-imp", "imp-pec"])
    def test_warm_report_reads_only_its_configuration(self, monkeypatch, case):
        # with the layout cached, a query computes no weight of n
        configs = [make_config("2/7", case=case, **self.ETAS),
                   make_config("0.37", case=case, eta1=0.6, eta2=1.4j, k=0.9)]
        expect = [vanishing_order(cfg, 12) for cfg in configs]

        def refuse(n):
            raise AssertionError("radial weights recomputed")
        monkeypatch.setattr(vanish, "_radial_weights", refuse)
        assert [vanishing_order(cfg, 12) for cfg in configs] == expect

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
        # no order's dense blocks are built: a report holds its entries and
        # the certificate the lower Gram bands, 6 values per class slot,
        # about 1.4 MB at n_max 85, and the windows of one step
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

    def test_an_overflow_above_an_ambiguous_order_comes_first(self, capsys):
        # every order's head determinants are evaluated before any rank is
        # decided: at k = 1e154, eta = 1.5, det A overflows from order 44
        # on, and order 3 is ambiguous at this tol (test above), so the
        # report refuses the input, exit 1, not the rank, exit 2
        from edgewave.cli import main
        blocks, _ = vanish._parity_blocks(assemble_order_system(3, make_config("0.33333")))
        s = np.linalg.svd(blocks, compute_uv=False)
        tol = float(s.min() / s.max())
        cfg = make_config("0.33333", eta1=1.5, eta2=1.5, k=1e154)
        with pytest.raises(RankAmbiguityError):
            vanishing_order(cfg, 43, tol=tol)
        with pytest.raises(ValueError, match="overflows the boundary system"):
            vanishing_order(cfg, 44, tol=tol)
        code = main(["analyze", "--alpha", "0.33333", "--case", "imp-imp", "--eta1",
                     "1.5", "--eta2", "1.5", "--k", "1e154", "--nmax", "44",
                     "--tol", repr(tol)])
        assert code == 1
        assert "overflows the boundary system" in capsys.readouterr().err

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
