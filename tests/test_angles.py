import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgewave import angles
from edgewave.angles import Angle, AngleError


class TestParse:
    def test_fraction_reduction(self):
        a = angles.parse_angle("2/6")
        assert a.value == pytest.approx(1 / 3)
        assert a.rational == (1, 3)

    def test_decimal_gets_its_fraction(self):
        a = angles.parse_angle("0.5")
        assert a.value == 0.5
        assert a.rational == (1, 2)
        assert angles.parse_angle(" 0.37 ").rational == (37, 100)

    def test_decimal_stays_untagged(self):
        # only a decimal that no fraction matches
        a = angles.parse_angle("0.6180339887")
        assert a.value == 0.6180339887
        assert a.rational is None

    def test_float_angle_stays_untagged(self):
        assert Angle(0.37).rational is None

    def test_flat_angle_rejected(self):
        # a decimal within DETECT_TOL of 1 reads as 1, as 0.333333333333
        # reads as 1/3
        for flat in ("1/1", "1.0", "0.9999999999999", "1.0000000000001"):
            with pytest.raises(AngleError, match=r"outside \(0,2\)"):
                angles.parse_angle(flat)

    def test_only_ascii_digits_without_signs_or_inner_spaces(self):
        # int() and float() alone would read each as 33/100, 1/3 or 37/100
        for bad in ("0.3_3", "1_0/3_0", "\u0661/\u0663", "\uff11/\uff13", "0.\u0663\u0667",
                    "1 / 3", "1/ 3", "1\t/3", "-1/-3", "+1/3", "1/+3"):
            with pytest.raises(AngleError, match="cannot parse"):
                angles.parse_angle(bad)

    def test_out_of_range(self):
        for bad in ("0", "2", "5/2", "-1/3", "garbage", "1e-13", "1.9999999999999"):
            with pytest.raises(AngleError):
                angles.parse_angle(bad)


class TestDetectRational:
    def test_near_third(self):
        a = angles.detect_rational(Angle(0.333333333333), max_den=10)
        assert a.rational == (1, 3)

    def test_golden_stays_irrational(self):
        a = angles.detect_rational(Angle(0.6180339887), max_den=50)
        assert a.rational is None

    def test_denominator_bound_respected(self):
        a = angles.detect_rational(Angle(0.75), max_den=2)
        assert a.rational is None

    def test_idempotent(self):
        a = angles.detect_rational(Angle(0.333333333333), max_den=10)
        assert angles.detect_rational(a, max_den=10) is a

    @given(st.integers(1, 23), st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_detects_exact_fractions(self, q, p):
        fr = Fraction(q, p)
        if not (0 < fr < 2) or fr == 1:
            return
        a = angles.detect_rational(Angle(q / p), max_den=1000)
        assert a.rational == (fr.numerator, fr.denominator)

    def test_never_attaches_loose_fraction(self, rng):
        for _ in range(50):
            v = float(rng.uniform(0.02, 1.97))
            if abs(v - 1) < 1e-3:
                continue
            a = angles.detect_rational(Angle(v), max_den=1000)
            if a.rational is not None:
                q, p = a.rational
                assert abs(v - q / p) < angles.DETECT_TOL


class TestGrid:
    @pytest.mark.parametrize("text,grid,nmax,expect", [
        ("1/3", "qp", 10, 2),
        ("5/3", "qp", 10, 2),
        ("1/2", "q2p", 10, 0),
    ])
    def test_examples(self, text, grid, nmax, expect):
        assert angles.grid_exclusion_order(angles.parse_angle(text), grid,
                                           nmax) == expect

    def test_untagged_never_hits(self):
        a = Angle(0.6180339887)
        assert angles.grid_exclusion_order(a, "qp", 12) == 12

    def test_qp_is_denominator_minus_one(self):
        for p in range(1, 13):
            for q in range(1, 2 * p):
                fr = Fraction(q, p)
                if fr == 1 or fr != Fraction(q, p):
                    continue
                if math.gcd(q, p) != 1:
                    continue
                a = angles.parse_angle(f"{q}/{p}")
                assert angles.grid_exclusion_order(a, "qp", 14) == p - 1

    def test_q2p_parity_rule(self):
        for p in range(1, 13):
            for q in range(1, 2 * p):
                if math.gcd(q, p) != 1 or Fraction(q, p) == 1:
                    continue
                a = angles.parse_angle(f"{q}/{p}")
                expect = p // 2 - 1 if p % 2 == 0 else p - 1
                assert angles.grid_exclusion_order(a, "q2p", 14) == expect

    def test_matches_brute_force_scan(self):
        # reference: list the grid points of every p and walk them in order
        points = {grid: [set(Fraction(q, den) for q in range(1, 2 * den))
                         for den in (p if grid == "qp" else 2 * p
                                     for p in range(1, 46))]
                  for grid in ("qp", "q2p")}
        for p in range(1, 41):
            for q in range(1, 2 * p):
                if math.gcd(q, p) != 1 or q == p:
                    continue
                a = angles.parse_angle(f"{q}/{p}")
                for grid, per_p in points.items():
                    hits = [Fraction(q, p) in pts for pts in per_p]
                    for n_max in range(0, 46):
                        scan = next((i for i in range(n_max) if hits[i]), n_max)
                        assert angles.grid_exclusion_order(a, grid, n_max) == scan, \
                            (q, p, grid, n_max)


class TestSinCosPi:
    @pytest.mark.parametrize("value,expect", [
        (0.0, (0.0, 1.0)), (0.5, (1.0, 0.0)), (1.0, (0.0, -1.0)),
        (1.5, (-1.0, 0.0)), (2.0, (0.0, 1.0)), (-0.5, (-1.0, 0.0)),
    ])
    def test_exact_at_half_integers(self, value, expect):
        assert angles.sincos_pi(value) == expect

    @given(st.floats(0.01, 1.99).filter(lambda v: not (2 * v).is_integer()))
    @settings(max_examples=50, deadline=None)
    def test_matches_math_elsewhere(self, value):
        assert angles.sincos_pi(value) == (math.sin(value * math.pi),
                                           math.cos(value * math.pi))
