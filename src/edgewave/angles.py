"""Dihedral angle representation, rationality detection and exclusion grids.

Rationality is a property of the representation, never of floating point:
an angle carries an exact reduced fraction only when parsed from text ("q/p",
or a decimal that a fraction matches within 1e-12) or when detect_rational
is applied.  An Angle built from a float stays untagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

DETECT_TOL = 1e-12
DEFAULT_MAX_DEN = 1000


class AngleError(ValueError):
    pass


@dataclass(frozen=True)
class Angle:
    """Angle alpha in units of pi, alpha in (0, 2).

    The flat angle 1 is admitted because reflected configurations land on it
    (alpha = 1/2 or 3/2); parse_angle and vanish.case_of_config reject it
    wherever a user's angle enters.
    """

    value: float
    rational: Optional[Tuple[int, int]] = None  # reduced (q, p)

    def __post_init__(self):
        if not (0.0 < self.value < 2.0):
            raise AngleError(f"angle {self.value} outside (0,2)")
        if self.rational is not None:
            q, p = self.rational
            if p < 1 or q < 1 or math.gcd(q, p) != 1:
                raise AngleError(f"fraction {q}/{p} not reduced/positive")
            if abs(self.value - q / p) > DETECT_TOL:
                raise AngleError("stored value disagrees with fraction")

    def __str__(self):
        if self.rational:
            return f"{self.rational[0]}/{self.rational[1]}"
        return repr(self.value)


def sincos_pi(value):
    """(sin, cos) of value*pi, exactly 0 or +-1 when 2*value is an integer."""
    if float(2 * value).is_integer():
        quarter = int(2 * value) % 4
        return (0.0, 1.0, 0.0, -1.0)[quarter], (1.0, 0.0, -1.0, 0.0)[quarter]
    return math.sin(value * math.pi), math.cos(value * math.pi)


def parse_angle(text):
    """Parse "q/p" (exact, reduced on input) or a decimal literal.

    A decimal is tagged with the fraction detect_rational finds, so "0.37"
    is the angle 37/100; one that no fraction matches stays untagged.  By
    the same rule a value within DETECT_TOL of 0, 1 or 2 reads as that
    integer, and is refused.  q and p are ASCII digits and a decimal is
    ASCII without underscores: int() and float() would also read signs,
    digit-group underscores, other scripts' digits and spaces around "/".
    """
    text = text.strip()
    num, slash, den = text.partition("/")
    digits = num.isdigit() and den.isdigit()
    if not text.isascii() or "_" in text or (slash and not digits):
        raise AngleError(f"cannot parse angle {text!r}")
    if slash:
        try:
            fr = Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise AngleError(f"cannot parse fraction {text!r}") from exc
        value = fr.numerator / fr.denominator
        rational = (fr.numerator, fr.denominator)
    else:
        try:
            value, rational = float(text), None
        except ValueError as exc:
            raise AngleError(f"cannot parse angle {text!r}") from exc
    if not (0 < value < 2) or abs(value - round(value)) < DETECT_TOL:
        raise AngleError(f"angle {text} outside (0,2)\\{{1}}")
    return detect_rational(Angle(value=value, rational=rational))


def detect_rational(angle, max_den=DEFAULT_MAX_DEN):
    """Attach a reduced fraction iff a denominator <= max_den matches to 1e-12.

    Uses the continued-fraction best approximation; idempotent.
    """
    if max_den < 1:
        raise AngleError("max_den must be >= 1")
    if angle.rational is not None:
        return angle
    best = Fraction(angle.value).limit_denominator(max_den)
    if abs(angle.value - float(best)) < DETECT_TOL:
        if 0 < best < 2 and best != 1:
            return Angle(value=angle.value, rational=(best.numerator, best.denominator))
    return angle


def grid_exclusion_order(angle, grid, n_max):
    """Largest N <= n_max such that no p <= N puts the angle on the grid.

    grid = "qp":   hits are alpha = q/p with q = 1..2p-1
    grid = "q2p":  hits are alpha = q/(2p) with q = 1..4p-1

    A reduced q/den first hits the "qp" grid at p = den and the "q2p" grid at
    p = den / gcd(den, 2).  Angles without a rational tag never hit, so the
    result is n_max (read: ">= n_max").
    """
    if grid not in ("qp", "q2p"):
        raise ValueError("grid must be 'qp' or 'q2p'")
    if angle.rational is None:
        return n_max
    den = angle.rational[1]
    first = den if grid == "qp" else den // math.gcd(den, 2)
    return min(first - 1, n_max)
