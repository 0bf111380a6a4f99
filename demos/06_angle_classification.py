"""Angle arithmetic: parsing, rationality detection and exclusion grids.

Rationality is representational: fractions parsed exactly stay exact, a
parsed decimal carries the fraction a continued-fraction match finds within
1e-12, and an angle built from a float carries none.
"""

import math

from edgewave import angles
from edgewave.angles import Angle

print("Parsing keeps fractions exact and reduces them:")
a = angles.parse_angle("2/6")
print(f"  '2/6' -> value {a.value:.6f}, fraction {a.rational}")
for text in ("0.5", "0.6180339887"):
    a = angles.parse_angle(text)
    print(f"  {text!r} -> value {a.value}, fraction {a.rational}")

print("\nContinued-fraction detection within 1e-12:")
for value, max_den in ((0.333333333333, 10), (0.6180339887, 50),
                       (0.75, 2), (0.75, 4)):
    det = angles.detect_rational(Angle(value), max_den=max_den)
    print(f"  {value} with denominators <= {max_den}: {det.rational}")

print("\nExclusion grids (largest horizon the angle avoids):")
print(f"  {'alpha':>8} {'q/p grid':>9} {'q/2p grid':>10}")
for text in ("1/2", "1/3", "1/4", "2/5", "5/3", "7/8"):
    a = angles.parse_angle(text)
    print(f"  {text:>8} {angles.grid_exclusion_order(a, 'qp', 12):>9} "
          f"{angles.grid_exclusion_order(a, 'q2p', 12):>10}")
golden = Angle((math.sqrt(5) - 1) / 2)
print(f"  golden   {angles.grid_exclusion_order(golden, 'qp', 12):>9} "
      f"{angles.grid_exclusion_order(golden, 'q2p', 12):>10}   "
      "(no rational tag: never hits)")
