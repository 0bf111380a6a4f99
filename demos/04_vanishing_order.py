"""Order-by-order vanishing analysis across angle arithmetic.

Assembles the per-order constraint systems for several dihedral angles and
boundary pairings, showing how nullspace degeneracies track the angle's
rationality: first failures land exactly where the cascade determinants
-2i sin(m alpha pi) (or 2 cos(m alpha pi) for the PEC/PMC pairing) vanish.
"""

import json

from edgewave import parse_angle, vanish
from edgewave.corner import EdgeCornerConfig, ImpedanceSpec


def impimp(alpha_text, eta1=1.0, eta2=1.0, k=1.0):
    return EdgeCornerConfig(parse_angle(alpha_text), ImpedanceSpec.series(eta1),
                            ImpedanceSpec.series(eta2), k)


def pecpmc(alpha_text):
    return EdgeCornerConfig(parse_angle(alpha_text), ImpedanceSpec.infinite(),
                            ImpedanceSpec.zero(), 1.0)


print("Impedance-impedance corner at alpha = 1/3 (degree-3 rational):")
report = vanish.vanishing_order(impimp("1/3"), 6)
print(report.render())

print("\nSame corner at the golden-ratio angle (no rational tag):")
report = vanish.vanishing_order(impimp("0.6180339887"), 8)
print(report.render())

print("\nPEC/PMC pairing at alpha = 1/4: the cos(2 alpha pi) block kills")
print("order 2 while order 1 survives:")
report = vanish.vanishing_order(pecpmc("1/4"), 5)
print(report.render())

print("\nAngle sweep, assembled bound vs grid bound (impedance-impedance):")
print(f"  {'alpha':>8} {'grid':>6} {'assembled':>10}")
for text in ("1/2", "1/3", "1/4", "1/5", "2/5", "3/7", "5/3"):
    r = vanish.vanishing_order(impimp(text), 8)
    ob = f">= 8" if r.at_nmax else str(r.order_lower_bound)
    print(f"  {text:>8} {int(r.theorem_bound):>6} {ob:>10}")

print("\nMixed pairing reduces to a doubled-angle impedance problem:")
mixed = EdgeCornerConfig(parse_angle("1/5"), ImpedanceSpec.infinite(),
                         ImpedanceSpec.series(1.3), 1.0)
case, eff = vanish.effective_config(mixed)
print(f"  source pairing {case.value} at {mixed.alpha} "
      f"-> assembled at {eff.alpha} with eta on both faces")

print("\nReports serialize to a stable JSON shape:")
data = vanish.vanishing_order(impimp("2/5"), 4).to_json_dict()
print("  " + json.dumps(data)[:110] + " ...")
