"""Brute-force cross-checks of the structured analysis.

Two independent probes: the ball-integral decay rate recovers the vanishing
order of explicit fields, and collocation on sampled boundary residuals
recovers the nullspace dimensions of the assembled systems.
"""

import math

import numpy as np

from edgewave import oracle, parse_angle, swe, vanish
from edgewave.corner import EdgeCornerConfig, ImpedanceSpec

print("Ball-integral decay of pure degree-n fields: I(rho) ~ rho^(n+2)")
for n in range(1, 5):
    c = swe.ModeCoefficients(n, 1.0, b={(n, min(1, n)): 1.0}, a={(n, 0): 0.3})
    est = oracle.vani_estimate(c)
    print(f"  degree {n}: slope {est.slope:.4f}, estimated order "
          f"{est.estimated_order}, R^2 = {est.r_squared:.8f}")

print("\nThe integral itself on a synthetic |E| = 1 integrand:")
unit = lambda r, th, ph: np.stack(
    [np.ones(np.broadcast(r, th, ph).shape)] * 3, axis=-1) / math.sqrt(3)
rho = 0.25
print(f"  I({rho}) = {oracle.ball_integral(unit, rho):.8f} vs ball volume "
      f"{4 / 3 * math.pi * rho ** 3:.8f}")


def config(alpha_text, case, eta=1.0, k=1.0):
    a = parse_angle(alpha_text)
    if case == "imp-imp":
        return EdgeCornerConfig(a, ImpedanceSpec.series(eta),
                                ImpedanceSpec.series(eta), k)
    if case == "pec-pmc":
        return EdgeCornerConfig(a, ImpedanceSpec.infinite(),
                                ImpedanceSpec.zero(), k)
    return EdgeCornerConfig(a, ImpedanceSpec.infinite(),
                            ImpedanceSpec.series(eta), k)


print("\nCollocation vs structured nullspace dimensions:")
print(f"  {'alpha':>14} {'case':>8} {'n':>3} {'structured':>11} {'collocated':>11}")
for alpha, case in (("1/3", "imp-imp"), ("1/2", "imp-imp"),
                    ("1/4", "pec-pmc"), ("1/5", "imp-pec"),
                    ("0.7071067811865", "imp-imp")):
    cfg = config(alpha, case)
    for n in (1, 2, 3):
        ds = vanish.nullspace_dim(vanish.assemble_order_system(n, cfg))
        dc = oracle.collocation_nullspace(n, cfg)
        print(f"  {alpha:>14} {case:>8} {n:>3} {ds:>11} {dc:>11}")

print("\nA nullspace vector of a degenerate system is a field that really")
print("does vanish to higher order (alpha = 1/3, order-3 failure):")
cfg = config("1/3", "imp-imp")
system = vanish.assemble_order_system(3, cfg)
vec = vanish.nullspace_basis(system)[:, 0]
labels = vanish.column_labels(3)
a = {(3, m): vec[i] for i, (f, m) in enumerate(labels) if f == "a"}
b = {(3, m): vec[i] for i, (f, m) in enumerate(labels) if f == "b"}
est = oracle.vani_estimate(swe.ModeCoefficients(3, cfg.k, a=a, b=b))
print(f"  estimated vanishing order of the nullspace field: "
      f"{est.estimated_order} (slope {est.slope:.3f})")
