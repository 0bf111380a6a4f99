"""Vector spherical wavefunctions and field evaluation from mode tables.

Builds the mode pair (M, N), checks the curl identities by finite
differences, and evaluates a field from coefficients two independent ways.
"""

import math

import numpy as np

from edgewave import swe
from edgewave.swe import ModeCoefficients, SphericalPoint

k = 1.3
rng = np.random.default_rng(0)

print("The mode pair at l=2, m=1 and the curl identities")
x = np.array([0.3, 0.2, 0.25])
pt = SphericalPoint.from_cartesian(x)
M, N = swe.vector_modes(2, 1, pt, k)
print(f"  point (r, theta, phi) = ({pt.r:.3f}, {pt.theta:.3f}, {pt.phi:.3f})")
print(f"  |M| = {np.linalg.norm(M):.6f}, |N| = {np.linalg.norm(N):.6f}")
rhat = swe.unit_frame(pt.theta, pt.phi)[0]
print(f"  rhat . M = {abs(np.dot(rhat, M)):.2e}   (M is purely tangential)")


def fd_curl(coeffs, x, h=1e-4):
    J = np.zeros((3, 3), dtype=complex)
    for j in range(3):
        d = np.zeros(3)
        d[j] = h
        J[:, j] = (swe.eval_field(coeffs, x + d)
                   - swe.eval_field(coeffs, x - d)) / (2 * h)
    return np.array([J[2, 1] - J[1, 2], J[0, 2] - J[2, 0], J[1, 0] - J[0, 1]])


curl_m = fd_curl(ModeCoefficients(2, k, a={(2, 1): 1.0}), x)
curl_n = fd_curl(ModeCoefficients(2, k, b={(2, 1): 1.0}), x)
print(f"  |curl M + ik N| / |N| = {np.linalg.norm(curl_m + 1j*k*N)/np.linalg.norm(N):.2e}")
print(f"  |curl N - ik M| / |M| = {np.linalg.norm(curl_n - 1j*k*M)/np.linalg.norm(M):.2e}")

print("\nTwo assembly routes for the same field (single b_1^0 mode):")
c = ModeCoefficients(1, k, b={(1, 0): 1.0})
for _ in range(3):
    y = rng.uniform(0.05, 0.5, 3)
    pty = SphericalPoint.from_cartesian(y)
    _, N1 = swe.vector_modes(1, 0, pty, k)
    diff = np.max(np.abs(swe.eval_field(c, y) - N1))
    print(f"  componentwise expansion vs mode formula: max diff {diff:.2e}")

print("\nLow-order scaling: an l=3-only field decays like r^2 near the corner")
c3 = ModeCoefficients(3, k, a={(3, 1): 1.0}, b={(3, -2): 0.5})
theta = np.linspace(0.1, math.pi - 0.1, 30)
phi = np.linspace(0, 2 * math.pi, 30)
prev = None
for rho in (1e-2, 1e-3, 1e-4):
    E = swe.eval_field(c3, (rho, theta[:, None], phi[None, :]))
    peak = np.max(np.linalg.norm(E, axis=-1))
    note = ""
    if prev is not None:
        note = f"   slope {math.log(prev / peak) / math.log(10):.3f}"
    print(f"  rho = {rho:.0e}: max |E| = {peak:.3e}{note}")
    prev = peak
